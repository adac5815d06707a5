package streamsum

import (
	"fmt"

	"streamsum/internal/query"
	"streamsum/internal/sub"
)

// Standing match queries (subscriptions): the inverse of Match. A
// one-shot Match scans the archived history for a given target; a
// subscription registers the target once and is notified whenever a
// *future* window archives a matching cluster. Evaluation is
// incremental and inverted — each window's new summaries are probed
// against the registered subscriptions' targets (internal/sub), so
// cost scales with the window's cluster count, not with the number of
// subscriptions or the archive size.

// Subscription is one registered standing query; read events from
// Events() and release it with Cancel or Engine.Unsubscribe.
type Subscription = sub.Subscription

// SubEvent is one notification on a subscription's channel.
type SubEvent = sub.Event

// SubEventKind classifies a SubEvent.
type SubEventKind = sub.EventKind

// Subscription event kinds.
const (
	// SubMatch: a newly archived cluster matched the subscription's
	// target within its threshold.
	SubMatch = sub.MatchEvent
	// SubEvolution: a cluster evolution transition (Track subscriptions).
	SubEvolution = sub.EvolutionEvent
)

// SubStats is a snapshot of the standing-query registry's activity.
type SubStats = sub.Stats

// SubscribeOptions configures a standing match query (the Figure 3
// template with FROM Stream).
type SubscribeOptions struct {
	// Target is the pattern template to watch for; required unless Track
	// is set (a Track-only subscription receives evolution events only).
	Target *Summary
	// Threshold is the maximum matching distance (0..1).
	Threshold float64
	// Weights configures the metric; nil means EqualWeights.
	Weights *Weights
	// Track additionally delivers cluster evolution events (appeared /
	// continued / merged / split / vanished) on the same channel —
	// merge/split alerts for the subscribed pattern's neighborhood.
	Track bool
	// Buffer is the event channel capacity (default 16); the channel is
	// fed from an unbounded queue, so ingestion never blocks on it.
	Buffer int
}

// Subscribe registers a standing match query against the engine's
// stream. Events arrive on the returned subscription's channel in
// deterministic order: windows in archive order; within a window, match
// hits by ascending archive id, then (for Track subscriptions) the
// window's evolution events. Evaluation is incremental — a subscription
// only sees clusters archived after it was registered; pair it with
// Match for "past and future" semantics. Subscribe is safe from any
// goroutine, including while ingestion is running.
func (e *Engine) Subscribe(o SubscribeOptions) (*Subscription, error) {
	if e.subs == nil {
		return nil, fmt.Errorf("streamsum: standing queries need a pattern base (set Options.Archive)")
	}
	return e.subs.Subscribe(sub.Options{
		Target:    o.Target,
		Threshold: o.Threshold,
		Weights:   o.Weights,
		Track:     o.Track,
		Buffer:    o.Buffer,
	})
}

// Unsubscribe cancels a subscription, closing its event channel
// (equivalent to s.Cancel). It reports whether the subscription was
// still registered.
func (e *Engine) Unsubscribe(s *Subscription) bool {
	if e.subs == nil || s == nil {
		return false
	}
	return e.subs.Unsubscribe(s.ID())
}

// SubscriptionStats returns the standing-query registry's activity
// counters (zero value when the engine has no pattern base).
func (e *Engine) SubscriptionStats() SubStats {
	if e.subs == nil {
		return SubStats{}
	}
	return e.subs.Stats()
}

// SubscriptionQueueDepth returns the number of subscription events
// enqueued but not yet handed to a consumer channel, summed across all
// subscriptions — the standing delivery backlog (0 without a pattern
// base).
func (e *Engine) SubscriptionQueueDepth() int {
	if e.subs == nil {
		return 0
	}
	return e.subs.QueueDepth()
}

// SubscribeOptionsFromQuery parses a standing matching query in the
// paper's query language — Figure 3 with FROM Stream — into
// SubscribeOptions plus the query's cluster reference (the GIVEN
// identifier or integer archive id, which the caller resolves to a
// Summary and assigns to Target before calling Subscribe). One-shot
// FROM History queries are rejected: run those through
// MatchOptionsFromQuery and Match.
func SubscribeOptionsFromQuery(q string) (SubscribeOptions, string, error) {
	mq, err := query.ParseMatch(q)
	if err != nil {
		return SubscribeOptions{}, "", err
	}
	if !mq.Standing {
		return SubscribeOptions{}, "", fmt.Errorf("streamsum: not a standing query (use FROM Stream, or run it through Match)")
	}
	return SubscribeOptions{
		Threshold: mq.Threshold,
		Weights:   weightsOf(mq),
	}, mq.Target, nil
}

// weightsOf converts a parsed weight clause to the metric configuration
// (nil when the query used the defaults).
func weightsOf(mq *query.MatchQuery) *Weights {
	if !mq.HasWeights && !mq.PositionSensitive {
		return nil
	}
	ws := EqualWeights()
	if mq.HasWeights {
		ws.Volume, ws.Status, ws.Density, ws.Connectivity =
			mq.Weights[0], mq.Weights[1], mq.Weights[2], mq.Weights[3]
	}
	ws.PositionSensitive = mq.PositionSensitive
	return &ws
}
