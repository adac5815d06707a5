package sub

import (
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"streamsum/internal/archive"
	"streamsum/internal/geom"
	"streamsum/internal/match"
	"streamsum/internal/par"
	"streamsum/internal/sgs"
	"streamsum/internal/trace"
	"streamsum/internal/track"
)

// EventKind classifies a subscription event.
type EventKind int

const (
	// MatchEvent: a newly archived cluster matched the subscription's
	// target within its threshold.
	MatchEvent EventKind = iota
	// EvolutionEvent: a cluster evolution transition (merged, split, ...)
	// from the engine's tracker, delivered to Track subscriptions.
	EvolutionEvent
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case MatchEvent:
		return "match"
	case EvolutionEvent:
		return "evolution"
	default:
		return "unknown"
	}
}

// Event is one notification delivered on a subscription's channel.
type Event struct {
	Kind EventKind
	// SubID is the receiving subscription's id.
	SubID int64
	// Seq is the evaluation sequence number of the window the event
	// belongs to (ascending; gaps mean windows with no events for this
	// subscription).
	Seq uint64

	// Match-event fields (Kind == MatchEvent).
	// EntryID is the matched cluster's archive id.
	EntryID int64
	// Distance is the grid-cell-level matching distance.
	Distance float64
	// Entry is the matched archive entry with its summary materialized.
	Entry *archive.Entry

	// Track is the evolution transition (Kind == EvolutionEvent).
	Track *track.Event
}

// Options configures one subscription.
type Options struct {
	// Target is the pattern template to watch for. Required for match
	// subscriptions; may be nil for a Track-only subscription.
	Target *sgs.Summary
	// Threshold is the maximum matching distance (0..1).
	Threshold float64
	// Weights configures the metric; nil means match.EqualWeights.
	Weights *match.Weights
	// Track additionally delivers the engine's cluster evolution events
	// (merged/split/appeared/vanished alerts) on the same channel.
	Track bool
	// Buffer is the event channel's capacity (default 16). The channel
	// is fed from an unbounded queue, so the buffer only affects how far
	// the pump runs ahead of the consumer, never whether Offer blocks.
	Buffer int
}

// Subscription is one registered standing query. All fields fixed at
// Subscribe time are immutable; the delivery queue is internally
// synchronized.
type Subscription struct {
	id      int64
	reg     *Registry
	target  *sgs.Summary
	feat    [4]float64
	weights match.Weights
	thresh  float64
	trackEv bool
	matchEv bool // has a target: participates in inverted matching

	ch   chan Event
	done chan struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []Event
	qtimes    []time.Time // per-queued-event enqueue times (delivery latency)
	closed    bool
	enqueued  uint64 // events accepted into the queue
	delivered uint64 // events handed to the channel
}

// ID returns the registry-assigned subscription id.
func (s *Subscription) ID() int64 { return s.id }

// Events returns the ordered notification channel. It is closed after
// Cancel/Unsubscribe (pending undelivered events are dropped).
func (s *Subscription) Events() <-chan Event { return s.ch }

// Cancel unregisters the subscription; equivalent to Registry.Unsubscribe.
func (s *Subscription) Cancel() { s.reg.Unsubscribe(s.id) }

// enqueue appends events to the delivery queue (all-or-nothing per
// window: callers pass one window's events in a single call). Enqueue
// times ride in a parallel slice — never inside Event, whose values are
// compared byte-for-byte by determinism tests — so the pump can report
// each event's queue-to-channel delivery latency.
func (s *Subscription) enqueue(evs []Event) {
	if len(evs) == 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, evs...)
		for range evs {
			s.qtimes = append(s.qtimes, now)
		}
		s.enqueued += uint64(len(evs))
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Sync blocks until every event enqueued so far has been handed to the
// channel (buffered events still count as handed; Sync does not wait for
// the consumer to read them) or the subscription is canceled. Graceful
// drains use it: Sync then Cancel guarantees the consumer can read every
// delivered event before observing the channel close.
func (s *Subscription) Sync() {
	s.mu.Lock()
	for s.delivered < s.enqueued && !s.closed {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// close marks the subscription canceled and wakes the pump, which closes
// the channel.
func (s *Subscription) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// pump moves events from the unbounded queue to the channel, preserving
// order. It exits (closing the channel) once the subscription is
// canceled — without waiting for a consumer that may be gone.
func (s *Subscription) pump() {
	defer close(s.ch)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		batch, times := s.queue, s.qtimes
		s.queue, s.qtimes = nil, nil
		s.mu.Unlock()
		for i, ev := range batch {
			select {
			case s.ch <- ev:
				metricDeliverySeconds.Observe(time.Since(times[i]))
				s.mu.Lock()
				s.delivered++
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-s.done:
				return
			}
		}
	}
}

// class groups subscriptions sharing one metric weight vector. Its
// members' target feature vectors — and, for position-sensitive metrics,
// their MBRs — sit in flat columns computed once at Subscribe, so the
// probe is one sequential pass. maxThresh bounds the feature probe range
// — any member within its own threshold of a cluster necessarily falls
// inside the range computed at the class maximum.
type class struct {
	w         match.Weights
	subs      []*Subscription // members; row i of feat and mbr is subs[i]'s target
	feat      [][4]float64
	mbr       []float64 // 2·dim per member, Min then Max (position-sensitive classes only)
	maxThresh float64
}

// add appends s as the class's last row.
func (c *class) add(s *Subscription) {
	c.subs = append(c.subs, s)
	c.feat = append(c.feat, s.feat)
	if c.w.PositionSensitive {
		m := s.target.MBR()
		c.mbr = append(c.mbr, m.Min...)
		c.mbr = append(c.mbr, m.Max...)
	}
	c.maxThresh = max(c.maxThresh, s.thresh)
}

// remove deletes s's row, moving the last row into its place.
func (c *class) remove(s *Subscription, dim int) {
	i := slices.Index(c.subs, s)
	last := len(c.subs) - 1
	c.subs[i], c.feat[i] = c.subs[last], c.feat[last]
	c.subs, c.feat = c.subs[:last], c.feat[:last]
	if c.w.PositionSensitive {
		w := 2 * dim
		copy(c.mbr[i*w:(i+1)*w], c.mbr[last*w:])
		c.mbr = c.mbr[:last*w]
	}
	if s.thresh >= c.maxThresh {
		// The departing member may have set the class bound; rescan.
		c.maxThresh = 0
		for _, m := range c.subs {
			c.maxThresh = max(c.maxThresh, m.thresh)
		}
	}
}

// Stats is a point-in-time snapshot of registry activity for monitoring
// endpoints and tests.
type Stats struct {
	// Subscriptions currently registered (match + track-only).
	Subscriptions int
	// TrackSubscriptions currently registered with Track enabled.
	TrackSubscriptions int
	// Windows evaluated (Offer calls).
	Windows uint64
	// Entries offered across all windows.
	Entries uint64
	// Candidates that survived the target-column probe + feature gate (pairs).
	Candidates uint64
	// Refined pairs handed to the grid-cell-level match (== Candidates).
	Refined uint64
	// Pruned pairs among Refined that match.Refine's exact stages (the
	// M* vote bound, then the scan of the voted alignments) dismissed
	// without an alignment search; Refined − Pruned pairs were searched.
	Pruned uint64
	// Events delivered (match + evolution).
	Events uint64
	// LastEval is the duration of the most recent Offer.
	LastEval time.Duration
	// TotalEval is the cumulative Offer duration.
	TotalEval time.Duration
}

// Registry is the standing-query registry. See the package comment for
// the concurrency and ordering contract.
type Registry struct {
	dim     int
	workers int
	slow    time.Duration
	logger  *slog.Logger

	offerMu sync.Mutex // serializes Offer/OfferTrack; windows evaluate in call order
	seq     uint64     // windows evaluated so far (last seq = seq-1)

	mu        sync.RWMutex // guards the subscription set and the class columns
	nextID    int64
	subs      map[int64]*Subscription
	classes   map[match.Weights]*class
	trackSubs int

	statsMu sync.Mutex
	stats   Stats
}

// Config configures a registry.
type Config struct {
	// Dim is the data-space dimensionality (required; targets must have
	// it, and position-sensitive classes keep their targets' MBRs in a
	// flat column of 2·Dim values per member).
	Dim int
	// Workers bounds the parallel probe and refine fan-out per Offer:
	// <= 0 means one worker per available CPU, 1 forces sequential
	// evaluation. Events are byte-identical at every setting.
	Workers int
	// SlowThreshold, when positive, logs any window evaluation (Offer)
	// whose wall time meets it, with a probe/refine/deliver phase
	// breakdown. Zero disables slow-window logging.
	SlowThreshold time.Duration
	// Logger receives the slow-evaluation diagnostics. Nil discards
	// them — the library never writes to the process-global logger; the
	// daemon injects its structured logger instead.
	Logger *slog.Logger
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) (*Registry, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("sub: dimension required")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Registry{
		dim:     cfg.Dim,
		workers: cfg.Workers,
		slow:    cfg.SlowThreshold,
		logger:  logger,
		subs:    make(map[int64]*Subscription),
		classes: make(map[match.Weights]*class),
	}, nil
}

// Subscribe registers a standing query and returns its subscription. The
// target (when non-nil) is validated like a match.Query target; Track
// without a target registers an evolution-events-only subscription.
func (r *Registry) Subscribe(o Options) (*Subscription, error) {
	if o.Target == nil && !o.Track {
		return nil, fmt.Errorf("sub: subscription needs a target or Track")
	}
	w := match.EqualWeights()
	if o.Weights != nil {
		w = *o.Weights
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if o.Target != nil {
		if o.Target.NumCells() == 0 {
			return nil, fmt.Errorf("sub: empty target")
		}
		if o.Threshold < 0 || o.Threshold > 1 {
			return nil, fmt.Errorf("sub: threshold %g out of [0,1]", o.Threshold)
		}
		if o.Target.Dim != r.dim {
			return nil, fmt.Errorf("sub: target dimension %d != registry dimension %d", o.Target.Dim, r.dim)
		}
	}
	buffer := o.Buffer
	if buffer <= 0 {
		buffer = 16
	}
	s := &Subscription{
		reg:     r,
		weights: w,
		thresh:  o.Threshold,
		trackEv: o.Track,
		matchEv: o.Target != nil,
		ch:      make(chan Event, buffer),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if o.Target != nil {
		// The target is cloned so later caller mutations cannot skew the
		// class columns (the archiver makes the same promise for Put).
		s.target = o.Target.Clone()
		s.feat = s.target.Features().Vector()
	}

	r.mu.Lock()
	s.id = r.nextID
	r.nextID++
	r.subs[s.id] = s
	if s.trackEv {
		r.trackSubs++
	}
	if s.matchEv {
		c, ok := r.classes[w]
		if !ok {
			c = &class{w: w}
			r.classes[w] = c
		}
		c.add(s)
	}
	r.mu.Unlock()

	go s.pump()
	return s, nil
}

// Unsubscribe removes the subscription with the given id, closing its
// event channel. It reports whether the id was registered.
func (r *Registry) Unsubscribe(id int64) bool {
	r.mu.Lock()
	s, ok := r.subs[id]
	if !ok {
		r.mu.Unlock()
		return false
	}
	delete(r.subs, id)
	if s.trackEv {
		r.trackSubs--
	}
	if s.matchEv {
		c := r.classes[s.weights]
		c.remove(s, r.dim)
		if len(c.subs) == 0 {
			delete(r.classes, s.weights)
		}
	}
	r.mu.Unlock()
	s.close()
	return true
}

// Len returns the number of registered subscriptions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.subs)
}

// WantsTrack reports whether any registered subscription asked for
// evolution events — the engine gates its tracker on this.
func (r *Registry) WantsTrack() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.trackSubs > 0
}

// Stats returns a snapshot of registry activity.
func (r *Registry) Stats() Stats {
	r.mu.RLock()
	subs, trackSubs := len(r.subs), r.trackSubs
	r.mu.RUnlock()
	r.statsMu.Lock()
	st := r.stats
	r.statsMu.Unlock()
	st.Subscriptions = subs
	st.TrackSubscriptions = trackSubs
	return st
}

// pair is one (subscription, new entry) combination that survived the
// inverted probe and the exact cluster-feature gate.
type pair struct {
	s  *Subscription
	ei int
}

// Offer evaluates one window's newly archived entries against every
// registered subscription and delivers the resulting match events. It
// probes only the given entries — never the archive history — so its
// cost scales with the window's cluster count times the surviving
// candidate pairs, not with the archive size. Entries must be resolvable
// to summaries (LoadSummary); memory-tier entries always are.
//
// Offer calls are serialized; each call consumes one sequence number.
//
// Offer records its own flight-recorder trace (category SubEval); when
// the evaluation is already part of a larger window trace (the archive
// sink's), use OfferTraced instead.
func (r *Registry) Offer(entries []*archive.Entry) error {
	tr := trace.Default.Start(trace.SubEval, "sub.window")
	err := r.OfferTraced(entries, tr)
	if err != nil {
		tr.Root().SetStr("error", err.Error())
	}
	tr.Finish()
	return err
}

// OfferTraced is Offer recording probe/refine/deliver spans into tr
// (nil disables recording; the caller owns the trace's lifetime).
func (r *Registry) OfferTraced(entries []*archive.Entry, tr *trace.Trace) error {
	r.offerMu.Lock()
	defer r.offerMu.Unlock()
	start := time.Now()
	seq := r.seq
	r.seq++

	probeSpan := tr.Start("probe")
	var pairs []pair
	if len(entries) > 0 {
		r.mu.RLock()
		if len(r.classes) > 0 {
			pairs = r.probeLocked(entries)
		}
		r.mu.RUnlock()
	}
	probeDur := time.Since(start)
	probeSpan.SetInt("entries", int64(len(entries)))
	probeSpan.SetInt("candidates", int64(len(pairs)))
	probeSpan.End()

	// Refine: match.RefinePairs, the refine stage one-shot queries use,
	// fanned across the workers. Pairs were sorted by (subscription id,
	// entry index) after the probe, so outcome order — and therefore
	// delivery order — is independent of worker count. A pair the size
	// bound dismisses never loads its entry; the rest call LoadSummary.
	// The engine offers entries with their summaries in hand (Snapshot.Get
	// materializes a demoted one), so only a caller that offers
	// summary-free disk entries pays a decode, once per pair.
	refineSpan := tr.Start("refine")
	outs, rc, err := match.RefinePairs(r.workers, len(pairs), 0, func(i int) match.Pair {
		p := pairs[i]
		return match.Pair{Target: p.s.target, Weights: p.s.weights, Threshold: p.s.thresh, Entry: entries[p.ei]}
	})
	if err != nil {
		return err
	}
	pruned := uint64(rc.Pruned)
	refineDur := time.Since(start) - probeDur
	refineSpan.SetInt("pairs", int64(len(pairs)))
	refineSpan.SetInt("pruned", int64(pruned))
	refineSpan.SetInt("size_pruned", int64(rc.SizePruned))
	refineSpan.SetInt("disk_loads", int64(rc.DiskLoads))
	refineSpan.End()

	// Ordered delivery: pairs are grouped by subscription (the sort key's
	// major component), so one enqueue hands each subscription its whole
	// window atomically.
	deliverSpan := tr.Start("deliver")
	var delivered uint64
	for i := 0; i < len(pairs); {
		j := i
		var evs []Event
		for ; j < len(pairs) && pairs[j].s == pairs[i].s; j++ {
			if !outs[j].Within {
				continue
			}
			e := entries[pairs[j].ei]
			evs = append(evs, Event{
				Kind:     MatchEvent,
				SubID:    pairs[j].s.id,
				Seq:      seq,
				EntryID:  e.ID,
				Distance: outs[j].Distance,
				// The refine phase read the summary anyway; events carry
				// it materialized even for disk-resident entries.
				Entry: e.WithSummary(outs[j].Summary),
			})
		}
		pairs[i].s.enqueue(evs)
		delivered += uint64(len(evs))
		i = j
	}
	deliverSpan.SetInt("events", int64(delivered))
	deliverSpan.End()
	tr.Root().SetInt("seq", int64(seq))

	elapsed := time.Since(start)
	r.statsMu.Lock()
	r.stats.Windows++
	r.stats.Entries += uint64(len(entries))
	r.stats.Candidates += uint64(len(pairs))
	r.stats.Refined += uint64(len(pairs))
	r.stats.Pruned += pruned
	r.stats.Events += delivered
	r.stats.LastEval = elapsed
	r.stats.TotalEval += elapsed
	r.statsMu.Unlock()
	metricWindows.Inc()
	metricEntries.Add(uint64(len(entries)))
	metricEvents.Add(delivered)
	metricEvalSeconds.Observe(elapsed)
	if r.slow > 0 && elapsed >= r.slow {
		r.logger.Warn("slow window eval",
			"seq", seq, "took", elapsed, "threshold", r.slow,
			"probe", probeDur, "refine", refineDur,
			"deliver", elapsed-probeDur-refineDur,
			"entries", len(entries), "candidates", len(pairs),
			"pruned", pruned, "events", delivered, "trace", tr.ID().String())
	}
	return nil
}

// QueueDepth returns the number of events enqueued but not yet handed to
// a subscription channel, summed across all subscriptions — the standing
// backlog a monitoring gauge wants.
func (r *Registry) QueueDepth() int {
	r.mu.RLock()
	subs := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	r.mu.RUnlock()
	depth := 0
	for _, s := range subs {
		s.mu.Lock()
		depth += len(s.queue)
		s.mu.Unlock()
	}
	return depth
}

// probeLocked runs the inverted filter phase under the registry read
// lock: one task per (entry, class), each scanning the class's target
// columns for subscription candidates and applying the exact
// cluster-feature gate at each candidate's own threshold. The surviving
// pairs are returned sorted by (subscription id, entry index) — a
// deterministic order whatever the probe timing was.
func (r *Registry) probeLocked(entries []*archive.Entry) []pair {
	classes := make([]*class, 0, len(r.classes))
	for _, c := range r.classes {
		classes = append(classes, c)
	}
	tasks := len(entries) * len(classes)
	perTask := make([][]pair, tasks)
	par.ForEach(r.workers, tasks, func(k int) {
		ei, ci := k/len(classes), k%len(classes)
		e, c := entries[ei], classes[ci]
		ev := e.Features.Vector()
		var out []pair
		if c.w.PositionSensitive {
			// Position-sensitive: non-overlapping MBRs put the location
			// term at its 1.0 maximum, so the overlap probe is exact for
			// any threshold < 1 (the same bound match.Run relies on).
			w, empty := 2*r.dim, e.MBR.IsEmpty()
			for i, s := range c.subs {
				if empty || !geom.IntersectsFlat(c.mbr[i*w:(i+1)*w], e.MBR) {
					continue
				}
				if match.FeatureDistance(c.feat[i], ev, c.w) <= s.thresh {
					out = append(out, pair{s, ei})
				}
			}
		} else {
			// The relative feature distance is symmetric, so the range of
			// target vectors within the class bound of this entry is the
			// same inversion the one-shot filter uses for candidates.
			lo, hi := match.FeatureRanges(ev, c.w, c.maxThresh)
			for i, v := range c.feat {
				if v[0] < lo[0] || v[0] > hi[0] || v[1] < lo[1] || v[1] > hi[1] ||
					v[2] < lo[2] || v[2] > hi[2] || v[3] < lo[3] || v[3] > hi[3] {
					continue
				}
				if match.FeatureDistance(v, ev, c.w) <= c.subs[i].thresh {
					out = append(out, pair{c.subs[i], ei})
				}
			}
		}
		perTask[k] = out
	})
	var pairs []pair
	for _, part := range perTask {
		pairs = append(pairs, part...)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].s.id != pairs[j].s.id {
			return pairs[i].s.id < pairs[j].s.id
		}
		return pairs[i].ei < pairs[j].ei
	})
	return pairs
}

// OfferTrack delivers one window's evolution events to every Track
// subscription, tagged with the most recently offered window's sequence
// number. Call it after the window's Offer (the facade does); events
// arrive on each channel after that window's match events.
func (r *Registry) OfferTrack(events []track.Event) {
	if len(events) == 0 {
		return
	}
	r.offerMu.Lock()
	defer r.offerMu.Unlock()
	seq := r.seq // Offer already advanced past this window
	if seq > 0 {
		seq--
	}

	r.mu.RLock()
	targets := make([]*Subscription, 0, r.trackSubs)
	for _, s := range r.subs {
		if s.trackEv {
			targets = append(targets, s)
		}
	}
	r.mu.RUnlock()
	if len(targets) == 0 {
		return
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })

	var delivered uint64
	for _, s := range targets {
		evs := make([]Event, 0, len(events))
		for i := range events {
			evs = append(evs, Event{
				Kind:  EvolutionEvent,
				SubID: s.id,
				Seq:   seq,
				Track: &events[i],
			})
		}
		s.enqueue(evs)
		delivered += uint64(len(evs))
	}
	r.statsMu.Lock()
	r.stats.Events += delivered
	r.statsMu.Unlock()
	metricEvents.Add(delivered)
}

// Close cancels every subscription (closing their channels). The
// registry stays usable; Close is the bulk form of Unsubscribe for
// engine shutdown.
func (r *Registry) Close() {
	r.mu.Lock()
	subs := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	r.mu.Unlock()
	for _, s := range subs {
		r.Unsubscribe(s.id)
	}
}
