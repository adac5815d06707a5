package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"streamsum"
	"streamsum/internal/match"
)

// rngFor derives an independent generator for one use ("targets", "mix",
// ...) from the run's seed, so that changing how one input is drawn leaves
// the others as they were.
func rngFor(seed int64, use string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(use))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// positionSensitive is the metric of the 20% of queries that also compare
// location.
var positionSensitive = func() *streamsum.Weights {
	w := streamsum.EqualWeights()
	w.PositionSensitive = true
	return &w
}()

// A query is one planned matching query. archivedID is the archive id of
// its target, or -1 when the target was never archived (held out).
type query struct {
	opts       streamsum.MatchOptions
	archivedID int64
}

// queryPlan draws the analyst's queries: sensitiveShare of them also compare
// location; heldOutShare of the targets are summaries the base never saw,
// the rest are drawn uniformly from a fixed set of archived ones. Each
// query's threshold is set for a fixed selectivity (thresholdFor).
type queryPlan struct {
	w        *workload
	rng      *rand.Rand
	archived []*streamsum.ArchiveEntry
	heldOut  []*streamsum.Summary
	history  [][4]float64 // cluster features of every summary archived when the plan was made
}

// newQueryPlan pins the target sets. The archived targets are drawn from
// the base as it stands now; heldOut may be empty.
func newQueryPlan(w *workload, seed int64, base *streamsum.PatternBase, heldOut []*streamsum.Summary) (*queryPlan, error) {
	archived, err := archivedSample(base, rngFor(seed, "targets"), w.archivedTargets)
	if err != nil {
		return nil, err
	}
	p := &queryPlan{w: w, rng: rngFor(seed, "queries"), archived: archived, heldOut: heldOut}
	base.Snapshot().All(func(e *streamsum.ArchiveEntry) bool {
		p.history = append(p.history, e.Features.Vector())
		return true
	})
	return p, nil
}

// thresholdFor is the distance threshold at which the workload's
// querySelectivity of the planned-over history passes the cluster-feature
// gate for this target and so reaches the refine kernel. How many clusters
// lie within a fixed distance of a target is a property of the stream a seed
// drew (it moved the time of a query by +-20% from seed to seed); asking
// every query for the same share of the history keeps the work per query
// the same on every seed, the way database benchmarks fix a query's
// selectivity, not its constants.
func (p *queryPlan) thresholdFor(target *streamsum.Summary, w streamsum.Weights) float64 {
	f := target.Features().Vector()
	d := make([]float64, len(p.history))
	for i, h := range p.history {
		d[i] = match.FeatureDistance(f, h, w)
	}
	sort.Float64s(d)
	k := int(math.Ceil(p.w.querySelectivity * float64(len(d))))
	return d[min(max(k, 1), len(d))-1]
}

func (p *queryPlan) next() query {
	q := query{opts: streamsum.MatchOptions{Limit: queryLimit}, archivedID: -1}
	w := streamsum.EqualWeights()
	if p.rng.Float64() < sensitiveShare {
		q.opts.Weights = positionSensitive
		w = *positionSensitive
	}
	switch {
	case len(p.heldOut) > 0 && p.rng.Float64() < p.w.heldOutShare:
		q.opts.Target = p.heldOut[p.rng.Intn(len(p.heldOut))]
	default:
		e := p.archived[p.rng.Intn(len(p.archived))]
		q.opts.Target, q.archivedID = e.Summary, e.ID
	}
	q.opts.Threshold = p.thresholdFor(q.opts.Target, w)
	return q
}
