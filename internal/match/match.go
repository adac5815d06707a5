package match

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"streamsum/internal/archive"
	"streamsum/internal/geom"
	"streamsum/internal/par"
	"streamsum/internal/sgs"
	"streamsum/internal/trace"
)

// Source is the read view a matching query executes against: a pinned
// *archive.Snapshot (one point-in-time view across the whole query) or an
// *archive.Base (which pins one snapshot per call).
type Source interface {
	// Dim is the dimensionality of the archived summaries; a query's
	// target must have it.
	Dim() int
	// FilterShards splits the source into disjoint filter shards.
	FilterShards() []archive.Shard
}

// DefaultAlignBudget is the alignment-search budget of every query's
// refine phase.
const DefaultAlignBudget = 64

// Weights configures the distance metric. The four feature weights must be
// non-negative and sum to 1.
type Weights struct {
	PositionSensitive bool
	Volume            float64
	Status            float64
	Density           float64
	Connectivity      float64
}

// EqualWeights gives every non-locational feature weight 0.25 (the setting
// used throughout the paper's experiments), position-insensitive.
func EqualWeights() Weights {
	return Weights{Volume: 0.25, Status: 0.25, Density: 0.25, Connectivity: 0.25}
}

// Validate checks the weight vector.
func (w Weights) Validate() error {
	for _, v := range []float64{w.Volume, w.Status, w.Density, w.Connectivity} {
		if v < 0 {
			return fmt.Errorf("match: negative weight %g", v)
		}
	}
	sum := w.Volume + w.Status + w.Density + w.Connectivity
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("match: weights sum to %g, want 1", sum)
	}
	return nil
}

// Query is one cluster matching query (Figure 3).
type Query struct {
	// Target is the to-be-matched cluster's SGS. Its resolution should
	// match the archive's (compress it first if needed).
	Target *sgs.Summary
	// Threshold is the maximum distance for a match (sim_threshold).
	Threshold float64
	// Weights configures the metric; zero value means EqualWeights.
	Weights *Weights
	// Limit, when positive, returns only the closest Limit matches
	// (top-k); the threshold still applies.
	Limit int
	// Workers bounds the refine phase's parallel fan-out across
	// candidates: <= 0 means one worker per available CPU, 1 forces the
	// fully sequential pipeline. Results are byte-identical at every
	// setting.
	Workers int
	// Trace, when non-nil, receives the query's span tree: filter /
	// refine / order phase spans with wall times, per-shard child spans
	// under filter (segment label, zone admission), and pruning
	// attribution (segment probe/skip counts, disk loads) as span
	// attributes. Run records into the trace but neither
	// finishes nor discards it — the caller owns its lifetime. Tracing
	// never changes the result; it lives outside Stats so the
	// deterministic statistics stay exactly comparable across runs.
	Trace *trace.Trace
}

// Match is one result of a matching query.
type Match struct {
	ID       int64
	Distance float64
	Entry    *archive.Entry
}

// Stats reports filter-and-refine effectiveness: how many filter shards
// were probed, how many candidates their range scans returned, how many
// survived the cluster-level gate and were handed to the grid-cell-level
// match (the paper reports ~6% reaching the grid level, §8.2), and how
// many of those Refine's exact stages (the M* vote bound, then the scan of
// the voted alignments) dismissed without an alignment search. Refined
// minus Pruned is at most the number of pairs searched: a query with a
// Limit also skips the searches its running top-k bound shows cannot
// reach the top k, which depends on scheduling and so is not counted
// here (see "Top-k bound" in the package comment).
type Stats struct {
	FilterShards    int
	IndexCandidates int
	Refined         int
	Pruned          int
}

// ErrBadQuery is matched (errors.Is) by every error Run returns
// because of the query itself — target, threshold, weights, dimension —
// rather than the source: a caller's mistake, not a server fault.
var ErrBadQuery = errors.New("match: bad query")

type badQueryError string

func (e badQueryError) Error() string        { return string(e) }
func (e badQueryError) Is(target error) bool { return target == ErrBadQuery }

func badQueryf(format string, args ...any) error {
	return badQueryError(fmt.Sprintf(format, args...))
}

// prepare validates the query — threshold, weights, and that the target
// is non-empty and of the source's dimensionality — before anything is
// probed: a location probe with a target of another dimensionality would
// index out of range.
func prepare(src Source, q Query) (Weights, error) {
	w := EqualWeights()
	if q.Weights != nil {
		w = *q.Weights
	}
	if t := q.Target; t == nil || t.NumCells() == 0 {
		return w, badQueryf("match: empty target")
	} else if t.Dim != src.Dim() {
		return w, badQueryf("match: target dimension %d != base dimension %d", t.Dim, src.Dim())
	}
	if q.Threshold < 0 || q.Threshold > 1 {
		return w, badQueryf("match: threshold %g out of [0,1]", q.Threshold)
	}
	if err := w.Validate(); err != nil {
		return w, badQueryError(err.Error())
	}
	return w, nil
}

// filterOne probes one shard for the query's candidates, applying the
// exact cluster-level gate inside the shard's scan (a disk shard rejects
// candidates straight off its columns, without materializing an Entry).
// It returns the gate survivors, the range-candidate count and the
// shard's zone decision.
func filterOne(sh archive.Shard, gate func([4]float64) bool, w Weights, targetMBR geom.MBR, lo, hi [4]float64) ([]*archive.Entry, int, archive.Zone) {
	var out []*archive.Entry
	visit := func(e *archive.Entry) bool {
		out = append(out, e)
		return true
	}
	if w.PositionSensitive {
		// Non-overlapping clusters have Dist_location = 1 ≥ any
		// threshold < 1, so the overlap probe is exact for the location
		// term.
		probed, zone := sh.GatedSearchLocation(targetMBR, gate, visit)
		return out, probed, zone
	}
	probed, zone := sh.GatedSearchFeatures(lo, hi, gate, visit)
	return out, probed, zone
}

// Run executes the query against src and returns matches sorted by
// ascending distance. Both the filter phase (one gated range scan per
// filter shard) and the refine phase (RefinePairs, one grid-cell-level
// match per candidate) fan out across Query.Workers goroutines; results
// are byte-identical at every worker count and every shard layout.
func Run(src Source, q Query) ([]Match, Stats, error) {
	var st Stats
	w, err := prepare(src, q)
	if err != nil {
		return nil, st, err
	}

	targetFeat := q.Target.Features().Vector()
	targetMBR := q.Target.MBR()
	lo, hi := FeatureRanges(targetFeat, w, q.Threshold)

	// --- Phase 1: filter — parallel gated range scans across shards ------
	// Shards are disjoint and independently searchable (the memory tier
	// plus one per disk segment); each task probes one shard into its own
	// slot, applying the exact cluster-level feature distance as a gate
	// during the probe (fused filter: on columnar disk shards the range
	// test and the gate run off one sequential scan, and only survivors
	// materialize an Entry). Survivors are then merged in id order so
	// every later phase is independent of the shard layout and probe
	// timing; the reported candidate counts are gate-independent.
	gate := func(v [4]float64) bool {
		return FeatureDistance(targetFeat, v, w) <= q.Threshold
	}
	metricQueries.Inc()
	tr := q.Trace
	filterSpan := tr.Start("filter")
	filterStart := time.Now()
	shards := src.FilterShards()
	st.FilterShards = len(shards)
	perShard := make([][]*archive.Entry, len(shards))
	probed := make([]int, len(shards))
	zones := make([]archive.Zone, len(shards))
	par.ForEach(q.Workers, len(shards), func(i int) {
		if tr == nil {
			perShard[i], probed[i], zones[i] = filterOne(shards[i], gate, w, targetMBR, lo, hi)
			return
		}
		sp := filterSpan.Child("shard")
		sp.SetStr("segment", shards[i].Label())
		perShard[i], probed[i], zones[i] = filterOne(shards[i], gate, w, targetMBR, lo, hi)
		if zones[i] != archive.NoZone {
			sp.SetBool("zone_skip", zones[i] == archive.ZoneSkipped)
		}
		sp.SetInt("candidates", int64(probed[i]))
		sp.SetInt("kept", int64(len(perShard[i])))
		sp.End()
	})
	var refine []*archive.Entry
	for i, part := range perShard {
		refine = append(refine, part...)
		st.IndexCandidates += probed[i]
	}
	sort.Slice(refine, func(i, j int) bool { return refine[i].ID < refine[j].ID })
	st.Refined = len(refine)
	filterDur := time.Since(filterStart)
	metricFilterSeconds.Observe(filterDur)
	metricCandidates.Add(uint64(st.IndexCandidates))
	metricRefined.Add(uint64(st.Refined))
	if tr != nil {
		segProbed, segSkipped := 0, 0
		for _, z := range zones {
			switch z {
			case archive.ZoneAdmitted:
				segProbed++
			case archive.ZoneSkipped:
				segSkipped++
			}
		}
		filterSpan.SetInt("segments_probed", int64(segProbed))
		filterSpan.SetInt("segments_skipped", int64(segSkipped))
	}
	filterSpan.SetInt("shards", int64(st.FilterShards))
	filterSpan.SetInt("candidates", int64(st.IndexCandidates))
	filterSpan.End()

	// --- Phase 2: refine — parallel grid-cell-level cluster match ---------
	refineSpan := tr.Start("refine")
	refineStart := time.Now()
	limit := q.Limit
	if w.PositionSensitive {
		limit = 0 // one evaluation per pair: no search to skip
	}
	outs, rc, err := RefinePairs(q.Workers, len(refine), limit, func(i int) Pair {
		return Pair{Target: q.Target, Weights: w, Threshold: q.Threshold, Entry: refine[i]}
	})
	if err != nil {
		return nil, st, err
	}
	st.Pruned = rc.Pruned
	metricRefineSeconds.Observe(time.Since(refineStart))
	if tr != nil {
		refineSpan.SetInt("refined", int64(st.Refined))
		refineSpan.SetInt("pruned", int64(st.Pruned))
		refineSpan.SetInt("size_pruned", int64(rc.SizePruned))
		refineSpan.SetInt("disk_loads", int64(rc.DiskLoads))
		refineSpan.SetInt("topk_skipped", int64(rc.TopKSkipped))
	}
	refineSpan.End()

	// --- Phase 3: order — threshold, sort, top-k --------------------------
	orderSpan := tr.Start("order")
	orderStart := time.Now()
	var matches []Match
	for i, e := range refine {
		if outs[i].Within {
			// Results carry materialized summaries even for disk-resident
			// candidates (the refine phase read them anyway).
			matches = append(matches, Match{ID: e.ID, Distance: outs[i].Distance, Entry: e.WithSummary(outs[i].Summary)})
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Distance != matches[j].Distance {
			return matches[i].Distance < matches[j].Distance
		}
		return matches[i].ID < matches[j].ID
	})
	if q.Limit > 0 && len(matches) > q.Limit {
		matches = matches[:q.Limit]
	}
	metricOrderSeconds.Observe(time.Since(orderStart))
	orderSpan.SetInt("matches", int64(len(matches)))
	orderSpan.End()
	return matches, st, nil
}

// Pair is one (target, archived entry) combination for the refine stage.
type Pair struct {
	Target    *sgs.Summary
	Weights   Weights
	Threshold float64
	Entry     *archive.Entry
}

// Outcome is one pair's refine result: Refine's distance and verdict, and
// the entry's summary. A pair an exact bound dismissed, or the top-k bound
// skipped, has Distance +Inf; Summary is nil when the size bound dismissed
// it before any load.
type Outcome struct {
	Distance float64
	Within   bool
	Summary  *sgs.Summary
	decoded  bool // a disk-resident summary decoded from its segment
	skipped  bool // the top-k bound showed it cannot reach the top k
}

// RefineCounts attributes one refine stage's pairs.
type RefineCounts struct {
	Pruned      int // dismissed by an exact bound at the threshold without a search
	SizePruned  int // of Pruned, dismissed by the size bound before any load
	DiskLoads   int // disk-resident summaries decoded from their segment
	TopKSkipped int // not Pruned, but shown by the top-k bound to miss the top k; depends on scheduling
}

// RefinePairs is the refine stage of every read path — one-shot queries
// (Run) and standing queries (internal/sub). Each of the n pairs, fanned
// out across workers, meets Refine's O(1) size bound first, which needs
// only the entry's cell count (its volume feature), so a pair it
// dismisses never loads a disk-resident summary; then the summary is
// loaded (a disk-resident one decodes from its segment) and refined.
// Outcomes are in pair order and identical at every worker count. The
// first load error, in pair order, fails the stage.
//
// A limit k in (0, n) says the caller keeps only the k closest pairs
// within the threshold, and gives the stage a running top-k bound: a
// position-insensitive pair whose distance is shown to exceed that of k
// other pairs, so that it is not among the k closest under any
// tie-break, skips its search. Its outcome is then not Within; every
// other outcome is exactly the unbounded stage's. Standing queries and
// queries without a limit pass 0.
func RefinePairs(workers, n, limit int, pair func(i int) Pair) ([]Outcome, RefineCounts, error) {
	var rc RefineCounts
	outs := make([]Outcome, n)
	errs := make([]error, n)
	var kb *kBound
	if limit > 0 && limit < n {
		kb = newKBound(limit, n)
	}
	par.ForEach(workers, n, func(i int) {
		p, o := pair(i), &outs[i]
		na, nb := len(p.Target.Cells), int(p.Entry.Features.Volume)
		if !p.Weights.PositionSensitive && p.Threshold < 1 && na > 0 && nb > 0 &&
			distanceFloor(na, nb, min(na, nb)) > p.Threshold {
			metricPruned.Inc()
			o.Distance = math.Inf(1)
			return
		}
		sum, err := p.Entry.LoadSummary()
		if err != nil {
			errs[i] = err
			return
		}
		o.Summary, o.decoded = sum, p.Entry.Summary == nil
		o.Distance, o.skipped = refineBounded(p.Target, sum, p.Weights, DefaultAlignBudget, p.Threshold, kb, i)
		o.Within = o.Distance <= p.Threshold
	})
	for _, err := range errs {
		if err != nil {
			return nil, rc, err
		}
	}
	for _, o := range outs {
		switch {
		case o.Summary == nil:
			rc.SizePruned++
		case o.decoded:
			rc.DiskLoads++
		}
		switch {
		case o.skipped:
			rc.TopKSkipped++
		case math.IsInf(o.Distance, 1):
			rc.Pruned++
		}
	}
	metricTopKSkipped.Add(uint64(rc.TopKSkipped))
	return outs, rc, nil
}

// FeatureDistance is the cluster-level metric Σ wi·di with
// di = |x−f|/min(x,f) clamped to [0,1] (the location term is handled by
// the caller's MBR overlap test). Each product is rounded on its own (no
// fused multiply-add), so distances are bit-identical on every GOARCH.
func FeatureDistance(a, b [4]float64, w Weights) float64 {
	ws := [4]float64{w.Volume, w.Status, w.Density, w.Connectivity}
	var sum float64
	for d := 0; d < 4; d++ {
		sum += float64(ws[d] * relDist(a[d], b[d]))
	}
	return sum
}

// relDist is the paper's relative feature distance: |x−f| / min(x,f),
// clamped to [0,1]. Zero features match only themselves.
func relDist(x, f float64) float64 {
	if x == f {
		return 0
	}
	m := math.Min(x, f)
	if m <= 0 {
		return 1
	}
	d := math.Abs(x-f) / m
	if d > 1 {
		return 1
	}
	return d
}

// FeatureRanges inverts the metric: the candidate search range per feature
// dimension such that any cluster outside it necessarily exceeds the
// threshold (the §7.2 example: volume 20, weight 0.4, threshold 0.2 →
// range [14, 30]). A zero-weight dimension is unbounded.
func FeatureRanges(f [4]float64, w Weights, threshold float64) (lo, hi [4]float64) {
	ws := [4]float64{w.Volume, w.Status, w.Density, w.Connectivity}
	for d := 0; d < 4; d++ {
		if ws[d] == 0 {
			lo[d], hi[d] = 0, math.Inf(1)
			continue
		}
		bound := threshold / ws[d]
		if bound >= 1 {
			// A full-range mismatch on this feature alone cannot be
			// excluded; the dimension is effectively unbounded.
			lo[d], hi[d] = 0, math.Inf(1)
			continue
		}
		lo[d] = f[d] / (1 + bound)
		hi[d] = f[d] * (1 + bound)
	}
	return lo, hi
}
