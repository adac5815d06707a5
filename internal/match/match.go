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

// Source is the read view a matching query executes against. Both
// *archive.Base (every index probe pins a fresh snapshot) and
// *archive.Snapshot (one point-in-time view across the whole query)
// satisfy it; pass a snapshot when the query must not observe concurrent
// archiving.
type Source interface {
	// Dim is the dimensionality of the archived summaries; a query's
	// target must have it.
	Dim() int
	SearchLocation(q geom.MBR, visit func(*archive.Entry) bool)
	SearchFeatures(lo, hi [4]float64, visit func(*archive.Entry) bool)
}

// ShardedSource is a Source that can split itself into independently
// searchable filter shards (archive.Snapshot: the memory tier plus one
// shard per disk segment). When a source implements it, the filter
// phase probes the shards in parallel across Query.Workers instead of
// sequentially — shards are disjoint, so the candidate set (and
// therefore the result) is identical either way.
type ShardedSource interface {
	FilterShards() []archive.Searcher
}

// DefaultAlignBudget is the alignment-search budget used when
// Query.AlignBudget is unset.
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
	// AlignBudget bounds the number of alignments evaluated by the anytime
	// search in the position-insensitive refine phase (default 64).
	AlignBudget int
	// Workers bounds the refine phase's parallel fan-out across
	// candidates: <= 0 means one worker per available CPU, 1 forces the
	// fully sequential pipeline. Results are byte-identical at every
	// setting.
	Workers int
	// Trace, when non-nil, receives the query's span tree: filter /
	// refine / order phase spans with wall times, per-shard child spans
	// under filter (segment label, format, zone admission), and pruning
	// attribution (segment probe/skip counts, cache hits vs disk loads)
	// as span attributes. Run records into the trace but neither
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
// were probed, how many candidates the indexes returned, how many
// survived the cluster-level gate and were handed to the grid-cell-level
// match (the paper reports ~6% reaching the grid level, §8.2), and how
// many of those an exact bound dismissed without an alignment search.
type Stats struct {
	FilterShards    int
	IndexCandidates int
	Refined         int
	Pruned          int
}

// ErrBadQuery is matched (errors.Is) by every error Run and Any return
// because of the query itself — target, threshold, weights, dimension —
// rather than the source: a caller's mistake, not a server fault.
var ErrBadQuery = errors.New("match: bad query")

type badQueryError string

func (e badQueryError) Error() string        { return string(e) }
func (e badQueryError) Is(target error) bool { return target == ErrBadQuery }

func badQueryf(format string, args ...any) error {
	return badQueryError(fmt.Sprintf(format, args...))
}

// prepare validates what Run and Any share — threshold, weights, budget,
// and that every target is non-empty and of the source's dimensionality —
// before anything is probed: a location probe with a target of another
// dimensionality would index out of range.
func prepare(src Source, q Query, targets ...*sgs.Summary) (Weights, int, error) {
	w := EqualWeights()
	if q.Weights != nil {
		w = *q.Weights
	}
	for _, t := range targets {
		if t == nil || t.NumCells() == 0 {
			return w, 0, badQueryf("match: empty target")
		}
		if t.Dim != src.Dim() {
			return w, 0, badQueryf("match: target dimension %d != base dimension %d", t.Dim, src.Dim())
		}
	}
	if q.Threshold < 0 || q.Threshold > 1 {
		return w, 0, badQueryf("match: threshold %g out of [0,1]", q.Threshold)
	}
	if err := w.Validate(); err != nil {
		return w, 0, badQueryError(err.Error())
	}
	budget := q.AlignBudget
	if budget <= 0 {
		budget = DefaultAlignBudget
	}
	return w, budget, nil
}

// filterShards resolves the source into its filter shards: one per tier
// segment for a ShardedSource, the source itself otherwise.
func filterShards(src Source) []archive.Searcher {
	if ss, ok := src.(ShardedSource); ok {
		if shards := ss.FilterShards(); len(shards) > 0 {
			return shards
		}
	}
	return []archive.Searcher{src}
}

// filterOne probes one shard for the query's candidates, applying the
// exact cluster-level gate during the probe, and returns the gate
// survivors plus the raw index-candidate count. Shards that implement
// archive.GatedSearcher (snapshot tiers) run the gate below the index —
// a disk shard's columnar scan rejects candidates without materializing
// an Entry; other shards get the same gate applied around a plain probe.
func filterOne(sh archive.Searcher, gate func([4]float64) bool, w Weights, targetMBR geom.MBR, lo, hi [4]float64) ([]*archive.Entry, int) {
	var out []*archive.Entry
	visit := func(e *archive.Entry) bool {
		out = append(out, e)
		return true
	}
	if gs, ok := sh.(archive.GatedSearcher); ok {
		var probed int
		if w.PositionSensitive {
			// Non-overlapping clusters have Dist_location = 1 ≥ any
			// threshold < 1, so the overlap probe is exact for the
			// location term.
			probed = gs.GatedSearchLocation(targetMBR, gate, visit)
		} else {
			probed = gs.GatedSearchFeatures(lo, hi, gate, visit)
		}
		return out, probed
	}
	probed := 0
	outer := func(e *archive.Entry) bool {
		probed++
		if gate(e.Features.Vector()) {
			out = append(out, e)
		}
		return true
	}
	if w.PositionSensitive {
		sh.SearchLocation(targetMBR, outer)
	} else {
		sh.SearchFeatures(lo, hi, outer)
	}
	return out, probed
}

// Run executes the query against src and returns matches sorted by
// ascending distance. Both the filter phase (one index probe per shard
// of a ShardedSource) and the refine phase (one grid-cell-level match
// per candidate) fan out across Query.Workers goroutines; results are
// byte-identical at every worker count and every shard layout.
func Run(src Source, q Query) ([]Match, Stats, error) {
	var st Stats
	w, budget, err := prepare(src, q, q.Target)
	if err != nil {
		return nil, st, err
	}

	targetFeat := q.Target.Features().Vector()
	targetMBR := q.Target.MBR()
	lo, hi := FeatureRanges(targetFeat, w, q.Threshold)

	// --- Phase 1: filter — parallel gated index probes across shards ------
	// Shards are disjoint and independently searchable (the memory tier
	// plus one per disk segment); each task probes one shard into its own
	// slot, applying the exact cluster-level feature distance as a gate
	// during the probe (fused filter: on columnar disk shards the range
	// test and the gate run off one sequential scan, and only survivors
	// materialize an Entry). Survivors are then merged in id order so
	// every later phase is independent of the shard layout and probe
	// timing; the reported candidate counts are gate-independent, so the
	// fused path's statistics equal the probe-then-gate path's.
	gate := func(v [4]float64) bool {
		return FeatureDistance(targetFeat, v, w) <= q.Threshold
	}
	metricQueries.Inc()
	tr := q.Trace
	filterSpan := tr.Start("filter")
	filterStart := time.Now()
	shards := filterShards(src)
	st.FilterShards = len(shards)
	// Zone admission per shard (-1 no zone, 0 skipped, 1 probed), only
	// resolved when tracing: these re-run the zone tests the disk shards'
	// own searches apply, so the trace can say which segments the query
	// actually scanned. The checks are probe-free and do not change what
	// filterOne does.
	var zone []int8
	if tr != nil {
		zone = make([]int8, len(shards))
		segProbed, segSkipped := 0, 0
		for i, sh := range shards {
			zone[i] = -1
			zs, ok := sh.(archive.ZoneSearcher)
			if !ok {
				continue
			}
			admitted := zs.ZoneIntersectsFeatures(lo, hi)
			if w.PositionSensitive {
				admitted = zs.ZoneIntersectsLocation(targetMBR)
			}
			if admitted {
				zone[i] = 1
				segProbed++
			} else {
				zone[i] = 0
				segSkipped++
			}
		}
		filterSpan.SetInt("segments_probed", int64(segProbed))
		filterSpan.SetInt("segments_skipped", int64(segSkipped))
	}
	perShard := make([][]*archive.Entry, len(shards))
	probed := make([]int, len(shards))
	par.ForEach(q.Workers, len(shards), func(i int) {
		if tr == nil {
			perShard[i], probed[i] = filterOne(shards[i], gate, w, targetMBR, lo, hi)
			return
		}
		sp := filterSpan.Child("shard")
		if si, ok := shards[i].(archive.ShardInfo); ok {
			sp.SetStr("segment", si.ShardInfo())
		}
		if zone[i] >= 0 {
			sp.SetBool("zone_skip", zone[i] == 0)
		}
		perShard[i], probed[i] = filterOne(shards[i], gate, w, targetMBR, lo, hi)
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
	filterSpan.SetInt("shards", int64(st.FilterShards))
	filterSpan.SetInt("candidates", int64(st.IndexCandidates))
	filterSpan.End()

	// --- Phase 2: refine — parallel grid-cell-level cluster match ---------
	// Candidates are independent: each worker reads the shared immutable
	// summaries (loading disk-resident ones lazily) and writes only its
	// own slots.
	refineSpan := tr.Start("refine")
	refineStart := time.Now()
	dists := make([]float64, len(refine))
	within := make([]bool, len(refine))
	sums := make([]*sgs.Summary, len(refine))
	errs := make([]error, len(refine))
	hits := make([]bool, len(refine))
	par.ForEach(q.Workers, len(refine), func(i int) {
		sum, hit, err := refine[i].LoadSummaryTracked()
		if err != nil {
			errs[i] = err
			return
		}
		sums[i] = sum
		hits[i] = hit
		dists[i], within[i] = Refine(q.Target, sum, w, budget, q.Threshold)
	})
	for _, err := range errs {
		if err != nil {
			return nil, st, err
		}
	}
	for _, d := range dists {
		if math.IsInf(d, 1) {
			st.Pruned++
		}
	}
	refineDur := time.Since(refineStart)
	metricRefineSeconds.Observe(refineDur)
	if tr != nil {
		cacheHits, diskLoads := 0, 0
		for i, e := range refine {
			if e.Summary != nil {
				continue // memory tier: no load happened
			}
			if hits[i] {
				cacheHits++
			} else {
				diskLoads++
			}
		}
		refineSpan.SetInt("refined", int64(st.Refined))
		refineSpan.SetInt("pruned", int64(st.Pruned))
		refineSpan.SetInt("cache_hits", int64(cacheHits))
		refineSpan.SetInt("disk_loads", int64(diskLoads))
	}
	refineSpan.End()

	// --- Phase 3: order — threshold, sort, top-k --------------------------
	orderSpan := tr.Start("order")
	orderStart := time.Now()
	var matches []Match
	for i, e := range refine {
		if within[i] {
			// Results carry materialized summaries even for disk-resident
			// candidates (the refine phase read them anyway).
			matches = append(matches, Match{ID: e.ID, Distance: dists[i], Entry: e.WithSummary(sums[i])})
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
	orderDur := time.Since(orderStart)
	metricOrderSeconds.Observe(orderDur)
	orderSpan.SetInt("matches", int64(len(matches)))
	orderSpan.End()
	return matches, st, nil
}

// FeatureDistance is the cluster-level metric Σ wi·di with
// di = |x−f|/min(x,f) clamped to [0,1] (the location term is handled by
// the caller's index probe). Each product is rounded on its own (no
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
