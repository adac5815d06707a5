package match

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
)

// topKSummary draws a valid summary: n cells in a box of the given
// extent at origin, connected by connectTopK.
func topKSummary(rng *rand.Rand, dim, n int, origin [grid.MaxDim]int32, extent int32) *sgs.Summary {
	cells := make([]sgs.Cell, n)
	for i := range cells {
		c := grid.Coord{D: uint8(dim)}
		for d := 0; d < dim; d++ {
			c.C[d] = origin[d] + rng.Int31n(extent)
		}
		cells[i] = sgs.Cell{Coord: c, Population: 1 + uint32(rng.Intn(12)), Status: sgs.Status(rng.Intn(2))}
	}
	return connectTopK(summaryOf(dim, 0.75, cells))
}

// topKVariant is a translated, perturbed copy of s: cells dropped, cells
// redrawn, cells added beside kept ones, each with probability noise.
func topKVariant(rng *rand.Rand, s *sgs.Summary, shift [grid.MaxDim]int32, noise float64) *sgs.Summary {
	var cells []sgs.Cell
	for _, c := range s.Cells {
		if rng.Float64() < noise {
			continue
		}
		c.Conns = nil
		for d := 0; d < s.Dim; d++ {
			c.Coord.C[d] += shift[d]
		}
		if rng.Float64() < noise {
			c.Population, c.Status = 1+uint32(rng.Intn(12)), sgs.Status(rng.Intn(2))
		}
		cells = append(cells, c)
		if rng.Float64() < noise {
			n := c
			n.Coord.C[rng.Intn(s.Dim)] += int32(rng.Intn(3) - 1)
			cells = append(cells, n)
		}
	}
	if len(cells) == 0 {
		cells = append(cells, sgs.Cell{Coord: s.Cells[0].Coord, Population: 1})
	}
	return connectTopK(summaryOf(s.Dim, s.Side, cells))
}

// connectTopK links each core cell to the adjacent cells (every axis
// within one) whose population sum is not a multiple of three: a rule
// symmetric between two core cells and invariant under translation, so
// the summary validates and a translated copy has the same connectivity.
func connectTopK(s *sgs.Summary) *sgs.Summary {
	for i := range s.Cells {
		a := &s.Cells[i]
		a.Conns = nil
		if a.Status != sgs.CoreCell {
			continue
		}
		for j := range s.Cells {
			b := &s.Cells[j]
			adjacent := i != j
			for d := 0; d < s.Dim && adjacent; d++ {
				adjacent = a.Coord.C[d]-b.Coord.C[d] <= 1 && b.Coord.C[d]-a.Coord.C[d] <= 1
			}
			if adjacent && (a.Population+b.Population)%3 != 0 {
				a.Conns = append(a.Conns, b.Coord) // s.Cells is sorted, so Conns is too
			}
		}
	}
	return s
}

// topKCorpus archives a generated corpus: families of translated, noisy
// variants of a few random shapes (so many pairs survive the exact bounds
// and the top-k bound has work to skip), and byte-identical copies of some
// members under distinct ids (so distances tie, at the k-th place too).
// A disk base gets a memory tier of a few hundred bytes, so nearly every
// entry is read back from a segment. It returns a snapshot taken once
// demotion has drained, and the archived summaries.
func topKCorpus(t testing.TB, rng *rand.Rand, disk bool) (*archive.Snapshot, []*sgs.Summary) {
	t.Helper()
	dim := 1 + rng.Intn(3)
	cfg := archive.Config{Dim: dim}
	if disk {
		cfg.StorePath, cfg.MaxMemBytes = t.TempDir(), 256
	}
	b, err := archive.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	var sums []*sgs.Summary
	put := func(s *sgs.Summary) {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatalf("put: archived %v, %v", ok, err)
		}
		sums = append(sums, s)
	}
	for f := 2 + rng.Intn(3); f > 0; f-- {
		var origin [grid.MaxDim]int32
		for d := 0; d < dim; d++ {
			origin[d] = rng.Int31n(200) - 100
		}
		shape := topKSummary(rng, dim, 2+rng.Intn(10), origin, 2+rng.Int31n(4))
		put(shape)
		for v := 2 + rng.Intn(6); v > 0; v-- {
			var shift [grid.MaxDim]int32
			for d := 0; d < dim; d++ {
				shift[d] = rng.Int31n(41) - 20
			}
			put(topKVariant(rng, shape, shift, 0.3*rng.Float64()))
			if rng.Intn(3) == 0 {
				put(sums[rng.Intn(len(sums))])
			}
		}
	}
	put(sums[rng.Intn(len(sums))]) // at least one copy in every corpus
	if err := b.DrainDemotions(); err != nil {
		t.Fatal(err)
	}
	return b.Snapshot(), sums
}

// checkTopK asserts that the running top-k bound changes nothing a query
// returns or counts: Run with Limit k returns the first k of Run with
// Limit 0 — same ids, same distance bits — and the same Stats, at
// Workers 1, 2 and 8. It then drives RefinePairs directly over the gate
// survivors in descending id order, so that of two tied pairs the one a
// top-k must keep (the smaller id) is refined second: no outcome of the
// bounded stage may differ from the unbounded one's except by a skip,
// and the k closest by (distance, id) must be the same. It reports the
// number of skipped searches and whether the full ranking ties at the
// k-th place.
func checkTopK(t testing.TB, snap *archive.Snapshot, q Query, k int) (skipped int, tieAtK bool) {
	t.Helper()
	q.Workers, q.Limit = 1, 0
	full, fullStats, err := Run(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	want := full[:min(k, len(full))]
	for _, workers := range []int{1, 2, 8} {
		q.Workers, q.Limit = workers, k
		got, st, err := Run(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		if st != fullStats {
			t.Fatalf("limit %d, workers %d: stats %+v, limit 0: %+v", k, workers, st, fullStats)
		}
		if !sameIDsAndDistances(got, want) {
			t.Fatalf("limit %d, workers %d, threshold %g:\n got %v\nwant %v", k, workers, q.Threshold, brief(got), brief(want))
		}
	}

	w := EqualWeights()
	if q.Weights != nil {
		w = *q.Weights
	}
	tf := q.Target.Features().Vector()
	var gated []*archive.Entry
	snap.All(func(e *archive.Entry) bool {
		if FeatureDistance(tf, e.Features.Vector(), w) <= q.Threshold {
			gated = append(gated, e)
		}
		return true
	})
	sort.Slice(gated, func(i, j int) bool { return gated[i].ID > gated[j].ID })
	pair := func(i int) Pair { return Pair{Target: q.Target, Weights: w, Threshold: q.Threshold, Entry: gated[i]} }
	ref, refCounts, err := RefinePairs(1, len(gated), 0, pair)
	if err != nil {
		t.Fatal(err)
	}
	bounded, counts, err := RefinePairs(1, len(gated), k, pair)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Pruned != refCounts.Pruned || counts.SizePruned != refCounts.SizePruned {
		t.Fatalf("bounded stage pruned %d (%d by size), unbounded %d (%d)", counts.Pruned, counts.SizePruned, refCounts.Pruned, refCounts.SizePruned)
	}
	top := func(outs []Outcome) []Match {
		var ms []Match
		for i, o := range outs {
			if o.Within {
				ms = append(ms, Match{ID: gated[i].ID, Distance: o.Distance})
			}
		}
		slices.SortFunc(ms, func(a, b Match) int {
			return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
		})
		return ms[:min(k, len(ms))]
	}
	for i := range bounded {
		if o, r := bounded[i], ref[i]; !o.skipped && (math.Float64bits(o.Distance) != math.Float64bits(r.Distance) || o.Within != r.Within) {
			t.Fatalf("pair %d (id %d): bounded outcome %v/%v, unbounded %v/%v", i, gated[i].ID, o.Distance, o.Within, r.Distance, r.Within)
		}
	}
	if got, want := top(bounded), top(ref); !sameIDsAndDistances(got, want) {
		t.Fatalf("descending ids, limit %d, threshold %g:\n got %v\nwant %v", k, q.Threshold, brief(got), brief(want))
	}
	tieAtK = len(full) > k && full[k-1].Distance == full[k].Distance
	return counts.TopKSkipped, tieAtK
}

func brief(ms []Match) [][2]float64 {
	out := make([][2]float64, len(ms))
	for i, m := range ms {
		out[i] = [2]float64{float64(m.ID), m.Distance}
	}
	return out
}

// topKQuery draws a query over the corpus: an archived summary or a fresh
// variant of one as target, a threshold from 1 down to where the exact
// bounds bite, and a limit from 1 to 8.
func topKQuery(rng *rand.Rand, sums []*sgs.Summary) (Query, int) {
	target := sums[rng.Intn(len(sums))]
	if rng.Intn(3) == 0 {
		target = topKVariant(rng, target, [grid.MaxDim]int32{}, 0.2)
	}
	thresholds := []float64{1, 0.8, 0.6, 0.45, 0.3}
	return Query{Target: target, Threshold: thresholds[rng.Intn(len(thresholds))]}, 1 + rng.Intn(8)
}

// TestRunTopKExact: on generated corpora in a RAM base and in a disk base,
// a query with a Limit returns exactly the head of the unlimited query's
// ranking, with identical Stats at every worker count (checkTopK). The
// bound must have skipped searches, and the rankings must have tied at
// the k-th place, or the test would not tell.
func TestRunTopKExact(t *testing.T) {
	skipped, ties, queries := 0, 0, 0
	for _, disk := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			snap, sums := topKCorpus(t, rng, disk)
			for i := 0; i < 25; i++ {
				q, k := topKQuery(rng, sums)
				s, tie := checkTopK(t, snap, q, k)
				skipped += s
				if tie {
					ties++
				}
				queries++
			}
		}
	}
	t.Logf("%d queries, %d searches skipped, %d ties at the k-th place", queries, skipped, ties)
	if skipped == 0 || ties == 0 {
		t.Fatalf("%d skipped searches, %d ties at the k-th place: the corpus does not exercise the bound", skipped, ties)
	}
}

// FuzzRunTopK is TestRunTopKExact on a corpus and query drawn from a
// fuzzed seed.
func FuzzRunTopK(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, disk bool) {
		rng := rand.New(rand.NewSource(seed))
		snap, sums := topKCorpus(t, rng, disk)
		for i := 0; i < 4; i++ {
			q, k := topKQuery(rng, sums)
			checkTopK(t, snap, q, k)
		}
	})
}

// TestKBoundOneSlotPerPair: a pair that offers again lowers its own entry
// and never takes a second slot.
func TestKBoundOneSlotPerPair(t *testing.T) {
	b := newKBound(2, 4)
	if got := b.offer(0, 0.5); !math.IsInf(got, 1) {
		t.Fatalf("one pair of two: %v, want +Inf", got)
	}
	if got := b.offer(0, 0.2); !math.IsInf(got, 1) {
		t.Fatalf("the same pair again: %v, want +Inf", got)
	}
	if got := b.offer(1, 0.4); got != 0.4 {
		t.Fatalf("two pairs: %v, want 0.4", got)
	}
	if got := b.offer(2, 0.3); got != 0.3 {
		t.Fatalf("a closer third pair: %v, want 0.3", got)
	}
	if got := b.offer(1, 0.1); got != 0.2 {
		t.Fatalf("an evicted pair coming back lower: %v, want 0.2", got)
	}
	if got := b.offer(3, 0.9); got != 0.2 {
		t.Fatalf("a farther pair: %v, want 0.2", got)
	}
}

// TestTopKSkippedObserved: the searches a query's bound skipped show in
// the refine span's topk_skipped attribute and in
// sgs_match_topk_skipped_total, and nowhere in Stats.
func TestTopKSkippedObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	snap, sums := topKCorpus(t, rng, false)
	seen := 0
	for i := 0; i < 40; i++ {
		q, k := topKQuery(rng, sums)
		q.Workers = 1
		_, full, err := Run(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		q.Limit = k
		before := metricTopKSkipped.Value()
		td, _, st := runTraced(t, snap, q)
		skipped := attr(t, td.Span("refine"), "topk_skipped")
		if delta := metricTopKSkipped.Value() - before; skipped != int64(delta) {
			t.Fatalf("topk_skipped %d, counter moved by %d", skipped, delta)
		}
		if st != full {
			t.Fatalf("stats with limit %d: %+v, without: %+v", k, st, full)
		}
		if skipped > 0 {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no query skipped a search")
	}
}
