package streamsum

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/gen"
	"streamsum/internal/grid"
	"streamsum/internal/match"
	"streamsum/internal/sgs"
)

// TestTranslationByWholeCells is the whole-cell translation relation of
// the paper's definitions: translating every tuple by m cell sides, with
// inputs on a dyadic lattice and a dyadic cell side (dims 1 and 4, where
// √dim is exact), changes no window's clusters except that every summary
// shifts by m cells, and the position-insensitive distance from each
// original summary to its translate is exactly 0. Every coordinate,
// shift and quotient involved is exact in binary floating point, so the
// relation must hold bit for bit. The shift carries the data across the
// origin, where a cell index that truncates instead of flooring merges
// the cells on either side of zero.
func TestTranslationByWholeCells(t *testing.T) {
	for _, tc := range []struct {
		dim   int
		shift []int32 // cells per axis
	}{
		{dim: 1, shift: []int32{-23}},
		{dim: 4, shift: []int32{-13, 7, -21, -9}},
	} {
		rng := rand.New(rand.NewSource(int64(41 + tc.dim)))
		const thetaR = 1.0
		side := thetaR / math.Sqrt(float64(tc.dim))
		pts := latticeBlobs(rng, tc.dim, side)
		moved := make([]Point, len(pts))
		for i, p := range pts {
			q := make(Point, tc.dim)
			for d := range q {
				q[d] = p[d] + float64(tc.shift[d])*side
			}
			moved[i] = q
		}
		orig, shifted := translationWindows(t, tc.dim, thetaR, pts), translationWindows(t, tc.dim, thetaR, moved)
		if len(orig) != len(shifted) {
			t.Fatalf("dim %d: %d windows, translated %d", tc.dim, len(orig), len(shifted))
		}
		offset := grid.CoordOf(tc.shift...)
		clusters := 0
		for w := range orig {
			a, b := orig[w], shifted[w]
			if a.Window != b.Window || len(a.Clusters) != len(b.Clusters) {
				t.Fatalf("dim %d window %d: %d clusters, translated window %d has %d",
					tc.dim, a.Window, len(a.Clusters), b.Window, len(b.Clusters))
			}
			for i, ca := range a.Clusters {
				cb := b.Clusters[i]
				clusters++
				if ca.ID != cb.ID || !reflect.DeepEqual(ca.Members, cb.Members) || !reflect.DeepEqual(ca.Cores, cb.Cores) {
					t.Fatalf("dim %d window %d cluster %d: membership differs after translation", tc.dim, a.Window, i)
				}
				want := shiftSummary(ca.Summary, offset)
				if !reflect.DeepEqual(want, cb.Summary) {
					t.Fatalf("dim %d window %d cluster %d: translated summary is not the original shifted by %v",
						tc.dim, a.Window, i, offset)
				}
				if d, _ := match.Refine(ca.Summary, cb.Summary, match.EqualWeights(), match.DefaultAlignBudget, 1); d != 0 {
					t.Fatalf("dim %d window %d cluster %d: position-insensitive distance %v to the translate, want exactly 0",
						tc.dim, a.Window, i, d)
				}
			}
		}
		t.Logf("dim %d: %d windows, %d clusters", tc.dim, len(orig), clusters)
		if clusters < 10 {
			t.Fatalf("dim %d: only %d clusters across %d windows; the relation is barely exercised", tc.dim, clusters, len(orig))
		}
	}
}

// latticeBlobs draws blobs of points whose coordinates are multiples of
// side/4 in [0, 24·side) per axis (dim 4) or [0, 96·side) (dim 1): exact
// dyadic values when side is.
func latticeBlobs(rng *rand.Rand, dim int, side float64) []Point {
	step := side / 4
	spread := 80 // blob centres, in steps
	if dim == 1 {
		spread = 368
	}
	var pts []Point
	for len(pts) < 2400 {
		center := make([]int, dim)
		for d := range center {
			center[d] = 8 + rng.Intn(spread)
		}
		for range 40 {
			p := make(Point, dim)
			for d := range p {
				p[d] = float64(center[d]+rng.Intn(13)-6) * step
			}
			pts = append(pts, p)
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// translationWindows runs C-SGS over pts and returns every window,
// including the final partial one.
func translationWindows(t *testing.T, dim int, thetaR float64, pts []Point) []*WindowResult {
	t.Helper()
	eng, err := New(Options{Dim: dim, ThetaR: thetaR, ThetaC: 4, Win: 600, Slide: 200})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := eng.PushBatch(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	last, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(ws, last)
}

// shiftSummary returns a copy of s with every cell and connection moved
// by offset cells.
func shiftSummary(s *sgs.Summary, offset grid.Coord) *sgs.Summary {
	c := *s
	c.Cells = make([]sgs.Cell, len(s.Cells))
	for i, cell := range s.Cells {
		cell.Coord = cell.Coord.Add(offset)
		if cell.Conns != nil {
			conns := make([]grid.Coord, len(cell.Conns))
			for j, cn := range cell.Conns {
				conns[j] = cn.Add(offset)
			}
			cell.Conns = conns
		}
		c.Cells[i] = cell
	}
	return &c
}

// TestDuplicatedHistory is the duplicated-history relation: archiving
// every entry of a seeded GMTI history twice makes every hit of every
// query come back twice, at the same distance bits. The copies of one
// summary get consecutive ids, so in the (distance, id) order of a result
// they stand together where the hit stood: at Limit 0 the doubled base
// returns each hit of the single base twice in place, with twice the
// Stats, and at Limit 5 the first five of that, so that wherever a query
// has three hits or more the fifth place is a tie the top-k bound must
// break by id. The queries are position-insensitive, at thresholds where
// the profile stage, the vote and the search all decide pairs, on two
// workers.
func TestDuplicatedHistory(t *testing.T) {
	eng, err := New(Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 2000, Slide: 500, Archive: &ArchiveOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushBatch(gen.GMTI(gen.GMTIConfig{Seed: 33}, 20000).Points, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	var history []*Summary
	eng.PatternBase().All(func(e *ArchiveEntry) bool { history = append(history, e.Summary); return true })
	single, err := archive.New(archive.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	double, err := archive.New(archive.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range history {
		for _, b := range []*archive.Base{single, double, double} {
			if _, ok, err := b.Put(s); err != nil || !ok {
				t.Fatalf("put: archived %v, %v", ok, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	hits, tiesAtFive := 0, 0
	for qi := 0; qi < 24; qi++ {
		q := match.Query{Target: history[rng.Intn(len(history))], Threshold: []float64{0.1, 0.25, 0.4}[qi%3], Workers: 2}
		want, wantSt, err := match.Run(single.Snapshot(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := match.Run(double.Snapshot(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2*len(want) || gotSt.IndexCandidates != 2*wantSt.IndexCandidates ||
			gotSt.Refined != 2*wantSt.Refined || gotSt.Pruned != 2*wantSt.Pruned {
			t.Fatalf("query %d: %d hits %+v on the doubled history, %d hits %+v on the single",
				qi, len(got), gotSt, len(want), wantSt)
		}
		for i, m := range want {
			for c := range 2 {
				g := got[2*i+c]
				if g.ID != 2*m.ID+int64(c) || math.Float64bits(g.Distance) != math.Float64bits(m.Distance) {
					t.Fatalf("query %d: hit %d of the doubled history is (%d, %v), want copy %d of (%d, %v)",
						qi, 2*i+c, g.ID, g.Distance, c, m.ID, m.Distance)
				}
			}
		}
		q.Limit = 5
		top, _, err := match.Run(double.Snapshot(), q)
		if err != nil {
			t.Fatal(err)
		}
		wantTop := got[:min(5, len(got))]
		if len(top) != len(wantTop) {
			t.Fatalf("query %d: Limit 5 returns %d hits, want %d", qi, len(top), len(wantTop))
		}
		for i := range top {
			if top[i].ID != wantTop[i].ID || math.Float64bits(top[i].Distance) != math.Float64bits(wantTop[i].Distance) {
				t.Fatalf("query %d: Limit 5 hit %d is (%d, %v), want (%d, %v)",
					qi, i, top[i].ID, top[i].Distance, wantTop[i].ID, wantTop[i].Distance)
			}
		}
		hits += len(want)
		if len(want) >= 3 {
			tiesAtFive++
		}
	}
	t.Logf("%d summaries, %d hits on the single history, %d queries with a tie at the fifth place", len(history), hits, tiesAtFive)
	if hits < 20 || tiesAtFive < 3 {
		t.Fatal("the history gives too few hits to exercise the relation")
	}
}

// TestScalingByPowerOfTwo is the scaling relation: multiplying every
// coordinate and θr by 2^k, for k below and above 0, changes no window's
// clusters and no summary except its cell side, which scales by 2^k
// too; every query then returns the same hits at the same distance
// bits. A power-of-two factor commutes exactly with every rounding the
// pipeline does (cell index quotients, squared distances, the feature
// vector's density, the metric's ratios), so the relation holds bit for
// bit. Dims 1 and 4 keep the cell side θr/√dim exact.
func TestScalingByPowerOfTwo(t *testing.T) {
	ps := match.EqualWeights()
	ps.PositionSensitive = true
	for _, dim := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(17 + dim)))
		pts := make([]Point, 0, 2400)
		for len(pts) < cap(pts) {
			center := make(Point, dim)
			for d := range center {
				center[d] = 40 * rng.Float64()
			}
			for range 40 {
				p := make(Point, dim)
				for d := range p {
					p[d] = center[d] + rng.NormFloat64()
				}
				pts = append(pts, p)
			}
		}
		base, baseWins := scaledRun(t, dim, pts, 0)
		for _, k := range []int{-7, 5} {
			eng, wins := scaledRun(t, dim, pts, k)
			if len(wins) != len(baseWins) {
				t.Fatalf("dim %d k %d: %d windows, unscaled %d", dim, k, len(wins), len(baseWins))
			}
			clusters := 0
			for w := range baseWins {
				a, b := baseWins[w], wins[w]
				if a.Window != b.Window || len(a.Clusters) != len(b.Clusters) {
					t.Fatalf("dim %d k %d window %d: %d clusters, scaled window %d has %d",
						dim, k, a.Window, len(a.Clusters), b.Window, len(b.Clusters))
				}
				for i, ca := range a.Clusters {
					cb := b.Clusters[i]
					clusters++
					if ca.ID != cb.ID || !reflect.DeepEqual(ca.Members, cb.Members) || !reflect.DeepEqual(ca.Cores, cb.Cores) {
						t.Fatalf("dim %d k %d window %d cluster %d: membership differs after scaling", dim, k, a.Window, i)
					}
					if cb.Summary.Side != math.Ldexp(ca.Summary.Side, k) {
						t.Fatalf("dim %d k %d window %d cluster %d: side %v, want %v scaled by 2^%d",
							dim, k, a.Window, i, cb.Summary.Side, ca.Summary.Side, k)
					}
					want := *ca.Summary
					want.Side = cb.Summary.Side
					if !reflect.DeepEqual(&want, cb.Summary) {
						t.Fatalf("dim %d k %d window %d cluster %d: scaled summary differs beyond its side", dim, k, a.Window, i)
					}
				}
			}
			if clusters < 10 {
				t.Fatalf("dim %d: only %d clusters; the relation is barely exercised", dim, clusters)
			}
			hits := 0
			for qi := range 12 {
				id := int64(rng.Intn(base.PatternBase().Len()))
				opts := MatchOptions{Threshold: []float64{0.1, 0.3, 0.6}[qi%3]}
				if qi%2 == 1 {
					opts.Weights = &ps
				}
				opts.Target = base.PatternBase().Get(id).Summary
				want, _, err := base.Match(opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Target = eng.PatternBase().Get(id).Summary
				got, _, err := eng.Match(opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("dim %d k %d query %d: %d hits, unscaled %d", dim, k, qi, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
						t.Fatalf("dim %d k %d query %d hit %d: (%d, %v), unscaled (%d, %v)",
							dim, k, qi, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
					}
				}
				hits += len(got)
			}
			t.Logf("dim %d k %d: %d windows, %d clusters, %d hits", dim, k, len(wins), clusters, hits)
			if hits < 12 {
				t.Fatalf("dim %d k %d: only %d hits; the queries are barely exercised", dim, k, hits)
			}
		}
	}
}

// scaledRun runs C-SGS with archiving over pts with every coordinate and
// θr multiplied by 2^k, and returns the engine and every window,
// including the final partial one.
func scaledRun(t *testing.T, dim int, pts []Point, k int) (*Engine, []*WindowResult) {
	t.Helper()
	scaled := make([]Point, len(pts))
	for i, p := range pts {
		scaled[i] = make(Point, dim)
		for d, v := range p {
			scaled[i][d] = math.Ldexp(v, k)
		}
	}
	eng, err := New(Options{Dim: dim, ThetaR: math.Ldexp(1, k), ThetaC: 4, Win: 600, Slide: 200, Archive: &ArchiveOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := eng.PushBatch(scaled, nil)
	if err != nil {
		t.Fatal(err)
	}
	last, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return eng, append(ws, last)
}
