package streamsum

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

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
