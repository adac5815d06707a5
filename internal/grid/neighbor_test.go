package grid

import (
	"math/rand"
	"sync"
	"testing"

	"streamsum/internal/geom"
)

// TestCanNeighborMatchesOffsets checks CanNeighbor agrees exactly with
// NeighborOffsets membership over the full reach box (plus one ring
// beyond it, which must always be excluded).
func TestCanNeighborMatchesOffsets(t *testing.T) {
	for _, tc := range []struct {
		dim    int
		radius float64
		side   float64
	}{
		{2, 1.0, 1.0 / 1.4142135623730951},
		{3, 0.5, 0.5 / 1.7320508075688772},
		{4, 2.0, 0.7},
		{2, 1.0, 0.5}, // radius/side integral: exercises the reach boundary
	} {
		geo, err := NewGeometryWithSide(tc.dim, tc.radius, tc.side)
		if err != nil {
			t.Fatal(err)
		}
		inOffsets := make(map[Coord]bool)
		for _, off := range geo.NeighborOffsets() {
			inOffsets[off] = true
		}
		origin := CoordOf(make([]int32, tc.dim)...)
		reach := geo.Reach() + 1
		cur := make([]int32, tc.dim)
		var rec func(i int)
		rec = func(i int) {
			if i == tc.dim {
				off := CoordOf(cur...)
				got := geo.CanNeighbor(origin, origin.Add(off))
				if got != inOffsets[off] {
					t.Errorf("dim=%d side=%g: CanNeighbor(%v) = %v, offsets membership = %v",
						tc.dim, tc.side, off, got, inOffsets[off])
				}
				return
			}
			for v := -reach; v <= reach; v++ {
				cur[i] = v
				rec(i + 1)
			}
		}
		rec(0)
	}
}

// TestConcurrentReaders exercises the documented read-path contract: many
// goroutines running RangeQuery/Neighbors/CountNeighbors/Cells against a
// frozen index must be race-free (run with -race) and observe consistent
// results.
func TestConcurrentReaders(t *testing.T) {
	geo, err := NewGeometry(3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ix := NewPointIndex(geo)
	pts := make([]geom.Point, 3000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 6, rng.Float64() * 6, rng.Float64() * 6}
		ix.Insert(int64(i), pts[i])
	}

	want := make([]int, len(pts))
	for i, p := range pts {
		want[i] = ix.CountNeighbors(p, int64(i))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pts); i += 8 {
				if got := ix.CountNeighbors(pts[i], int64(i)); got != want[i] {
					t.Errorf("point %d: concurrent count %d != sequential %d", i, got, want[i])
					return
				}
			}
			cells := 0
			ix.Cells(func(Coord, []Entry) bool { cells++; return true })
			if cells == 0 {
				t.Error("no cells visited")
			}
		}(w)
	}
	wg.Wait()
}
