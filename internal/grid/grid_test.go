package grid

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"streamsum/internal/geom"
)

func mustGeo(t *testing.T, dim int, radius float64) *Geometry {
	t.Helper()
	g, err := NewGeometry(dim, radius)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGeometryValidation(t *testing.T) {
	if _, err := NewGeometry(0, 1); err == nil {
		t.Error("dim 0 should fail")
	}
	if _, err := NewGeometry(9, 1); err == nil {
		t.Error("dim > MaxDim should fail")
	}
	if _, err := NewGeometry(2, 0); err == nil {
		t.Error("radius 0 should fail")
	}
	if _, err := NewGeometryWithSide(2, 1, -1); err == nil {
		t.Error("negative side should fail")
	}
}

func TestDiagonalEqualsRadius(t *testing.T) {
	for dim := 1; dim <= MaxDim; dim++ {
		g := mustGeo(t, dim, 0.5)
		if math.Abs(g.Diagonal()-0.5) > 1e-12 {
			t.Errorf("dim %d: diagonal %g != radius 0.5", dim, g.Diagonal())
		}
		if !g.IntraCellNeighbors() {
			t.Errorf("dim %d: finest geometry must guarantee intra-cell neighborship", dim)
		}
	}
}

func TestCoordOfAndCellMBR(t *testing.T) {
	g := mustGeo(t, 2, math.Sqrt2) // side = 1
	cases := []struct {
		p    geom.Point
		want Coord
	}{
		{geom.Point{0.5, 0.5}, CoordOf(0, 0)},
		{geom.Point{1.0, 0.0}, CoordOf(1, 0)},
		{geom.Point{-0.1, -1.0}, CoordOf(-1, -1)},
		{geom.Point{3.999, 2.0}, CoordOf(3, 2)},
	}
	for _, c := range cases {
		if got := g.CoordOf(c.p); got != c.want {
			t.Errorf("CoordOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	mbr := g.CellMBR(CoordOf(2, -1))
	if !mbr.Min.Equal(geom.Point{2, -1}) || !mbr.Max.Equal(geom.Point{3, 0}) {
		t.Errorf("CellMBR = %v", mbr)
	}
	// Every point maps into the MBR of its own cell.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := geom.Point{rng.Float64()*20 - 10, rng.Float64()*20 - 10}
		if !g.CellMBR(g.CoordOf(p)).Contains(p) {
			t.Fatalf("point %v outside its cell MBR", p)
		}
	}
}

func TestCoordArithmetic(t *testing.T) {
	a := CoordOf(1, 2, 3)
	b := CoordOf(0, -1, 5)
	if got := a.Add(b); got != CoordOf(1, 1, 8) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != CoordOf(1, 3, -2) {
		t.Errorf("Sub = %v", got)
	}
	if got := len(CoordOf(4, 5).Slice()); got != 2 {
		t.Errorf("Slice len = %d", got)
	}
}

func TestNeighborOffsetsComplete(t *testing.T) {
	// Brute-force check of the test-local offset walk the block index is
	// checked against: for random point pairs within θr, the offset
	// between their cells must be among the neighbor offsets, and the two
	// cells must CanNeighbor.
	for _, dim := range []int{1, 2, 3, 4} {
		g := mustGeo(t, dim, 1.0)
		offsets := neighborOffsets(g)
		offs := make(map[Coord]bool, len(offsets))
		for _, o := range offsets {
			offs[o] = true
		}
		rng := rand.New(rand.NewSource(int64(dim)))
		for i := 0; i < 3000; i++ {
			p := make(geom.Point, dim)
			q := make(geom.Point, dim)
			for j := 0; j < dim; j++ {
				p[j] = rng.Float64()*10 - 5
				// Sample q near p so many pairs are within θr.
				q[j] = p[j] + (rng.Float64()*2-1)*1.2
			}
			if !geom.WithinDist(p, q, 1.0) {
				continue
			}
			off := g.CoordOf(q).Sub(g.CoordOf(p))
			if !offs[off] {
				t.Fatalf("dim %d: neighbor pair %v,%v in offset %v missing from the neighbor offsets", dim, p, q, off)
			}
			if !g.CanNeighbor(g.CoordOf(p), g.CoordOf(q)) {
				t.Fatalf("dim %d: neighbor pair %v,%v in cells that cannot neighbor", dim, p, q)
			}
		}
	}
}

func TestNeighborOffsetsMinimal(t *testing.T) {
	// Every offset reported must be geometrically reachable: its min
	// distance to the origin cell must be <= θr.
	for _, dim := range []int{1, 2, 3, 4, 5} {
		g := mustGeo(t, dim, 1.0)
		zero := CoordOf(make([]int32, dim)...)
		for _, o := range neighborOffsets(g) {
			if d := g.MinDistBetween(zero, o); d > 1.0+1e-9 {
				t.Errorf("dim %d: offset %v has min dist %g > θr", dim, o, d)
			}
		}
	}
}

func TestMinDistBetween(t *testing.T) {
	g := mustGeo(t, 2, math.Sqrt2) // side 1
	if d := g.MinDistBetween(CoordOf(0, 0), CoordOf(0, 0)); d != 0 {
		t.Errorf("same cell dist = %g", d)
	}
	if d := g.MinDistBetween(CoordOf(0, 0), CoordOf(1, 0)); d != 0 {
		t.Errorf("adjacent cells dist = %g", d)
	}
	if d := g.MinDistBetween(CoordOf(0, 0), CoordOf(2, 0)); math.Abs(d-1) > 1e-12 {
		t.Errorf("two-apart cells dist = %g, want 1", d)
	}
	if d := g.MinDistBetween(CoordOf(0, 0), CoordOf(2, 2)); math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("diagonal two-apart dist = %g, want sqrt2", d)
	}
}

func TestPointIndexRangeQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := mustGeo(t, 3, 0.7)
	ix := NewPointIndex(g)
	type rec struct {
		id int64
		p  geom.Point
	}
	var all []rec
	for i := 0; i < 500; i++ {
		p := geom.Point{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		ix.Insert(int64(i), p)
		all = append(all, rec{int64(i), p})
	}
	if ix.Len() != 500 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		got := ix.Neighbors(q, -1)
		var want []int64
		for _, r := range all {
			if geom.WithinDist(q, r.p, 0.7) {
				want = append(want, r.id)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("neighbor count %d != %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("neighbor sets differ at %d: %v vs %v", i, got, want)
			}
		}
	}
}

func TestPointIndexRemove(t *testing.T) {
	g := mustGeo(t, 2, 1)
	ix := NewPointIndex(g)
	p := geom.Point{1, 1}
	ix.Insert(1, p)
	ix.Insert(2, p)
	if !ix.Remove(1, p) {
		t.Fatal("Remove existing failed")
	}
	if ix.Remove(1, p) {
		t.Fatal("double Remove succeeded")
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after removal", ix.Len())
	}
	ids := ix.Neighbors(p, -1)
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("Neighbors = %v", ids)
	}
	if !ix.Remove(2, p) {
		t.Fatal("Remove second failed")
	}
	cellCount := 0
	ix.Cells(func(Coord, []Entry) bool { cellCount++; return true })
	if cellCount != 0 {
		t.Fatalf("empty cells not reclaimed: %d", cellCount)
	}
}

func TestCountNeighborsExcludesSelf(t *testing.T) {
	g := mustGeo(t, 2, 1)
	ix := NewPointIndex(g)
	ix.Insert(7, geom.Point{0, 0})
	ix.Insert(8, geom.Point{0.1, 0})
	if n := ix.CountNeighbors(geom.Point{0, 0}, 7); n != 1 {
		t.Fatalf("CountNeighbors = %d, want 1", n)
	}
	if n := ix.CountNeighbors(geom.Point{0, 0}, -1); n != 2 {
		t.Fatalf("CountNeighbors without self-exclusion = %d, want 2", n)
	}
}

func TestRangeQueryEarlyStop(t *testing.T) {
	g := mustGeo(t, 1, 1)
	ix := NewPointIndex(g)
	for i := 0; i < 10; i++ {
		ix.Insert(int64(i), geom.Point{0})
	}
	visits := 0
	ix.RangeQuery(geom.Point{0}, func(Entry) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("early stop visited %d entries", visits)
	}
}

// Property: points sharing a cell under the finest geometry are always
// within θr of each other (the guarantee behind Lemma 4.1).
func TestIntraCellNeighborProperty(t *testing.T) {
	g := mustGeo(t, 4, 1.0)
	f := func(a, b [4]float64, cell [4]int8) bool {
		// Map both points into the same cell.
		p := make(geom.Point, 4)
		q := make(geom.Point, 4)
		for i := 0; i < 4; i++ {
			base := float64(cell[i]) * g.Side()
			p[i] = base + frac(a[i])*g.Side()
			q[i] = base + frac(b[i])*g.Side()
		}
		if g.CoordOf(p) != g.CoordOf(q) {
			return true // fell on boundary; not the property under test
		}
		return geom.WithinDist(p, q, g.Radius()*(1+1e-9))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func frac(x float64) float64 {
	f := x - math.Floor(x)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0.5
	}
	return f
}
