package sgs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
)

// randomSummary builds a structurally valid random summary from a random
// clustered point set.
func randomSummary(t *testing.T, seed int64) *Summary {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	thetaR := 0.5
	geo, err := grid.NewGeometry(2, thetaR)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	for i := 0; i < 150; i++ {
		pts = append(pts, geom.Point{rng.NormFloat64() * 1.5, rng.NormFloat64() * 1.5})
	}
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	res, err := dbscan.Run(pts, ids, dbscan.Params{ThetaR: thetaR, ThetaC: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Skip("random data produced no cluster")
	}
	// Largest cluster.
	best := 0
	for i, c := range res.Clusters {
		if len(c.Members) > len(res.Clusters[best].Members) {
			best = i
		}
	}
	cl := res.Clusters[best]
	var cpts []geom.Point
	var isCore []bool
	for _, id := range cl.Members {
		cpts = append(cpts, pts[id])
		isCore = append(isCore, res.IsCore[id])
	}
	s, err := FromCluster(geo, cpts, isCore, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompressBasics(t *testing.T) {
	s := randomSummary(t, 11)
	c, err := s.Compress(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("compressed summary invalid: %v", err)
	}
	if c.Level != s.Level+1 {
		t.Errorf("Level = %d", c.Level)
	}
	if c.Side != s.Side*3 {
		t.Errorf("Side = %v, want %v", c.Side, s.Side*3)
	}
	// Population conservation (paper: population of a level-n cell is the
	// sum of covered level-(n-1) populations).
	if c.TotalPopulation() != s.TotalPopulation() {
		t.Errorf("population not conserved: %d -> %d", s.TotalPopulation(), c.TotalPopulation())
	}
	// Compression shrinks (or preserves) the cell count.
	if c.NumCells() > s.NumCells() {
		t.Errorf("cells grew: %d -> %d", s.NumCells(), c.NumCells())
	}
	// Core cells survive: each core cell of s maps to a core parent.
	for i := range s.Cells {
		if s.Cells[i].Status != CoreCell {
			continue
		}
		var p grid.Coord
		p.D = s.Cells[i].Coord.D
		for j := uint8(0); j < p.D; j++ {
			p.C[j] = int32(floorDiv(int64(s.Cells[i].Coord.C[j]), 3))
		}
		pc := c.Find(p)
		if pc == nil || pc.Status != CoreCell {
			t.Fatalf("core cell %v lost core status at parent %v", s.Cells[i].Coord, p)
		}
	}
	// Connectivity is preserved: still one component.
	if got := len(c.ConnectedComponents()); got != 1 {
		t.Errorf("compressed summary has %d components", got)
	}
}

func TestCompressRejectsBadTheta(t *testing.T) {
	s := randomSummary(t, 12)
	if _, err := s.Compress(1); err == nil {
		t.Error("theta=1 must fail")
	}
	if _, err := s.Compress(0); err == nil {
		t.Error("theta=0 must fail")
	}
}

func TestCompressToAndEstimate(t *testing.T) {
	s := randomSummary(t, 13)
	l2, err := s.CompressTo(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Level != 2 {
		t.Fatalf("Level = %d", l2.Level)
	}
	if err := l2.Validate(); err != nil {
		t.Fatal(err)
	}
	same, err := s.CompressTo(0, 2)
	if err != nil || same.NumCells() != s.NumCells() {
		t.Fatalf("CompressTo(0) should clone: %v", err)
	}
	if _, err := l2.CompressTo(1, 2); err == nil {
		t.Error("refining to a finer level must fail")
	}
	// EstimateCells predicts the exact next-level cell count (the §6.1
	// budget-aware space predictor).
	l1, err := s.Compress(4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.EstimateCells(4), l1.NumCells(); got != want {
		t.Fatalf("EstimateCells = %d, built = %d", got, want)
	}
	if got := s.EstimateCells(1); got != s.NumCells() {
		t.Fatalf("EstimateCells(theta<2) = %d", got)
	}
}

func TestCompressNegativeCoordinates(t *testing.T) {
	// floorDiv-based parenting must keep cells that straddle the origin in
	// distinct parents consistently.
	b := NewBuilder(1, 1.0)
	b.AddCell(grid.CoordOf(-3), 1, CoreCell)
	b.AddCell(grid.CoordOf(-2), 1, CoreCell)
	b.AddCell(grid.CoordOf(-1), 1, CoreCell)
	b.AddCell(grid.CoordOf(0), 1, CoreCell)
	b.AddCell(grid.CoordOf(1), 1, CoreCell)
	for i := -3; i < 1; i++ {
		if err := b.Connect(grid.CoordOf(int32(i)), grid.CoordOf(int32(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Build(0, 0)
	c, err := s.Compress(2)
	if err != nil {
		t.Fatal(err)
	}
	// Parents: -3,-2 -> -2 ; -1 -> -1 ; 0,1 -> 0.  Three cells, connected.
	if c.NumCells() != 3 {
		t.Fatalf("cells = %d, want 3 (%v)", c.NumCells(), c.Cells)
	}
	if got := len(c.ConnectedComponents()); got != 1 {
		t.Fatalf("components = %d", got)
	}
	if c.TotalPopulation() != 5 {
		t.Fatalf("population = %d", c.TotalPopulation())
	}
}

func TestCodecCompactness(t *testing.T) {
	// The paper reports ~23 bytes per 4-d skeletal grid cell; our delta
	// codec should stay in that ballpark (allow 2x headroom) and far below
	// the raw full representation.
	s := randomSummary(t, 31)
	perCell := float64(EncodedSize(s)-38) / float64(s.NumCells())
	if perCell > 46 {
		t.Errorf("per-cell encoding %0.1f bytes exceeds 2x the paper's figure", perCell)
	}
}

// Property: nearIndex is a bijection between the 3^d-1 near offsets and
// [0, 3^d-1), whose inverse nearOffset enumerates the nonzero offsets of
// {-1,0,1}^d in lexicographic order.
func TestNearIndexBijection(t *testing.T) {
	for dim := 1; dim <= grid.MaxDim; dim++ {
		var prev grid.Coord
		for ni := 0; ni < nearCount(dim); ni++ {
			off := nearOffset(dim, ni)
			if got := nearIndex(off); got != ni {
				t.Fatalf("dim %d: nearIndex(%v) = %d, want %d", dim, off, got, ni)
			}
			if ni > 0 && !CoordLess(prev, off) {
				t.Fatalf("dim %d: offset %v at %d not after %v", dim, off, ni, prev)
			}
			prev = off
		}
		var zero grid.Coord
		zero.D = uint8(dim)
		if nearIndex(zero) != -1 {
			t.Fatal("zero offset must not have an index")
		}
		far := grid.CoordOf(make([]int32, dim)...)
		far.C[0] = 2
		if nearIndex(far) != -1 {
			t.Fatal("far offset must not have a near index")
		}
	}
}

// Property: compressing any valid summary conserves population and yields
// a valid summary.
func TestCompressQuick(t *testing.T) {
	f := func(seed int64, rawTheta uint8) bool {
		theta := int(rawTheta%4) + 2
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(2, 1.0)
		// Random connected blob of core cells plus some fringe edges.
		coords := []grid.Coord{grid.CoordOf(0, 0)}
		b.AddCell(coords[0], uint32(rng.Intn(9))+1, CoreCell)
		for i := 0; i < 30; i++ {
			base := coords[rng.Intn(len(coords))]
			off := grid.CoordOf(int32(rng.Intn(3)-1), int32(rng.Intn(3)-1))
			if off == grid.CoordOf(0, 0) {
				continue
			}
			nc := base.Add(off)
			isNew := true
			for _, c := range coords {
				if c == nc {
					isNew = false
					break
				}
			}
			b.AddCell(nc, uint32(rng.Intn(9))+1, CoreCell)
			if isNew {
				coords = append(coords, nc)
			}
			if err := b.Connect(base, nc); err != nil {
				return false
			}
		}
		s := b.Build(0, 0)
		if s.Validate() != nil {
			return false
		}
		c, err := s.Compress(theta)
		if err != nil {
			return false
		}
		return c.Validate() == nil && c.TotalPopulation() == s.TotalPopulation()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
