package sgs

import (
	"math"
	"math/rand"
	"testing"

	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
)

// buildSimple returns a small hand-built valid summary:
//
//	core(0,0) — core(1,0) — edge(2,0)
func buildSimple(t *testing.T) *Summary {
	t.Helper()
	b := NewBuilder(2, 1.0)
	b.AddCell(grid.CoordOf(0, 0), 5, CoreCell)
	b.AddCell(grid.CoordOf(1, 0), 4, CoreCell)
	b.AddCell(grid.CoordOf(2, 0), 2, EdgeCell)
	if err := b.Connect(grid.CoordOf(0, 0), grid.CoordOf(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(grid.CoordOf(1, 0), grid.CoordOf(2, 0)); err != nil {
		t.Fatal(err)
	}
	s := b.Build(7, 42)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuilderAndBasicAccessors(t *testing.T) {
	s := buildSimple(t)
	if s.NumCells() != 3 || s.NumCoreCells() != 2 || s.TotalPopulation() != 11 {
		t.Fatalf("accessors wrong: %v", s)
	}
	if s.ID != 7 || s.Window != 42 {
		t.Fatal("id/window lost")
	}
	c := s.Find(grid.CoordOf(1, 0))
	if c == nil || c.Status != CoreCell || len(c.Conns) != 2 {
		t.Fatalf("Find(1,0) = %+v", c)
	}
	if !c.Connected(grid.CoordOf(0, 0)) || !c.Connected(grid.CoordOf(2, 0)) {
		t.Fatal("Connected lookups failed")
	}
	if c.Connected(grid.CoordOf(5, 5)) {
		t.Fatal("phantom connection")
	}
	if s.Find(grid.CoordOf(9, 9)) != nil {
		t.Fatal("Find returned cell for absent coord")
	}
	// Edge cell records no connections.
	e := s.Find(grid.CoordOf(2, 0))
	if len(e.Conns) != 0 {
		t.Fatal("edge cell must have empty connection list")
	}
}

func TestBuilderRejectsEdgeEdgeAndMissing(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddCell(grid.CoordOf(0, 0), 1, EdgeCell)
	b.AddCell(grid.CoordOf(1, 0), 1, EdgeCell)
	if err := b.Connect(grid.CoordOf(0, 0), grid.CoordOf(1, 0)); err == nil {
		t.Error("edge-edge connection must fail")
	}
	if err := b.Connect(grid.CoordOf(0, 0), grid.CoordOf(9, 9)); err == nil {
		t.Error("connection to missing cell must fail")
	}
	if err := b.Connect(grid.CoordOf(0, 0), grid.CoordOf(0, 0)); err == nil {
		t.Error("self connection must fail")
	}
}

func TestBuilderAccumulatesDuplicateCells(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddCell(grid.CoordOf(0, 0), 2, EdgeCell)
	b.AddCell(grid.CoordOf(0, 0), 3, CoreCell)
	s := b.Build(0, 0)
	if s.NumCells() != 1 || s.TotalPopulation() != 5 || s.Cells[0].Status != CoreCell {
		t.Fatalf("duplicate cell accumulation wrong: %+v", s.Cells)
	}
}

func TestMBRAndCellGeometry(t *testing.T) {
	s := buildSimple(t)
	m := s.MBR()
	if !m.Min.Equal(geom.Point{0, 0}) || !m.Max.Equal(geom.Point{3, 1}) {
		t.Fatalf("MBR = %v", m)
	}
	if got := s.CellVolume(); got != 1 {
		t.Fatalf("CellVolume = %v", got)
	}
	cm := s.CellMBR(grid.CoordOf(2, 0))
	if !cm.Min.Equal(geom.Point{2, 0}) || !cm.Max.Equal(geom.Point{3, 1}) {
		t.Fatalf("CellMBR = %v", cm)
	}
}

func TestFeatures(t *testing.T) {
	s := buildSimple(t)
	f := s.Features()
	if f.Volume != 3 || f.StatusCount != 2 {
		t.Fatalf("features = %+v", f)
	}
	if math.Abs(f.AvgDensity-11.0/3.0) > 1e-12 {
		t.Fatalf("AvgDensity = %v", f.AvgDensity)
	}
	// Connections: cell(0,0): 1, cell(1,0): 2, edge: 0 → avg 1.
	if math.Abs(f.AvgConnectivity-1.0) > 1e-12 {
		t.Fatalf("AvgConnectivity = %v", f.AvgConnectivity)
	}
	v := f.Vector()
	if v[0] != 3 || v[1] != 2 {
		t.Fatalf("Vector = %v", v)
	}
	var empty Summary
	if got := empty.Features(); got != (Features{}) {
		t.Fatalf("empty features = %+v", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := buildSimple(t)
	// Edge cell with connections.
	bad := s.Clone()
	for i := range bad.Cells {
		if bad.Cells[i].Status == EdgeCell {
			bad.Cells[i].Conns = []grid.Coord{grid.CoordOf(0, 0)}
		}
	}
	if bad.Validate() == nil {
		t.Error("edge cell with conns passed validation")
	}
	// Dangling connection.
	bad2 := s.Clone()
	bad2.Cells[0].Conns = []grid.Coord{grid.CoordOf(9, 9)}
	if bad2.Validate() == nil {
		t.Error("dangling connection passed validation")
	}
	// Asymmetric core-core connection.
	bad3 := s.Clone()
	c := bad3.Find(grid.CoordOf(0, 0))
	c.Conns = nil
	if bad3.Validate() == nil {
		t.Error("asymmetric connection passed validation")
	}
	// Zero population.
	bad4 := s.Clone()
	bad4.Cells[0].Population = 0
	if bad4.Validate() == nil {
		t.Error("zero population passed validation")
	}
	// Unsorted cells.
	bad5 := s.Clone()
	bad5.Cells[0], bad5.Cells[1] = bad5.Cells[1], bad5.Cells[0]
	if bad5.Validate() == nil {
		t.Error("unsorted cells passed validation")
	}
}

func TestConnectedComponents(t *testing.T) {
	s := buildSimple(t)
	comps := s.ConnectedComponents()
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("components = %v", comps)
	}
	// Two disconnected cores.
	b := NewBuilder(2, 1)
	b.AddCell(grid.CoordOf(0, 0), 1, CoreCell)
	b.AddCell(grid.CoordOf(5, 5), 1, CoreCell)
	s2 := b.Build(0, 0)
	if got := len(s2.ConnectedComponents()); got != 2 {
		t.Fatalf("components = %d, want 2", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := buildSimple(t)
	c := s.Clone()
	c.Cells[0].Population = 999
	c.Cells[1].Conns[0] = grid.CoordOf(8, 8)
	if s.Cells[0].Population == 999 || s.Cells[1].Conns[0] == grid.CoordOf(8, 8) {
		t.Fatal("Clone shares memory with original")
	}
}

// TestCloneAllocs: a clone is the summary, its cell slice and one conn
// arena, however many cells carry connections.
func TestCloneAllocs(t *testing.T) {
	b := NewBuilder(2, 1)
	for x := int32(0); x < 8; x++ {
		for y := int32(0); y < 8; y++ {
			b.AddCell(grid.CoordOf(x, y), 3, CoreCell)
			if x > 0 {
				if err := b.Connect(grid.CoordOf(x-1, y), grid.CoordOf(x, y)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s := b.Build(0, 0)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() { s.Clone() }); got > 3 {
		t.Fatalf("Clone of %d connected cells: %v allocations, want at most 3", s.NumCells(), got)
	}
}

// TestCloneConnsDoNotAlias: the cells of a clone share one conn arena, so
// each holds a capacity-capped slice: appending to one cell's connections
// must not overwrite its neighbour's or the source's.
func TestCloneConnsDoNotAlias(t *testing.T) {
	s := buildSimple(t)
	c := s.Clone()
	want := append([]grid.Coord(nil), c.Cells[1].Conns...)
	c.Cells[0].Conns = append(c.Cells[0].Conns, grid.CoordOf(7, 7))
	for i, x := range want {
		if c.Cells[1].Conns[i] != x {
			t.Fatalf("neighbour's conns changed: %v, want %v", c.Cells[1].Conns, want)
		}
	}
	if err := s.Validate(); err != nil || len(s.Cells[0].Conns) != 1 {
		t.Fatalf("source changed: conns %v, validate %v", s.Cells[0].Conns, err)
	}
}

// TestFromClusterFidelity verifies Lemmas 4.1–4.5 on summaries built from
// real DBSCAN clusters over random data.
// TestFromClusterRejectsPointsOffTheGrid: a member whose cell the grid
// cannot index (grid.Geometry.Check) is an error.
func TestFromClusterRejectsPointsOffTheGrid(t *testing.T) {
	geo, err := grid.NewGeometry(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []geom.Point{{5e12, 0}, {0, math.NaN()}, {0}} {
		if _, err := FromCluster(geo, []geom.Point{{0, 0}, p}, []bool{true, true}, 0, 0); err == nil {
			t.Errorf("FromCluster accepted member %v", p)
		}
	}
}

func TestFromClusterFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	thetaR := 0.4
	thetaC := 3
	geo, err := grid.NewGeometry(2, thetaR)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		pts := make([]geom.Point, 0, 200)
		for i := 0; i < 200; i++ {
			cx, cy := float64(rng.Intn(2))*2, float64(rng.Intn(2))*2
			pts = append(pts, geom.Point{cx + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3})
		}
		ids := make([]int64, len(pts))
		for i := range ids {
			ids[i] = int64(i)
		}
		res, err := dbscan.Run(pts, ids, dbscan.Params{ThetaR: thetaR, ThetaC: thetaC})
		if err != nil {
			t.Fatal(err)
		}
		for ci, cl := range res.Clusters {
			var cpts []geom.Point
			var isCore []bool
			for _, id := range cl.Members {
				cpts = append(cpts, pts[id])
				isCore = append(isCore, res.IsCore[id])
			}
			s, err := FromCluster(geo, cpts, isCore, int64(ci), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d cluster %d: %v", trial, ci, err)
			}
			// Lemma 4.4 precondition: population is conserved exactly.
			if s.TotalPopulation() != len(cpts) {
				t.Fatalf("population %d != members %d", s.TotalPopulation(), len(cpts))
			}
			// Lemma 4.2: edge cell population < θc.
			for i := range s.Cells {
				if s.Cells[i].Status == EdgeCell && int(s.Cells[i].Population) >= thetaC {
					t.Fatalf("edge cell with population %d >= θc=%d", s.Cells[i].Population, thetaC)
				}
			}
			// Lemma 4.3: every member is inside the SGS coverage, and every
			// covered cell contains at least one member (so no point of the
			// covered space is farther than θr from a member).
			for _, p := range cpts {
				if s.Find(geo.CoordOf(p)) == nil {
					t.Fatalf("member %v not covered by SGS", p)
				}
			}
			// Lemma 4.5 / connectivity fidelity: the SGS of one cluster is
			// one connected component.
			if comps := s.ConnectedComponents(); len(comps) != 1 {
				t.Fatalf("trial %d cluster %d: SGS has %d components (cells=%d)", trial, ci, len(comps), s.NumCells())
			}
		}
	}
}

func TestRender2D(t *testing.T) {
	s := buildSimple(t)
	out := s.Render()
	if want := "##+"; !containsLine(out, want) {
		t.Fatalf("render missing %q:\n%s", want, out)
	}
	var empty Summary
	if empty.Render() == "" {
		t.Fatal("empty render should say something")
	}
}

func containsLine(s, line string) bool {
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if s[start:i] == line {
				return true
			}
			start = i + 1
		}
	}
	return false
}
