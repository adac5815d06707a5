package skps

import (
	"math/rand"
	"testing"

	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
)

// clusterFixture builds one DBSCAN cluster from a random blob.
func clusterFixture(t *testing.T, seed int64, offset float64, n int) ([]geom.Point, []bool, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	thetaR := 0.5
	var pts []geom.Point
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Point{offset + rng.NormFloat64()*0.6, rng.NormFloat64() * 0.6})
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
		t.Skip("no cluster in fixture")
	}
	best := 0
	for i, c := range res.Clusters {
		if len(c.Members) > len(res.Clusters[best].Members) {
			best = i
		}
	}
	var cpts []geom.Point
	var isCore []bool
	for _, id := range res.Clusters[best].Members {
		cpts = append(cpts, pts[id])
		isCore = append(isCore, res.IsCore[id])
	}
	return cpts, isCore, thetaR
}

func TestFromClusterSatisfiesDefinition(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		pts, isCore, thetaR := clusterFixture(t, seed, 0, 150)
		s, err := FromCluster(pts, isCore, thetaR, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Definition 4.1: coverage + connectivity + all nodes core.
		if err := s.Verify(pts, isCore, thetaR); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Minimality in spirit: far fewer skeletal points than objects.
		if len(s.Nodes) >= len(pts) {
			t.Fatalf("seed %d: %d skeletal points for %d objects", seed, len(s.Nodes), len(pts))
		}
		if s.Size() <= 0 {
			t.Fatal("size must be positive")
		}
	}
}

func TestFromClusterErrors(t *testing.T) {
	if _, err := FromCluster(nil, nil, 1, 0, 0); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := FromCluster([]geom.Point{{0, 0}}, []bool{false}, 1, 0, 0); err == nil {
		t.Error("coreless cluster accepted")
	}
	if _, err := FromCluster([]geom.Point{{0, 0}}, []bool{true, false}, 1, 0, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromCluster([]geom.Point{{0, 0}, {5e12, 0}}, []bool{true, true}, 1, 0, 0); err == nil {
		t.Error("point off the grid accepted")
	}
}

func TestSingleCoreCluster(t *testing.T) {
	// One core with a few edges around it → a single skeletal point.
	pts := []geom.Point{{0, 0}, {0.3, 0}, {0, 0.3}, {-0.3, 0}}
	isCore := []bool{true, false, false, false}
	s, err := FromCluster(pts, isCore, 0.5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 1 || len(s.Edges) != 0 {
		t.Fatalf("nodes=%d edges=%d", len(s.Nodes), len(s.Edges))
	}
	if err := s.Verify(pts, isCore, 0.5); err != nil {
		t.Fatal(err)
	}
}

// TestStrayObjectStopsGrowth: an object within θr of no core (bad input)
// leaves the frontier without gain while it is still uncovered; growth
// stops there with the cores it has, and Verify reports the stray.
func TestStrayObjectStopsGrowth(t *testing.T) {
	pts := []geom.Point{{0}, {0.5}, {1}, {5}}
	isCore := []bool{true, true, false, false}
	s, err := FromCluster(pts, isCore, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 1 || s.Nodes[0][0] != 0 {
		t.Fatalf("skeleton %v, want the seed core {0} alone", s.Nodes)
	}
	if err := s.Verify(pts, isCore, 1); err == nil {
		t.Fatal("Verify accepts a summary that leaves {5} uncovered")
	}
}

func TestChainClusterPath(t *testing.T) {
	// A long chain needs multiple skeletal points forming a connected path.
	var pts []geom.Point
	for i := 0; i < 30; i++ {
		pts = append(pts, geom.Point{float64(i) * 0.4, 0})
	}
	isCore := make([]bool, len(pts))
	for i := range isCore {
		isCore[i] = i > 0 && i < len(pts)-1 // endpoints are edges (θc=2, θr=0.5)
	}
	s, err := FromCluster(pts, isCore, 0.5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(pts, isCore, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) < 5 {
		t.Fatalf("chain of 30 covered by %d skeletal points?", len(s.Nodes))
	}
}

func TestDistanceProperties(t *testing.T) {
	ptsA, coreA, thetaR := clusterFixture(t, 1, 0, 150)
	a, err := FromCluster(ptsA, coreA, thetaR, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := Distance(a, a); d > 1e-9 {
		t.Errorf("self distance = %v", d)
	}
	// A same-shape cluster far away (position-insensitive matching should
	// still see it as similar) vs a different-shape cluster.
	ptsB, coreB, _ := clusterFixture(t, 1, 100, 150) // same seed → same shape, shifted
	b, err := FromCluster(ptsB, coreB, thetaR, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var chain []geom.Point
	for i := 0; i < 60; i++ {
		chain = append(chain, geom.Point{float64(i) * 0.3, 0})
	}
	chainCore := make([]bool, len(chain))
	for i := range chainCore {
		chainCore[i] = true
	}
	c, err := FromCluster(chain, chainCore, thetaR, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dab, dac := Distance(a, b), Distance(a, c)
	if dab < 0 || dab > 1 || dac < 0 || dac > 1 {
		t.Fatalf("out of range: %v %v", dab, dac)
	}
	if dab >= dac {
		t.Errorf("shifted twin (%v) should be closer than chain (%v)", dab, dac)
	}
	if Distance(a, b) != Distance(b, a) {
		t.Error("Distance not symmetric")
	}
}

func TestDistanceDegenerate(t *testing.T) {
	empty := &Summary{}
	one := &Summary{Nodes: []geom.Point{{0, 0}}}
	if d := Distance(empty, empty); d != 0 {
		t.Errorf("empty-empty = %v", d)
	}
	if d := Distance(empty, one); d != 1 {
		t.Errorf("empty-nonempty = %v", d)
	}
}

func TestDegree(t *testing.T) {
	s := &Summary{
		Nodes: []geom.Point{{0, 0}, {1, 0}, {2, 0}},
		Edges: [][2]int32{{0, 1}, {1, 2}},
	}
	deg := s.Degree()
	if deg[0] != 1 || deg[1] != 2 || deg[2] != 1 {
		t.Fatalf("degrees = %v", deg)
	}
}

func TestLargeGraphTruncation(t *testing.T) {
	// >64 nodes exercises the truncation path in the beam GED.
	var nodes []geom.Point
	var edges [][2]int32
	for i := 0; i < 80; i++ {
		nodes = append(nodes, geom.Point{float64(i), 0})
		if i > 0 {
			edges = append(edges, [2]int32{int32(i - 1), int32(i)})
		}
	}
	big := &Summary{Nodes: nodes, Edges: edges}
	if d := Distance(big, big); d > 0.01 {
		t.Errorf("self distance on big graph = %v", d)
	}
}
