package dbscan

import (
	"math"
	"math/rand"
	"testing"

	"streamsum/internal/geom"
)

func run(t *testing.T, pts []geom.Point, p Params) *Result {
	t.Helper()
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	r, err := Run(pts, ids, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEmptyInput(t *testing.T) {
	r := run(t, nil, Params{ThetaR: 1, ThetaC: 2})
	if len(r.Clusters) != 0 || len(r.Noise) != 0 {
		t.Fatalf("empty input produced %+v", r)
	}
}

// TestRunRejectsPointsOffTheGrid: points whose cells the grid cannot index
// (grid.Geometry.Check) are an error, not one false cell shared by points
// 4e12 apart.
func TestRunRejectsPointsOffTheGrid(t *testing.T) {
	for _, x := range []float64{1e12, -7e12, math.NaN()} {
		pts := []geom.Point{{0}, {0.1}, {x}}
		if _, err := Run(pts, []int64{0, 1, 2}, Params{ThetaR: 1, ThetaC: 1}); err == nil {
			t.Errorf("Run accepted %g", x)
		}
	}
}

func TestAllNoise(t *testing.T) {
	pts := []geom.Point{{0, 0}, {10, 10}, {20, 20}}
	r := run(t, pts, Params{ThetaR: 1, ThetaC: 1})
	if len(r.Clusters) != 0 {
		t.Fatalf("expected no clusters, got %d", len(r.Clusters))
	}
	if len(r.Noise) != 3 {
		t.Fatalf("expected 3 noise points, got %v", r.Noise)
	}
}

func TestSingleCluster(t *testing.T) {
	// A tight clump of 5 points, θc=3: every point has 4 neighbors → all core.
	pts := []geom.Point{{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1}, {0.05, 0.05}}
	r := run(t, pts, Params{ThetaR: 0.5, ThetaC: 3})
	if len(r.Clusters) != 1 {
		t.Fatalf("expected 1 cluster, got %d", len(r.Clusters))
	}
	if len(r.Clusters[0].Members) != 5 || len(r.Clusters[0].Cores) != 5 {
		t.Fatalf("cluster = %+v", r.Clusters[0])
	}
	if len(r.Noise) != 0 {
		t.Fatalf("noise = %v", r.Noise)
	}
}

func TestTwoClustersAndNoise(t *testing.T) {
	var pts []geom.Point
	// Cluster A around (0,0), cluster B around (10,10), one lone point.
	for i := 0; i < 6; i++ {
		pts = append(pts, geom.Point{float64(i) * 0.1, 0})
	}
	for i := 0; i < 6; i++ {
		pts = append(pts, geom.Point{10 + float64(i)*0.1, 10})
	}
	pts = append(pts, geom.Point{5, 5})
	r := run(t, pts, Params{ThetaR: 0.3, ThetaC: 2})
	if len(r.Clusters) != 2 {
		t.Fatalf("expected 2 clusters, got %d", len(r.Clusters))
	}
	if len(r.Noise) != 1 || r.Noise[0] != 12 {
		t.Fatalf("noise = %v", r.Noise)
	}
}

func TestChainConnectivity(t *testing.T) {
	// A chain of points each within θr of the next; θc=2 makes interior
	// points core, transitively connecting the whole chain (Def. 3.1).
	var pts []geom.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, geom.Point{float64(i) * 0.9, 0})
	}
	r := run(t, pts, Params{ThetaR: 1.0, ThetaC: 2})
	if len(r.Clusters) != 1 {
		t.Fatalf("chain should form one cluster, got %d", len(r.Clusters))
	}
	if got := len(r.Clusters[0].Members); got != 20 {
		t.Fatalf("chain cluster has %d members", got)
	}
	// Endpoints have only 1 neighbor each → edge, interior → core.
	if r.IsCore[0] || r.IsCore[19] {
		t.Error("chain endpoints should be edge objects")
	}
	if !r.IsCore[10] {
		t.Error("chain interior should be core")
	}
}

func TestSharedEdgeObjectBelongsToBothClusters(t *testing.T) {
	// Two dense clumps with one point in the middle that neighbors a core
	// of each but has too few neighbors to be core itself. Definition 3.1
	// attaches it to both clusters.
	var pts []geom.Point
	for i := 0; i < 4; i++ {
		pts = append(pts, geom.Point{float64(i) * 0.1, 0}) // ids 0-3, around x≈0.15
	}
	for i := 0; i < 4; i++ {
		pts = append(pts, geom.Point{2 + float64(i)*0.1, 0}) // ids 4-7, x≈2.15
	}
	pts = append(pts, geom.Point{1.15, 0}) // id 8: within 1.0 of id 3 (x=0.3)? no —
	// distance to x=0.3 is 0.85 ≤ 0.9, to x=2.0 is 0.85 ≤ 0.9.
	r := run(t, pts, Params{ThetaR: 0.9, ThetaC: 3})
	if len(r.Clusters) != 2 {
		t.Fatalf("expected 2 clusters, got %d: %+v", len(r.Clusters), r.Clusters)
	}
	found := 0
	for _, c := range r.Clusters {
		for _, m := range c.Members {
			if m == 8 {
				found++
			}
		}
	}
	if found != 2 {
		t.Fatalf("shared edge object in %d clusters, want 2", found)
	}
	if r.IsCore[8] {
		t.Error("bridge point must not be core (it would merge the clusters)")
	}
}

func TestNeighborCountExcludesSelf(t *testing.T) {
	// Two coincident points with θc=1: each has exactly 1 neighbor (the
	// other), so both are core.
	pts := []geom.Point{{0, 0}, {0, 0}}
	r := run(t, pts, Params{ThetaR: 0.1, ThetaC: 1})
	if len(r.Clusters) != 1 || len(r.Clusters[0].Cores) != 2 {
		t.Fatalf("coincident pair: %+v", r)
	}
	// A single isolated point with θc=1 must NOT be core (self excluded).
	r2 := run(t, []geom.Point{{0, 0}}, Params{ThetaR: 0.1, ThetaC: 1})
	if len(r2.Clusters) != 0 || len(r2.Noise) != 1 {
		t.Fatalf("single point: %+v", r2)
	}
}

// naive is a quadratic reference implementation of Definition 3.1 used to
// cross-check the grid-accelerated version on random inputs.
func naive(pts []geom.Point, p Params) [][]int64 {
	n := len(pts)
	nbs := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && geom.WithinDist(pts[i], pts[j], p.ThetaR) {
				nbs[i] = append(nbs[i], j)
			}
		}
	}
	core := make([]bool, n)
	for i := range core {
		core[i] = len(nbs[i]) >= p.ThetaC
	}
	// Connected components over cores.
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if !core[i] || comp[i] != -1 {
			continue
		}
		stack := []int{i}
		comp[i] = nc
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range nbs[x] {
				if core[y] && comp[y] == -1 {
					comp[y] = nc
					stack = append(stack, y)
				}
			}
		}
		nc++
	}
	clusters := make(map[int]map[int64]bool)
	minCore := make(map[int]int64)
	for i := 0; i < n; i++ {
		if !core[i] {
			continue
		}
		c := comp[i]
		if clusters[c] == nil {
			clusters[c] = map[int64]bool{}
			minCore[c] = int64(i)
		}
		clusters[c][int64(i)] = true
		for _, j := range nbs[i] {
			if !core[j] {
				clusters[c][int64(j)] = true
			}
		}
	}
	// Canonicalize.
	order := make([]int, 0, len(clusters))
	for c := range clusters {
		order = append(order, c)
	}
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			if minCore[order[j]] < minCore[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	var sig [][]int64
	for _, c := range order {
		var mem []int64
		for id := range clusters[c] {
			mem = append(mem, id)
		}
		for i := range mem {
			for j := i + 1; j < len(mem); j++ {
				if mem[j] < mem[i] {
					mem[i], mem[j] = mem[j], mem[i]
				}
			}
		}
		sig = append(sig, mem)
	}
	return sig
}

func TestAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 30; trial++ {
		n := 30 + rng.Intn(120)
		pts := make([]geom.Point, n)
		for i := range pts {
			// Mixture: a few gaussian blobs plus uniform noise.
			if rng.Float64() < 0.8 {
				cx := float64(rng.Intn(3)) * 3
				cy := float64(rng.Intn(3)) * 3
				pts[i] = geom.Point{cx + rng.NormFloat64()*0.4, cy + rng.NormFloat64()*0.4}
			} else {
				pts[i] = geom.Point{rng.Float64() * 9, rng.Float64() * 9}
			}
		}
		p := Params{ThetaR: 0.3 + rng.Float64()*0.5, ThetaC: 2 + rng.Intn(4)}
		r := run(t, pts, p)
		want := naive(pts, p)
		if !EqualSignature(r.Signature(), want) {
			t.Fatalf("trial %d (θr=%.3f θc=%d): grid=%v naive=%v", trial, p.ThetaR, p.ThetaC, r.Signature(), want)
		}
	}
}

func TestEqualSignature(t *testing.T) {
	a := [][]int64{{1, 2}, {3}}
	if !EqualSignature(a, [][]int64{{1, 2}, {3}}) {
		t.Error("equal signatures reported unequal")
	}
	if EqualSignature(a, [][]int64{{1, 2}}) {
		t.Error("different lengths reported equal")
	}
	if EqualSignature(a, [][]int64{{1, 2}, {4}}) {
		t.Error("different members reported equal")
	}
	if EqualSignature(a, [][]int64{{1}, {3, 4}}) {
		t.Error("different shapes reported equal")
	}
}
