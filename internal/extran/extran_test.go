package extran

import (
	"math/rand"
	"sort"
	"testing"

	"streamsum/internal/core"
	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/window"
)

type tupleLog struct {
	ids []int64
	pts []geom.Point
	pos []int64
}

func (l *tupleLog) windowContent(spec window.Spec, n int64) ([]geom.Point, []int64) {
	var pts []geom.Point
	var ids []int64
	for i := range l.ids {
		if spec.Covers(n, l.pos[i]) {
			pts = append(pts, l.pts[i])
			ids = append(ids, l.ids[i])
		}
	}
	return pts, ids
}

func clusteredStream(rng *rand.Rand, n, dim int) []geom.Point {
	centers := make([][]float64, 4)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			centers[i][d] = rng.Float64() * 8
		}
	}
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, dim)
		if rng.Float64() < 0.15 {
			for d := 0; d < dim; d++ {
				p[d] = rng.Float64() * 8
			}
		} else {
			c := centers[rng.Intn(len(centers))]
			for d := 0; d < dim; d++ {
				c[d] += (rng.Float64() - 0.5) * 0.05
				p[d] = c[d] + rng.NormFloat64()*0.35
			}
		}
		pts[i] = p
	}
	return pts
}

func runStream(t *testing.T, cfg Config, pts []geom.Point) (*Extractor, *tupleLog, []*core.WindowResult) {
	t.Helper()
	ex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &tupleLog{}
	var results []*core.WindowResult
	for _, p := range pts {
		id, emitted, err := ex.Push(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		log.ids = append(log.ids, id)
		log.pts = append(log.pts, p)
		log.pos = append(log.pos, id)
		results = append(results, emitted...)
	}
	return ex, log, results
}

func signature(r *core.WindowResult) [][]int64 {
	cls := append([]*core.Cluster(nil), r.Clusters...)
	sort.Slice(cls, func(i, j int) bool { return cls[i].Cores[0] < cls[j].Cores[0] })
	sig := make([][]int64, len(cls))
	for i, c := range cls {
		sig[i] = c.Members
	}
	return sig
}

func verifyWindow(t *testing.T, cfg Config, log *tupleLog, r *core.WindowResult) {
	t.Helper()
	pts, ids := log.windowContent(cfg.Window, r.Window)
	want, err := dbscan.Run(pts, ids, dbscan.Params{ThetaR: cfg.ThetaR, ThetaC: cfg.ThetaC})
	if err != nil {
		t.Fatal(err)
	}
	got := signature(r)
	if !dbscan.EqualSignature(got, want.Signature()) {
		t.Fatalf("window %d: clusters differ\n got: %v\nwant: %v", r.Window, got, want.Signature())
	}
	for _, c := range r.Clusters {
		for _, id := range c.Cores {
			if !want.IsCore[id] {
				t.Fatalf("window %d: %d wrongly core", r.Window, id)
			}
		}
	}
}

func TestSlidingWindowsMatchOracle(t *testing.T) {
	cases := []struct {
		thetaR float64
		thetaC int
		win    int64
		slide  int64
	}{
		{0.4, 5, 300, 50},
		{0.6, 4, 300, 100},
		{0.9, 3, 200, 200},
	}
	for ci, pc := range cases {
		rng := rand.New(rand.NewSource(int64(10 + ci)))
		cfg := Config{Dim: 2, ThetaR: pc.thetaR, ThetaC: pc.thetaC,
			Window: window.Spec{Win: pc.win, Slide: pc.slide}}
		_, log, results := runStream(t, cfg, clusteredStream(rng, 1400, 2))
		if len(results) == 0 {
			t.Fatalf("case %d: no windows", ci)
		}
		for _, r := range results {
			verifyWindow(t, cfg, log, r)
		}
	}
}

func TestManyViews(t *testing.T) {
	// Small slide → many views: the regime where Extra-N does the most
	// per-view work; correctness must hold.
	rng := rand.New(rand.NewSource(42))
	cfg := Config{Dim: 2, ThetaR: 0.5, ThetaC: 3,
		Window: window.Spec{Win: 200, Slide: 10}}
	_, log, results := runStream(t, cfg, clusteredStream(rng, 900, 2))
	for _, r := range results {
		verifyWindow(t, cfg, log, r)
	}
}

func TestViewsReclaimed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := Config{Dim: 2, ThetaR: 0.5, ThetaC: 3,
		Window: window.Spec{Win: 100, Slide: 25}}
	ex, _, _ := runStream(t, cfg, clusteredStream(rng, 600, 2))
	_, views, _ := ex.Stats()
	if views > cfg.Window.Views()+1 {
		t.Fatalf("view leak: %d open views for %d views/window", views, cfg.Window.Views())
	}
	for i := 0; i < 5; i++ {
		ex.Flush()
	}
	objs, _, entries := ex.Stats()
	if objs != 0 || entries != 0 {
		t.Fatalf("state not reclaimed: objs=%d entries=%d", objs, entries)
	}
}

func TestAgainstCSGSCores(t *testing.T) {
	// Extra-N and C-SGS must agree on every window's core objects and on
	// the partition of cores into clusters (the representations differ only
	// in the cell-granularity edge-attachment corner case), in dimension 2
	// and in dimension MaxDim.
	testAgainstCSGSCores(t, 2, 0.5)
	testAgainstCSGSCores(t, grid.MaxDim, 0.9)
}

func testAgainstCSGSCores(t *testing.T, dim int, thetaR float64) {
	rng := rand.New(rand.NewSource(21))
	pts := clusteredStream(rng, 1200, dim)
	cfg := Config{Dim: dim, ThetaR: thetaR, ThetaC: 4,
		Window: window.Spec{Win: 300, Slide: 100}}

	exN, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exC, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rn, rc []*core.WindowResult
	for _, p := range pts {
		_, en, err := exN.Push(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, ec, err := exC.Push(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		rn = append(rn, en...)
		rc = append(rc, ec...)
	}
	if len(rn) != len(rc) || len(rn) == 0 {
		t.Fatalf("window counts differ: %d vs %d", len(rn), len(rc))
	}
	clusters := 0
	for i := range rn {
		a, b := rn[i], rc[i]
		if len(a.Clusters) != len(b.Clusters) {
			t.Fatalf("dim %d window %d: %d vs %d clusters", dim, a.Window, len(a.Clusters), len(b.Clusters))
		}
		clusters += len(a.Clusters)
		sigA := make([][]int64, len(a.Clusters))
		sigB := make([][]int64, len(b.Clusters))
		for j := range a.Clusters {
			sigA[j] = a.Clusters[j].Cores
			sigB[j] = b.Clusters[j].Cores
		}
		sort.Slice(sigA, func(x, y int) bool { return sigA[x][0] < sigA[y][0] })
		sort.Slice(sigB, func(x, y int) bool { return sigB[x][0] < sigB[y][0] })
		if !dbscan.EqualSignature(sigA, sigB) {
			t.Fatalf("dim %d window %d: core partitions differ\nextra-n: %v\nc-sgs: %v", dim, a.Window, sigA, sigB)
		}
	}
	if clusters == 0 {
		t.Fatalf("dim %d: no clusters in %d windows; the stream checks nothing", dim, len(rn))
	}
}

func TestPushErrors(t *testing.T) {
	ex, _ := New(Config{Dim: 2, ThetaR: 1, ThetaC: 2, Window: window.Spec{Win: 10, Slide: 5}})
	if _, _, err := ex.Push(geom.Point{1}, 0); err == nil {
		t.Error("dimension mismatch accepted")
	}
	ext, _ := New(Config{Dim: 1, ThetaR: 1, ThetaC: 2,
		Window: window.Spec{Kind: window.TimeBased, Win: 10, Slide: 5}})
	if _, _, err := ext.Push(geom.Point{0}, 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ext.Push(geom.Point{0}, 99); err == nil {
		t.Error("out-of-order accepted")
	}
}

// TestOutOfOrderRejectionKeepsIDs: a tuple rejected as out of order
// takes no tuple id, like any other rejected tuple. Timestamps 0, 1, 2,
// then 1 (rejected), then 3: the last tuple gets id 3 on all three
// ingest paths (C-SGS Push, C-SGS PushBatch, Extra-N Push), and all
// three emit identical windows.
func TestOutOfOrderRejectionKeepsIDs(t *testing.T) {
	pts := []geom.Point{{0}, {0.1}, {0.2}, {0.15}, {0.3}}
	tss := []int64{0, 1, 2, 1, 3}
	const rejected = 3
	spec := window.Spec{Kind: window.TimeBased, Win: 4, Slide: 1}
	type pusher func(geom.Point, int64) (int64, []*core.WindowResult, error)
	// pushAll feeds the stream one tuple at a time and checks the ids.
	pushAll := func(name string, push pusher) []*core.WindowResult {
		var out []*core.WindowResult
		next := int64(0)
		for i, p := range pts {
			id, ws, err := push(p, tss[i])
			if i == rejected {
				if err == nil {
					t.Fatalf("%s: out-of-order tuple accepted", name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: tuple %d: %v", name, i, err)
			}
			if id != next {
				t.Fatalf("%s: tuple %d got id %d, want %d", name, i, id, next)
			}
			next++
			out = append(out, ws...)
		}
		return out
	}

	newCore := func() *core.Extractor {
		ex, err := core.New(core.Config{Dim: 1, ThetaR: 1, ThetaC: 2, Window: spec, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	cex := newCore()
	viaPush := append(pushAll("core Push", cex.Push), cex.Flush())

	bex := newCore()
	viaBatch, err := bex.PushBatch(pts, tss)
	if err == nil {
		t.Fatal("core PushBatch: out-of-order tuple accepted")
	}
	rest, err := bex.PushBatch(pts[rejected+1:], tss[rejected+1:])
	if err != nil {
		t.Fatal(err)
	}
	viaBatch = append(append(viaBatch, rest...), bex.Flush())

	xex, err := New(Config{Dim: 1, ThetaR: 1, ThetaC: 2, Window: spec})
	if err != nil {
		t.Fatal(err)
	}
	viaExtraN := append(pushAll("extran Push", xex.Push), xex.Flush())

	sawLast := false
	for _, other := range [][]*core.WindowResult{viaBatch, viaExtraN} {
		if len(other) != len(viaPush) {
			t.Fatalf("%d windows vs %d from core Push", len(other), len(viaPush))
		}
		for i := range viaPush {
			a, b := signature(viaPush[i]), signature(other[i])
			if viaPush[i].Window != other[i].Window || !dbscan.EqualSignature(a, b) {
				t.Fatalf("window %d: %v vs %v from core Push", viaPush[i].Window, b, a)
			}
			for _, members := range a {
				for _, id := range members {
					if id > 3 {
						t.Fatalf("window %d holds id %d: the rejected tuple took an id", viaPush[i].Window, id)
					}
					sawLast = sawLast || id == 3
				}
			}
		}
	}
	if !sawLast {
		t.Fatal("no window holds the last tuple; the stream checks nothing")
	}
}
