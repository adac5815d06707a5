package core

import (
	"math/rand"
	"sort"
	"testing"

	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
	"streamsum/internal/window"
)

// tupleLog records every pushed tuple so tests can re-derive any window's
// exact content for the oracle.
type tupleLog struct {
	ids []int64
	pts []geom.Point
	pos []int64
}

func (l *tupleLog) add(id int64, p geom.Point, pos int64) {
	l.ids = append(l.ids, id)
	l.pts = append(l.pts, p)
	l.pos = append(l.pos, pos)
}

// windowContent returns the ids and points positioned inside window n.
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

// signature converts a WindowResult into the oracle's canonical form:
// member id lists sorted, clusters ordered by smallest core id.
func signature(r *WindowResult) [][]int64 {
	cls := append([]*Cluster(nil), r.Clusters...)
	sort.Slice(cls, func(i, j int) bool { return cls[i].Cores[0] < cls[j].Cores[0] })
	sig := make([][]int64, len(cls))
	for i, c := range cls {
		sig[i] = c.Members
	}
	return sig
}

// verifyWindow cross-checks one emitted window against the from-scratch
// oracle and validates every SGS invariant.
func verifyWindow(t *testing.T, ex *Extractor, log *tupleLog, r *WindowResult) {
	t.Helper()
	cfg := ex.Config()
	pts, ids := log.windowContent(cfg.Window, r.Window)
	want, err := dbscan.RunCellAttached(pts, ids, dbscan.Params{ThetaR: cfg.ThetaR, ThetaC: cfg.ThetaC}, ex.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	got := signature(r)
	wantSig := want.Signature()
	if !dbscan.EqualSignature(got, wantSig) {
		t.Fatalf("window %d: clusters differ\n got: %v\nwant: %v", r.Window, got, wantSig)
	}
	// Core sets must match the oracle exactly (lifespan predictions, I7).
	oracleCore := want.IsCore
	for _, c := range r.Clusters {
		seen := make(map[int64]bool, len(c.Cores))
		for _, id := range c.Cores {
			if !oracleCore[id] {
				t.Fatalf("window %d: object %d reported core but oracle disagrees", r.Window, id)
			}
			seen[id] = true
		}
		for _, id := range c.Members {
			if oracleCore[id] && !seen[id] {
				// A core object must be reported core in the cluster it
				// belongs to.
				if containsID(c.Cores, id) {
					continue
				}
				t.Fatalf("window %d: core object %d missing from Cores", r.Window, id)
			}
		}
	}
	// SGS invariants.
	for _, c := range r.Clusters {
		s := c.Summary
		if err := s.Validate(); err != nil {
			t.Fatalf("window %d cluster %d: invalid SGS: %v", r.Window, c.ID, err)
		}
		if s.TotalPopulation() != len(c.Members) {
			t.Fatalf("window %d cluster %d: SGS population %d != members %d",
				r.Window, c.ID, s.TotalPopulation(), len(c.Members))
		}
		if s.NumCoreCells() == 0 {
			t.Fatalf("window %d cluster %d: SGS without core cells", r.Window, c.ID)
		}
		// Lemma 4.2 (adapted to exclusive neighbor counting): an edge cell
		// can hold at most θc objects.
		for i := range s.Cells {
			if s.Cells[i].Status == sgs.EdgeCell && int(s.Cells[i].Population) > cfg.ThetaC {
				t.Fatalf("window %d: edge cell population %d > θc=%d",
					r.Window, s.Cells[i].Population, cfg.ThetaC)
			}
		}
		// One cluster — one connected SGS.
		if comps := s.ConnectedComponents(); len(comps) != 1 {
			t.Fatalf("window %d cluster %d: SGS has %d components", r.Window, c.ID, len(comps))
		}
		// Every member lies inside a cell of the SGS (Lemma 4.3).
		memberSet := make(map[int64]bool, len(c.Members))
		for _, id := range c.Members {
			memberSet[id] = true
		}
		for i, id := range log.ids {
			if !memberSet[id] {
				continue
			}
			if s.Find(ex.Geometry().CoordOf(log.pts[i])) == nil {
				t.Fatalf("window %d: member %d not covered by SGS", r.Window, id)
			}
		}
	}
}

func containsID(ids []int64, id int64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// clusteredStream generates a stream with moving gaussian blobs so that
// windows contain clusters that drift, merge, split and dissolve.
func clusteredStream(rng *rand.Rand, n int, dim int) []geom.Point {
	centers := make([][]float64, 4)
	vel := make([][]float64, 4)
	for i := range centers {
		centers[i] = make([]float64, dim)
		vel[i] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			centers[i][d] = rng.Float64() * 8
			vel[i][d] = (rng.Float64() - 0.5) * 0.02
		}
	}
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.15 { // background noise
			p := make(geom.Point, dim)
			for d := 0; d < dim; d++ {
				p[d] = rng.Float64() * 8
			}
			pts[i] = p
			continue
		}
		c := rng.Intn(len(centers))
		for d := 0; d < dim; d++ {
			centers[c][d] += vel[c][d]
		}
		p := make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = centers[c][d] + rng.NormFloat64()*0.35
		}
		pts[i] = p
	}
	return pts
}

func runStream(t *testing.T, cfg Config, pts []geom.Point, tss []int64) (*Extractor, *tupleLog, []*WindowResult) {
	t.Helper()
	ex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &tupleLog{}
	var results []*WindowResult
	for i, p := range pts {
		var ts int64
		if tss != nil {
			ts = tss[i]
		}
		id, emitted, err := ex.Push(p, ts)
		if err != nil {
			t.Fatal(err)
		}
		pos := id
		if cfg.Window.Kind == window.TimeBased {
			pos = ts
		}
		log.add(id, p, pos)
		results = append(results, emitted...)
	}
	return ex, log, results
}

func TestConfigValidation(t *testing.T) {
	good := Config{Dim: 2, ThetaR: 1, ThetaC: 3, Window: window.Spec{Win: 10, Slide: 5}}
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Dim: 0, ThetaR: 1, ThetaC: 3, Window: window.Spec{Win: 10, Slide: 5}},
		{Dim: 2, ThetaR: 0, ThetaC: 3, Window: window.Spec{Win: 10, Slide: 5}},
		{Dim: 2, ThetaR: 1, ThetaC: 0, Window: window.Spec{Win: 10, Slide: 5}},
		{Dim: 2, ThetaR: 1, ThetaC: 3, Window: window.Spec{Win: 0, Slide: 5}},
		{Dim: 2, ThetaR: 1, ThetaC: 3, Window: window.Spec{Win: 5, Slide: 6}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestEmptyStream(t *testing.T) {
	ex, err := New(Config{Dim: 2, ThetaR: 1, ThetaC: 2, Window: window.Spec{Win: 10, Slide: 10}})
	if err != nil {
		t.Fatal(err)
	}
	r := ex.Flush()
	if r.Window != 0 || len(r.Clusters) != 0 {
		t.Fatalf("empty flush: %+v", r)
	}
	if ex.CurrentWindow() != 1 {
		t.Fatal("window did not advance")
	}
}

func TestPushErrors(t *testing.T) {
	ex, _ := New(Config{Dim: 2, ThetaR: 1, ThetaC: 2, Window: window.Spec{Win: 10, Slide: 10}})
	if _, _, err := ex.Push(geom.Point{1, 2, 3}, 0); err == nil {
		t.Error("dimension mismatch accepted")
	}
	ext, _ := New(Config{Dim: 1, ThetaR: 1, ThetaC: 2,
		Window: window.Spec{Kind: window.TimeBased, Win: 10, Slide: 10}})
	if _, _, err := ext.Push(geom.Point{0}, 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ext.Push(geom.Point{0}, 50); err == nil {
		t.Error("out-of-order timestamp accepted")
	}
}

func TestLateTupleDroppedAfterFlush(t *testing.T) {
	ex, _ := New(Config{Dim: 1, ThetaR: 1, ThetaC: 1, Window: window.Spec{Win: 4, Slide: 4}})
	for i := 0; i < 2; i++ {
		if _, _, err := ex.Push(geom.Point{0}, 0); err != nil {
			t.Fatal(err)
		}
	}
	ex.Flush() // window 0 emitted early; ids 2,3 would belong to it only
	if _, _, err := ex.Push(geom.Point{0}, 0); err != nil {
		t.Fatal(err)
	}
	if got := ex.Stats().Objects; got != 0 {
		t.Fatalf("late tuple was inserted: %d live objects", got)
	}
}

func TestTumblingWindowMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Dim: 2, ThetaR: 0.5, ThetaC: 3,
		Window: window.Spec{Win: 200, Slide: 200}}
	pts := clusteredStream(rng, 1200, 2)
	ex, log, results := runStream(t, cfg, pts, nil)
	if len(results) != 5 {
		t.Fatalf("expected 5 complete windows, got %d", len(results))
	}
	for _, r := range results {
		verifyWindow(t, ex, log, r)
	}
}

func TestSlidingWindowMatchesOracle(t *testing.T) {
	// The heart of the reproduction: C-SGS over truly sliding windows must
	// equal a from-scratch re-clustering of every window, across several
	// density parameter settings (the paper's cases 1-3 shape).
	cases := []struct {
		thetaR float64
		thetaC int
		win    int64
		slide  int64
	}{
		{0.4, 5, 300, 50},
		{0.6, 4, 300, 100},
		{0.9, 3, 200, 40},
		{0.5, 6, 250, 250},
		{0.6, 4, 300, 70}, // win not divisible by slide: ragged views
	}
	for ci, pc := range cases {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		cfg := Config{Dim: 2, ThetaR: pc.thetaR, ThetaC: pc.thetaC,
			Window: window.Spec{Win: pc.win, Slide: pc.slide}}
		pts := clusteredStream(rng, 1500, 2)
		ex, log, results := runStream(t, cfg, pts, nil)
		if len(results) == 0 {
			t.Fatalf("case %d: no windows emitted", ci)
		}
		for _, r := range results {
			verifyWindow(t, ex, log, r)
		}
	}
}

// TestHighDimensionalMatchesOracle checks C-SGS against the DBSCAN oracle
// up to MaxDim, where a cell has millions of neighbor offsets: both sides
// find a new cell's neighbors through the block index.
func TestHighDimensionalMatchesOracle(t *testing.T) {
	for _, dim := range []int{4, 6, grid.MaxDim} {
		rng := rand.New(rand.NewSource(77))
		cfg := Config{Dim: dim, ThetaR: 0.9, ThetaC: 4,
			Window: window.Spec{Win: 150, Slide: 50}}
		pts := clusteredStream(rng, 700, dim)
		ex, log, results := runStream(t, cfg, pts, nil)
		clusters := 0
		for _, r := range results {
			verifyWindow(t, ex, log, r)
			clusters += len(r.Clusters)
		}
		if clusters == 0 {
			t.Errorf("dim %d: no clusters in %d windows; the stream checks nothing", dim, len(results))
		}
	}
}

func TestTimeBasedWindowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cfg := Config{Dim: 2, ThetaR: 0.5, ThetaC: 3,
		Window: window.Spec{Kind: window.TimeBased, Win: 100, Slide: 25}}
	pts := clusteredStream(rng, 1200, 2)
	// Fluctuating arrival rate: bursts followed by lulls (the tech-report
	// experiment's shape).
	tss := make([]int64, len(pts))
	ts := int64(0)
	for i := range tss {
		if rng.Float64() < 0.05 {
			ts += int64(rng.Intn(20)) // lull
		} else if rng.Float64() < 0.3 {
			ts++ // steady
		} // else burst: same timestamp
		tss[i] = ts
	}
	ex, log, results := runStream(t, cfg, pts, tss)
	if len(results) == 0 {
		t.Fatal("no windows emitted")
	}
	for _, r := range results {
		verifyWindow(t, ex, log, r)
	}
}

func TestProlongAcrossWindows(t *testing.T) {
	// Deterministic Figure-6 style scenario (count-based, win=4, slide=2,
	// θc=2): an early object q would stop being core once its initial
	// neighbors expire, but late arrivals prolong its core career; the
	// cluster must survive in the later window.
	cfg := Config{Dim: 1, ThetaR: 1.0, ThetaC: 2, Window: window.Spec{Win: 4, Slide: 2}}
	ex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &tupleLog{}
	push := func(x float64) []*WindowResult {
		id, emitted, err := ex.Push(geom.Point{x}, 0)
		if err != nil {
			t.Fatal(err)
		}
		log.add(id, geom.Point{x}, id)
		return emitted
	}
	var results []*WindowResult
	// Window 0: ids 0-3 all near x=0 → one cluster.
	results = append(results, push(0.0)...)
	results = append(results, push(0.2)...)
	results = append(results, push(0.4)...) // ids 2,3 survive into window 1
	results = append(results, push(0.6)...)
	// Window 1: ids 2-5; new arrivals keep id 2 and 3 core.
	results = append(results, push(0.5)...)
	results = append(results, push(0.3)...)
	// Complete window 1 and window 2 by pushing past their ends.
	results = append(results, push(50.0)...)
	results = append(results, push(51.0)...)
	results = append(results, push(52.0)...) // forces emit of window 2 as well
	for _, r := range results {
		verifyWindow(t, ex, log, r)
	}
	if len(results) < 2 {
		t.Fatalf("expected at least 2 windows, got %d", len(results))
	}
	// Window 1 must contain a cluster with the prolonged objects 2 and 3.
	w1 := results[1]
	if w1.Window != 1 || len(w1.Clusters) != 1 {
		t.Fatalf("window 1: %+v", w1)
	}
	m := w1.Clusters[0].Members
	if !containsID(m, 2) || !containsID(m, 3) || !containsID(m, 4) || !containsID(m, 5) {
		t.Fatalf("window 1 members = %v", m)
	}
}

func TestStateReclamation(t *testing.T) {
	// After every tuple expires, all cells and objects must be reclaimed.
	rng := rand.New(rand.NewSource(3))
	cfg := Config{Dim: 2, ThetaR: 0.5, ThetaC: 3, Window: window.Spec{Win: 100, Slide: 50}}
	ex, _, _ := runStream(t, cfg, clusteredStream(rng, 500, 2), nil)
	// Push two far-future "driver" tuples... not possible in count-based;
	// instead flush enough windows to expire everything.
	for i := 0; i < 4; i++ {
		ex.Flush()
	}
	st := ex.Stats()
	if st.Objects != 0 || st.Cells != 0 || st.Connections != 0 {
		t.Fatalf("state not reclaimed: %+v", st)
	}
}

func TestClusterIDsMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := Config{Dim: 2, ThetaR: 0.5, ThetaC: 3, Window: window.Spec{Win: 200, Slide: 100}}
	_, _, results := runStream(t, cfg, clusteredStream(rng, 1000, 2), nil)
	last := int64(-1)
	for _, r := range results {
		for _, c := range r.Clusters {
			if c.ID <= last {
				t.Fatalf("cluster ids not strictly increasing: %d after %d", c.ID, last)
			}
			last = c.ID
		}
	}
	if last < 0 {
		t.Fatal("no clusters produced")
	}
}

func TestDeterminism(t *testing.T) {
	// Same input stream twice → byte-identical outputs (cluster order,
	// member order, SGS cells).
	rng1 := rand.New(rand.NewSource(9))
	pts := clusteredStream(rng1, 800, 2)
	cfg := Config{Dim: 2, ThetaR: 0.5, ThetaC: 3, Window: window.Spec{Win: 200, Slide: 50}}
	_, _, r1 := runStream(t, cfg, pts, nil)
	_, _, r2 := runStream(t, cfg, pts, nil)
	if len(r1) != len(r2) {
		t.Fatalf("window counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if len(r1[i].Clusters) != len(r2[i].Clusters) {
			t.Fatalf("window %d cluster counts differ", i)
		}
		for j := range r1[i].Clusters {
			a, b := r1[i].Clusters[j], r2[i].Clusters[j]
			if len(a.Members) != len(b.Members) {
				t.Fatalf("cluster member counts differ")
			}
			for k := range a.Members {
				if a.Members[k] != b.Members[k] {
					t.Fatalf("member order differs")
				}
			}
			sa, sb := sgs.Marshal(a.Summary), sgs.Marshal(b.Summary)
			if string(sa) != string(sb) {
				t.Fatalf("SGS encodings differ")
			}
		}
	}
}
