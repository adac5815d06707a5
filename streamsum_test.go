package streamsum

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"streamsum/internal/gen"
)

func TestEngineEndToEnd(t *testing.T) {
	b := gen.GMTI(gen.GMTIConfig{Seed: 1}, 4000)
	eng, err := New(Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 1000, Slide: 500,
		Archive: &ArchiveOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	windows, clusters := 0, 0
	var last *Cluster
	for _, p := range b.Points {
		results, err := eng.Push(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range results {
			windows++
			clusters += len(w.Clusters)
			for _, c := range w.Clusters {
				if c.Summary == nil {
					t.Fatal("C-SGS cluster without summary")
				}
				last = c
			}
		}
	}
	if windows == 0 || clusters == 0 || last == nil {
		t.Fatalf("windows=%d clusters=%d", windows, clusters)
	}
	if eng.PatternBase().Len() != clusters {
		t.Fatalf("archived %d of %d clusters", eng.PatternBase().Len(), clusters)
	}
	// Matching an extracted cluster against the archive finds itself.
	matches, stats, err := eng.Match(MatchOptions{Target: last.Summary, Threshold: 0.2, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].Distance > 1e-9 {
		t.Fatalf("self match failed: %+v", matches)
	}
	if stats.IndexCandidates == 0 {
		t.Fatal("no index candidates")
	}
}

func TestEngineFullOnly(t *testing.T) {
	eng, err := New(Options{Dim: 2, ThetaR: 1, ThetaC: 3, Win: 500, Slide: 500, FullOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.GMTI(gen.GMTIConfig{Seed: 2}, 1200)
	sawCluster := false
	for _, p := range b.Points {
		results, err := eng.Push(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range results {
			for _, c := range w.Clusters {
				sawCluster = true
				if c.Summary != nil {
					t.Fatal("FullOnly produced a summary")
				}
			}
		}
	}
	if !sawCluster {
		t.Fatal("no clusters")
	}
	if eng.PatternBase() != nil {
		t.Fatal("FullOnly engine should have no pattern base")
	}
	if _, _, err := eng.Match(MatchOptions{}); err == nil {
		t.Fatal("Match without pattern base should fail")
	}
	// FullOnly + Archive is contradictory.
	if _, err := New(Options{Dim: 2, ThetaR: 1, ThetaC: 3, Win: 10, Slide: 10,
		FullOnly: true, Archive: &ArchiveOptions{}}); err == nil {
		t.Fatal("FullOnly+Archive accepted")
	}
}

func TestNewFromQuery(t *testing.T) {
	eng, err := NewFromQuery(`DETECT DensityBasedClusters f+s FROM trades
		USING theta_range = 1.0 AND theta_cnt = 4
		IN WINDOWS WITH win = 800 AND slide = 400`, 2, &ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.GMTI(gen.GMTIConfig{Seed: 3}, 2500)
	for _, p := range b.Points {
		if _, err := eng.Push(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if eng.PatternBase().Len() == 0 {
		t.Fatal("query-built engine archived nothing")
	}
	if _, err := NewFromQuery("garbage", 2, nil); err == nil {
		t.Fatal("bad query accepted")
	}
	// Full-only via query language.
	eng2, err := NewFromQuery(`DETECT DensityBasedClusters FULL FROM s
		USING theta_range = 1 AND theta_cnt = 3
		IN WINDOWS WITH win = 100 AND slide = 100`, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.PatternBase() != nil {
		t.Fatal("full-only query engine has pattern base")
	}
}

func TestMatchQueryLanguage(t *testing.T) {
	eng, err := New(Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 1000, Slide: 500,
		Archive: &ArchiveOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.GMTI(gen.GMTIConfig{Seed: 4}, 4000)
	var target *Summary
	for _, p := range b.Points {
		results, err := eng.Push(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range results {
			for _, c := range w.Clusters {
				target = c.Summary
			}
		}
	}
	if target == nil {
		t.Fatal("no clusters")
	}
	matches, _, err := eng.MatchQuery(`GIVEN DensityBasedCluster input
		SELECT DensityBasedClusters FROM History
		WHERE Distance <= 0.2 LIMIT 3`, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || len(matches) > 3 {
		t.Fatalf("%d matches", len(matches))
	}
	// With weights and position sensitivity.
	if _, _, err := eng.MatchQuery(`GIVEN DensityBasedCluster input
		SELECT DensityBasedClusters FROM History WHERE Distance <= 0.3
		WITH WEIGHTS volume = 0.4, status = 0.2, density = 0.2, connectivity = 0.2
		POSITION SENSITIVE`, target); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.MatchQuery("nonsense", target); err == nil {
		t.Fatal("bad match query accepted")
	}
}

func TestSummarizeStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts []Point
	for i := 0; i < 200; i++ {
		pts = append(pts, Point{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
	}
	for i := 0; i < 200; i++ {
		pts = append(pts, Point{20 + rng.NormFloat64()*0.5, rng.NormFloat64() * 0.5})
	}
	clusters, err := SummarizeStatic(pts, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("%d clusters", len(clusters))
	}
	for _, c := range clusters {
		if c.Summary == nil || c.Summary.NumCells() == 0 {
			t.Fatal("missing summary")
		}
		if c.Summary.TotalPopulation() != len(c.Members) {
			t.Fatal("population mismatch")
		}
		if len(c.Cores) == 0 {
			t.Fatal("no cores")
		}
	}
	empty, err := SummarizeStatic(nil, 0.5, 4)
	if err != nil || empty != nil {
		t.Fatalf("empty input: %v %v", empty, err)
	}
}

func TestFlushArchives(t *testing.T) {
	eng, err := New(Options{Dim: 2, ThetaR: 1.0, ThetaC: 3, Win: 10000, Slide: 10000,
		Archive: &ArchiveOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.GMTI(gen.GMTIConfig{Seed: 6}, 500)
	for _, p := range b.Points {
		if _, err := eng.Push(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	w, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Clusters) == 0 {
		t.Fatal("flush found no clusters")
	}
	if eng.PatternBase().Len() != len(w.Clusters) {
		t.Fatal("flush did not archive")
	}
}

// TestNewArchiveThetaValidation: New must surface archive.New's
// validation error when Level/ByteBudget demand compression without a
// valid Theta, instead of silently coercing Theta to 2.
func TestNewArchiveThetaValidation(t *testing.T) {
	base := Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 1000, Slide: 500}

	o := base
	o.Archive = &ArchiveOptions{Level: 1}
	if _, err := New(o); err == nil {
		t.Fatal("Level without Theta accepted")
	}
	o = base
	o.Archive = &ArchiveOptions{ByteBudget: 100}
	if _, err := New(o); err == nil {
		t.Fatal("ByteBudget without Theta accepted")
	}
	o = base
	o.Archive = &ArchiveOptions{Level: 1, Theta: 3}
	if _, err := New(o); err != nil {
		t.Fatalf("valid compression config rejected: %v", err)
	}
}

// TestNewRejectsBadArchiveNovelty: a novelty threshold outside [0,1], or
// NaN, fails New instead of the first PushBatch (above 1) or silently
// switching novelty archiving off (NaN).
// TestNewArchiveSettingsValidation: New owns ArchiveOptions' Dim,
// StorePath and MaxMemBytes, so a value set there that New would
// overwrite is an error naming the Options field to set instead, as is a
// negative bound that would otherwise read as "unbounded". The
// deprecated cache budgets are accepted and ignored.
func TestNewArchiveSettingsValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		store   string
		maxMem  int
		cache   int
		archive ArchiveOptions
		wantErr string // "" = accepted; otherwise a substring of the error
	}{
		{name: "store path on archive", archive: ArchiveOptions{StorePath: dir}, wantErr: "Options.StorePath"},
		{name: "mem bound on archive", store: dir, archive: ArchiveOptions{MaxMemBytes: 4 << 10}, wantErr: "Options.StoreMaxMemBytes"},
		{name: "dim on archive", archive: ArchiveOptions{Dim: 3}, wantErr: "Options.Dim"},
		{name: "negative mem bound", store: dir, maxMem: -1, wantErr: "StoreMaxMemBytes"},
		{name: "negative capacity", archive: ArchiveOptions{Capacity: -1}, wantErr: "Capacity"},
		{name: "matching dim and store", store: dir, maxMem: 4 << 10, archive: ArchiveOptions{Dim: 2, StorePath: dir, MaxMemBytes: 4 << 10}},
		{name: "cache budget without store", cache: 1 << 10},
		{name: "archive cache budget", store: dir, maxMem: 4 << 10, archive: ArchiveOptions{SummaryCacheBytes: 8 << 10}},
	}
	for _, c := range cases {
		a := c.archive
		eng, err := New(Options{
			Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 1000, Slide: 500,
			Archive: &a, StorePath: c.store, StoreMaxMemBytes: c.maxMem, SummaryCacheBytes: c.cache,
		})
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case err != nil && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.wantErr)
		}
		if eng != nil {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestNewRejectsBadArchiveNovelty(t *testing.T) {
	for _, n := range []float64{1.5, math.NaN(), -0.1} {
		o := Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 1000, Slide: 500,
			Archive: &ArchiveOptions{}, ArchiveNovelty: n}
		if _, err := New(o); err == nil {
			t.Errorf("ArchiveNovelty %g accepted", n)
		}
	}
	for _, n := range []float64{0, 0.4, 1} {
		o := Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 1000, Slide: 500,
			Archive: &ArchiveOptions{}, ArchiveNovelty: n}
		eng, err := New(o)
		if err != nil {
			t.Fatalf("ArchiveNovelty %g rejected: %v", n, err)
		}
		eng.Close()
	}
}

// TestNewFromQueryThetaDefault: the query-language path defaults Theta
// explicitly (the language cannot express it) without mutating the
// caller's struct.
func TestNewFromQueryThetaDefault(t *testing.T) {
	q := `DETECT DensityBasedClusters f+s FROM s
		USING theta_range = 1.0 AND theta_cnt = 4
		IN WINDOWS WITH win = 800 AND slide = 400`
	ao := &ArchiveOptions{Level: 1}
	eng, err := NewFromQuery(q, 2, ao)
	if err != nil {
		t.Fatalf("NewFromQuery did not default Theta: %v", err)
	}
	if got := eng.PatternBase().Config().Theta; got != 2 {
		t.Fatalf("defaulted Theta = %d, want 2", got)
	}
	if ao.Theta != 0 {
		t.Fatalf("caller's ArchiveOptions mutated: Theta = %d", ao.Theta)
	}
	// An explicit Theta passes through untouched.
	eng2, err := NewFromQuery(q, 2, &ArchiveOptions{Level: 1, Theta: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.PatternBase().Config().Theta; got != 4 {
		t.Fatalf("explicit Theta = %d, want 4", got)
	}
}

// TestQueryDimensionMismatch: a target of another dimensionality than the
// engine's is rejected with an error — by one-shot Match (ErrBadQuery,
// before any index probe) and by Subscribe — under both metric modes.
// The position-sensitive one-shot case used to panic with an index out of
// range in the location probe.
func TestQueryDimensionMismatch(t *testing.T) {
	eng, err := New(Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000,
		Archive: &ArchiveOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushBatch(gen.GMTI(gen.GMTIConfig{Seed: 21}, 8000).Points, nil); err != nil {
		t.Fatal(err)
	}
	if eng.PatternBase().Len() == 0 {
		t.Fatal("fixture archived nothing")
	}
	line := make([]Point, 40)
	for i := range line {
		line[i] = Point{float64(i) * 0.2}
	}
	static, err := SummarizeStatic(line, 1.0, 4)
	if err != nil || len(static) == 0 {
		t.Fatalf("1-D fixture: %d clusters, err %v", len(static), err)
	}
	oneD := static[0].Summary
	ps := EqualWeights()
	ps.PositionSensitive = true
	for _, w := range []*Weights{nil, &ps} {
		if _, _, err := eng.Match(MatchOptions{Target: oneD, Threshold: 0.5, Weights: w}); !errors.Is(err, ErrBadQuery) {
			t.Errorf("Match with a 1-D target (weights %v): err = %v, want ErrBadQuery", w, err)
		}
		s, err := eng.Subscribe(SubscribeOptions{Target: oneD, Threshold: 0.5, Weights: w})
		if err == nil {
			s.Cancel()
			t.Errorf("Subscribe with a 1-D target (weights %v) accepted", w)
		}
	}
}
