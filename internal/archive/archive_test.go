package archive

import (
	"math/rand"
	"strings"
	"testing"

	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
)

// fixtureSummaries builds n valid summaries from random clustered data.
func fixtureSummaries(t testing.TB, n int, seed int64) []*sgs.Summary {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	thetaR := 0.5
	geo, err := grid.NewGeometry(2, thetaR)
	if err != nil {
		t.Fatal(err)
	}
	var out []*sgs.Summary
	for len(out) < n {
		cx, cy := rng.Float64()*50, rng.Float64()*50
		var pts []geom.Point
		for i := 0; i < 80+rng.Intn(80); i++ {
			pts = append(pts, geom.Point{cx + rng.NormFloat64()*0.8, cy + rng.NormFloat64()*0.8})
		}
		ids := make([]int64, len(pts))
		for i := range ids {
			ids[i] = int64(i)
		}
		res, err := dbscan.Run(pts, ids, dbscan.Params{ThetaR: thetaR, ThetaC: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range res.Clusters {
			var cpts []geom.Point
			var isCore []bool
			for _, id := range cl.Members {
				cpts = append(cpts, pts[id])
				isCore = append(isCore, res.IsCore[id])
			}
			s, err := sgs.FromCluster(geo, cpts, isCore, int64(len(out)), 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func TestPutGetRemove(t *testing.T) {
	b, err := New(Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	sums := fixtureSummaries(t, 10, 1)
	var ids []int64
	for _, s := range sums {
		id, ok, err := b.Put(s)
		if err != nil || !ok {
			t.Fatalf("Put: ok=%v err=%v", ok, err)
		}
		ids = append(ids, id)
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
	e := b.Get(ids[3])
	if e == nil || e.Summary.NumCells() != sums[3].NumCells() {
		t.Fatalf("Get returned %+v", e)
	}
	if b.Get(999) != nil {
		t.Fatal("Get(999) should be nil")
	}
	before := b.Bytes()
	if !b.Remove(ids[3]) {
		t.Fatal("Remove failed")
	}
	if b.Remove(ids[3]) {
		t.Fatal("double Remove succeeded")
	}
	if b.Len() != 9 || b.Bytes() >= before {
		t.Fatalf("Len=%d Bytes=%d", b.Len(), b.Bytes())
	}
}

func TestPutValidation(t *testing.T) {
	b, _ := New(Config{Dim: 2})
	if _, _, err := b.Put(nil); err == nil {
		t.Error("nil summary accepted")
	}
	if _, _, err := b.Put(&sgs.Summary{Dim: 2, Side: 1}); err == nil {
		t.Error("empty summary accepted")
	}
	wrong := fixtureSummaries(t, 1, 2)[0]
	b3, _ := New(Config{Dim: 3})
	if _, _, err := b3.Put(wrong); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // "" = accepted; otherwise a substring of the error
	}{
		{"missing dim", Config{}, "dimension"},
		{"level without theta", Config{Dim: 2, Level: 1}, "theta"},
		{"bad sample rate", Config{Dim: 2, SampleRate: 1.5}, "sample rate"},
		{"negative level", Config{Dim: 2, Level: -1}, "level"},
		{"negative capacity", Config{Dim: 2, Capacity: -1}, "Capacity"},
		{"negative mem bound", Config{Dim: 2, StorePath: dir, MaxMemBytes: -1}, "MaxMemBytes"},
		{"mem bound without store", Config{Dim: 2, MaxMemBytes: 1 << 10}, "StorePath"},
	}
	for _, c := range cases {
		b, err := New(c.cfg)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case err != nil && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.wantErr)
		}
		if b != nil {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCacheConfigValidation: the deprecated SummaryCacheBytes is accepted
// and ignored, with or without a store and at any size relative to
// MaxMemBytes, and a base built with it reports no cache activity after
// its disk tier is read back.
func TestCacheConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Dim: 2, SummaryCacheBytes: 1 << 10},
		{Dim: 2, StorePath: t.TempDir(), MaxMemBytes: 4 << 10, SummaryCacheBytes: 4 << 10},
		{Dim: 2, StorePath: t.TempDir(), MaxMemBytes: 4 << 10, SummaryCacheBytes: 8 << 10},
	} {
		b, err := New(cfg)
		if err != nil {
			t.Fatalf("%+v: rejected: %v", cfg, err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := New(Config{Dim: 2, StorePath: t.TempDir(), MaxMemBytes: 2 << 10, SummaryCacheBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i, s := range fixtureSummaries(t, 24, 97) {
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatalf("put %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := b.DrainDemotions(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		b.Snapshot().All(func(e *Entry) bool {
			if _, err := e.LoadSummary(); err != nil {
				t.Fatalf("load %d: %v", e.ID, err)
			}
			return true
		})
	}
	ts := b.TierStats()
	if ts.SegEntries == 0 {
		t.Fatalf("ingest never demoted: %+v", ts)
	}
	if ts.CacheHits != 0 || ts.CacheMisses != 0 || ts.CacheEvicted != 0 {
		t.Fatalf("ignored cache budget shows activity: %+v", ts)
	}
}

func TestSelectiveArchiving(t *testing.T) {
	sums := fixtureSummaries(t, 30, 3)
	// Feature predicate: population threshold.
	minPop := 0
	for _, s := range sums {
		if p := s.TotalPopulation(); p > minPop {
			minPop = p
		}
	}
	b, _ := New(Config{Dim: 2, MinPopulation: minPop + 1})
	for _, s := range sums {
		if _, ok, _ := b.Put(s); ok {
			t.Fatal("population filter failed")
		}
	}
	// Sampling keeps roughly the configured fraction.
	b2, _ := New(Config{Dim: 2, SampleRate: 0.5, Seed: 42})
	kept := 0
	for i := 0; i < 10; i++ {
		for _, s := range sums {
			if _, ok, _ := b2.Put(s); ok {
				kept++
			}
		}
	}
	if kept < 100 || kept > 200 {
		t.Fatalf("sampling kept %d of 300", kept)
	}
}

func TestCapacityEviction(t *testing.T) {
	b, _ := New(Config{Dim: 2, Capacity: 5})
	sums := fixtureSummaries(t, 12, 4)
	var ids []int64
	for _, s := range sums {
		id, ok, err := b.Put(s)
		if err != nil || !ok {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d, want 5", b.Len())
	}
	for _, id := range ids[:7] {
		if b.Get(id) != nil {
			t.Fatalf("evicted id %d still present", id)
		}
	}
	for _, id := range ids[7:] {
		if b.Get(id) == nil {
			t.Fatalf("recent id %d missing", id)
		}
	}
}

func TestResolutionSelection(t *testing.T) {
	sums := fixtureSummaries(t, 5, 5)
	// Fixed level.
	b, _ := New(Config{Dim: 2, Level: 1, Theta: 3})
	id, ok, err := b.Put(sums[0])
	if err != nil || !ok {
		t.Fatal(err)
	}
	if got := b.Get(id).Summary.Level; got != 1 {
		t.Fatalf("stored level = %d", got)
	}
	// Byte budget.
	budget := 200
	b2, _ := New(Config{Dim: 2, ByteBudget: budget, Theta: 2})
	for _, s := range sums {
		id, ok, err := b2.Put(s)
		if err != nil || !ok {
			t.Fatal(err)
		}
		e := b2.Get(id)
		if e.Bytes > budget && e.Summary.NumCells() > 1 {
			t.Fatalf("stored %d bytes over budget %d with %d cells", e.Bytes, budget, e.Summary.NumCells())
		}
	}
}

func TestSearchLocationAndFeatures(t *testing.T) {
	b, _ := New(Config{Dim: 2})
	sums := fixtureSummaries(t, 20, 6)
	type info struct {
		id int64
		e  *Entry
	}
	var infos []info
	for _, s := range sums {
		id, ok, err := b.Put(s)
		if err != nil || !ok {
			t.Fatal(err)
		}
		infos = append(infos, info{id, b.Get(id)})
	}
	// Location search: querying an entry's own MBR must return it.
	for _, in := range infos[:5] {
		found := false
		b.Snapshot().SearchLocation(in.e.MBR, func(e *Entry) bool {
			if e.ID == in.id {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("entry %d not found by its own MBR", in.id)
		}
	}
	// Feature search: a tight box around an entry's own features finds it.
	for _, in := range infos[:5] {
		v := in.e.Features.Vector()
		var lo, hi [4]float64
		for d := 0; d < 4; d++ {
			lo[d], hi[d] = v[d]*0.99, v[d]*1.01+1e-9
		}
		found := false
		b.Snapshot().SearchFeatures(lo, hi, func(e *Entry) bool {
			if e.ID == in.id {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("entry %d not found by its own features", in.id)
		}
	}
	// All() visits everything in order.
	count := 0
	prev := int64(-1)
	b.All(func(e *Entry) bool {
		if e.ID <= prev {
			t.Fatal("All order not FIFO by id")
		}
		prev = e.ID
		count++
		return true
	})
	if count != 20 {
		t.Fatalf("All visited %d", count)
	}
}

func TestConcurrentAccess(t *testing.T) {
	b, _ := New(Config{Dim: 2})
	sums := fixtureSummaries(t, 40, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, s := range sums {
			_, _, _ = b.Put(s)
		}
	}()
	for i := 0; i < 100; i++ {
		b.All(func(e *Entry) bool { return true })
		b.Snapshot().SearchFeatures([4]float64{0, 0, 0, 0},
			[4]float64{1e9, 1e9, 1e9, 1e9}, func(e *Entry) bool { return true })
	}
	<-done
	if b.Len() != 40 {
		t.Fatalf("Len = %d", b.Len())
	}
}
