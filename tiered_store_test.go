package streamsum

import (
	"math"
	"slices"
	"sync"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/gen"
	"streamsum/internal/sgs"
)

func tieredEngine(t *testing.T, extra Options) *Engine {
	t.Helper()
	// A small compaction target keeps the store at several segments even
	// after the background compactor fully catches up (the default
	// 256 KiB target would merge this test's whole history into one).
	opts := Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000,
		Archive:          &ArchiveOptions{StoreSegmentBytes: 8 << 10},
		StorePath:        extra.StorePath,
		StoreMaxMemBytes: extra.StoreMaxMemBytes,
	}
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTieredConcurrentMatch drives store-backed ingestion (demotions,
// segment flushes, background compactions) while analyst goroutines
// match continuously against the same base — run under -race in CI.
func TestTieredConcurrentMatch(t *testing.T) {
	eng := tieredEngine(t, Options{StorePath: t.TempDir(), StoreMaxMemBytes: 24 << 10})
	data := gen.GMTI(gen.GMTIConfig{Seed: 5}, 12000)

	// A static target, independent of the stream.
	cls, err := SummarizeStatic(func() []Point {
		var pts []Point
		for i := 0; i < 400; i++ {
			pts = append(pts, Point{30 + float64(i%20)*0.3, 30 + float64(i/20)*0.3})
		}
		return pts
	}(), 1.0, 4)
	if err != nil || len(cls) == 0 {
		t.Fatalf("no static target: %v", err)
	}
	target := cls[0].Summary

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for m := 0; m < 3; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := eng.Match(MatchOptions{Target: target, Threshold: 0.4, Limit: 5}); err != nil {
					panic(err)
				}
			}
		}()
	}
	for lo := 0; lo+1000 <= len(data.Points); lo += 1000 {
		if _, err := eng.PushBatch(data.Points[lo:lo+1000], nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	ts := eng.PatternBase().TierStats()
	if ts.SegEntries == 0 {
		t.Fatalf("history never spilled to disk: %+v", ts)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreReopenRoundTrip: the segment store is the engine's on-disk
// form of the pattern base. An engine archives a GMTI stream into a
// store and is closed; a new engine over the same directory answers the
// same Match queries with identical ids and distance bits, and archives
// its next cluster under the id after the old maximum.
func TestStoreReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{StorePath: dir, StoreMaxMemBytes: 6 << 10}
	data := gen.GMTI(gen.GMTIConfig{Seed: 13}, 12000)
	push := func(eng *Engine, lo, hi int) {
		for ; lo < hi; lo += 1000 {
			if _, err := eng.PushBatch(data.Points[lo:min(lo+1000, hi)], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng := tieredEngine(t, opts)
	push(eng, 0, 6000)
	if err := eng.PatternBase().DrainDemotions(); err != nil {
		t.Fatal(err)
	}

	var ids []int64
	eng.PatternBase().All(func(e *archive.Entry) bool { ids = append(ids, e.ID); return true })
	if len(ids) < 8 || eng.PatternBase().TierStats().SegEntries == 0 {
		t.Fatalf("setup: %d clusters archived, %+v", len(ids), eng.PatternBase().TierStats())
	}
	maxID := ids[len(ids)-1]
	var targets []*sgs.Summary
	for _, id := range []int64{ids[0], ids[len(ids)/2], maxID} {
		sum, err := eng.PatternBase().Get(id).LoadSummary()
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, sum)
	}
	type hit struct {
		id   int64
		bits uint64
	}
	results := func(eng *Engine) [][]hit {
		var out [][]hit
		for _, target := range targets {
			ms, _, err := eng.Match(MatchOptions{Target: target, Threshold: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			var hs []hit
			for _, m := range ms {
				hs = append(hs, hit{m.ID, math.Float64bits(m.Distance)})
			}
			out = append(out, hs)
		}
		return out
	}
	before := results(eng)
	if n := len(before[0]) + len(before[1]) + len(before[2]); n <= len(targets) {
		t.Fatalf("only %d hits for %d targets; the queries check nothing", n, len(targets))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2 := tieredEngine(t, opts)
	defer eng2.Close()
	if n := eng2.PatternBase().Len(); n != len(ids) {
		t.Fatalf("reopened base holds %d clusters, %d were archived", n, len(ids))
	}
	after := results(eng2)
	for i := range before {
		if !slices.Equal(before[i], after[i]) {
			t.Fatalf("target %d: matches after reopen %v, before %v", i, after[i], before[i])
		}
	}

	push(eng2, 6000, len(data.Points))
	var fresh []int64
	eng2.PatternBase().All(func(e *archive.Entry) bool {
		if e.ID > maxID {
			fresh = append(fresh, e.ID)
		}
		return true
	})
	if len(fresh) == 0 || fresh[0] != maxID+1 {
		t.Fatalf("ids archived after reopen %v, want a run starting at %d", fresh, maxID+1)
	}
}
