package streamsum

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/gen"
	"streamsum/internal/match"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
)

// tieredStreamEngines feeds the same GMTI stream into a memory-only
// engine and store-backed engines whose memory tiers are capped tightly
// enough that most of the archived history lives on disk. The tiered
// engines differ only in their decoded-summary cache: disabled, normal
// and pathologically small. The cached engines' StoreMaxMemBytes is
// raised by the cache budget — the cache's share is carved out of that
// bound, so this keeps the effective memory-tier cap (and therefore the
// tier split and segment layout) identical across all three.
func tieredStreamEngines(t *testing.T, maxMem int) (memEng *Engine, tierEngs []*Engine) {
	t.Helper()
	memEng = tieredEngine(t, Options{})
	for _, cache := range tieredCacheCfgs {
		tierEngs = append(tierEngs, tieredEngine(t, Options{
			StorePath:         t.TempDir(),
			StoreMaxMemBytes:  maxMem + cache,
			SummaryCacheBytes: cache,
		}))
	}
	data := gen.GMTI(gen.GMTIConfig{Seed: 11}, 16000)
	for lo := 0; lo < len(data.Points); lo += 1000 {
		hi := lo + 1000
		if hi > len(data.Points) {
			hi = len(data.Points)
		}
		for _, eng := range append([]*Engine{memEng}, tierEngs...) {
			if _, err := eng.PushBatch(data.Points[lo:hi], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return memEng, tierEngs
}

const (
	tieredCacheBudget = 8 << 10
	tieredCacheTiny   = 4 << 10 // a few entries per shard at most
)

// tieredCacheCfgs are the SummaryCacheBytes settings of the engines
// tieredStreamEngines returns, in order.
var tieredCacheCfgs = []int{0, tieredCacheBudget, tieredCacheTiny}

func tieredEngine(t *testing.T, extra Options) *Engine {
	t.Helper()
	// A small compaction target keeps the store at several segments even
	// after the background compactor fully catches up (the default
	// 256 KiB target would merge this test's whole history into one).
	opts := Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000,
		Archive:           &ArchiveOptions{StoreSegmentBytes: 8 << 10},
		StorePath:         extra.StorePath,
		StoreMaxMemBytes:  extra.StoreMaxMemBytes,
		SummaryCacheBytes: extra.SummaryCacheBytes,
	}
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTieredMatchIdenticalAcrossWorkers is the acceptance criterion of
// the tiered store: a matching query over a base whose segments exceed
// StoreMaxMemBytes returns results identical to the all-in-memory run at
// every matcher worker count (match.Query.Workers, the fan-out
// Options.Parallelism sets), while the memory tier stays within its cap.
func TestTieredMatchIdenticalAcrossWorkers(t *testing.T) {
	runTieredMatchIdentical(t)
}

// TestTieredMatchIdenticalPread repeats the tiered determinism check
// with memory mapping disabled, so the disk tier's whole read path —
// columnar scans off a heap copy, pooled pread blob loads — is the
// fallback one. Results must still be byte-identical to the all-
// in-memory run at every worker count.
func TestTieredMatchIdenticalPread(t *testing.T) {
	prev := segstore.SetMmapEnabled(false)
	defer segstore.SetMmapEnabled(prev)
	runTieredMatchIdentical(t)
}

func runTieredMatchIdentical(t *testing.T) {
	const maxMem = 32 << 10
	memEng, tierEngs := tieredStreamEngines(t, maxMem)
	defer func() {
		for _, eng := range tierEngs {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}()

	memBase := memEng.PatternBase()
	if memBase.Len() == 0 {
		t.Fatal("empty pattern base")
	}
	for _, eng := range tierEngs {
		tierBase := eng.PatternBase()
		if memBase.Len() != tierBase.Len() {
			t.Fatalf("base sizes: mem %d, tiered %d", memBase.Len(), tierBase.Len())
		}
		// Settle the background demoter so the tier split is deterministic.
		if err := tierBase.DrainDemotions(); err != nil {
			t.Fatal(err)
		}
		ts := tierBase.TierStats()
		// The cache's budget is carved out of the configured bound, which
		// tieredStreamEngines raised by it, so every tier is capped at maxMem.
		if ts.MemBytes > maxMem {
			t.Fatalf("memory tier %d bytes exceeds cap %d", ts.MemBytes, maxMem)
		}
		if ts.MemBytes+ts.SegBytes <= maxMem {
			t.Fatalf("history (%d mem + %d disk bytes) did not grow past the cap %d",
				ts.MemBytes, ts.SegBytes, maxMem)
		}
		if ts.Segments < 2 {
			t.Fatalf("want multiple segments, got %d", ts.Segments)
		}
	}

	type result struct {
		ids   []int64
		dists []float64
		blobs [][]byte
		cand  int
		ref   int
	}
	runOne := func(eng *Engine, target *sgs.Summary, workers int) result {
		ms, stats, err := match.Run(eng.PatternBase().Snapshot(), match.Query{
			Target: target, Threshold: 0.35, Limit: 10, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var r result
		r.cand, r.ref = stats.IndexCandidates, stats.Refined
		for _, m := range ms {
			r.ids = append(r.ids, m.ID)
			r.dists = append(r.dists, m.Distance)
			if m.Entry.Summary == nil {
				t.Fatalf("match %d returned without a materialized summary", m.ID)
			}
			r.blobs = append(r.blobs, sgs.Marshal(m.Entry.Summary))
		}
		return r
	}

	for _, targetID := range []int64{0, int64(memBase.Len()) / 2, int64(memBase.Len()) - 1} {
		e := memBase.Get(targetID)
		if e == nil {
			t.Fatalf("no archived cluster %d", targetID)
		}
		want := runOne(memEng, e.Summary, 1)
		for _, workers := range []int{1, 2, 8} {
			for _, eng := range append([]*Engine{memEng}, tierEngs...) {
				got := runOne(eng, e.Summary, workers)
				if got.cand != want.cand || got.ref != want.ref {
					t.Fatalf("target %d workers %d: stats %d/%d want %d/%d",
						targetID, workers, got.cand, got.ref, want.cand, want.ref)
				}
				if len(got.ids) != len(want.ids) {
					t.Fatalf("target %d workers %d: %d matches want %d", targetID, workers, len(got.ids), len(want.ids))
				}
				for i := range want.ids {
					if got.ids[i] != want.ids[i] || got.dists[i] != want.dists[i] {
						t.Fatalf("target %d workers %d: match %d = (%d, %v) want (%d, %v)",
							targetID, workers, i, got.ids[i], got.dists[i], want.ids[i], want.dists[i])
					}
					if !bytes.Equal(got.blobs[i], want.blobs[i]) {
						t.Fatalf("target %d workers %d: match %d summary bytes differ", targetID, workers, i)
					}
				}
			}
		}
	}

	// The identical results above came from genuinely different residency
	// paths: the uncached engine reports no cache, the cached engines
	// served refine hits while staying inside their byte budgets.
	for i, budget := range tieredCacheCfgs {
		ts := tierEngs[i].PatternBase().TierStats()
		if budget == 0 {
			if ts.CacheBudget != 0 || ts.CacheHits+ts.CacheMisses != 0 {
				t.Fatalf("uncached engine reports cache activity: %+v", ts)
			}
			continue
		}
		if ts.CacheBudget != budget {
			t.Fatalf("engine %d: cache budget %d want %d", i, ts.CacheBudget, budget)
		}
		if ts.CacheMisses == 0 || ts.CacheHits == 0 {
			t.Fatalf("engine %d: cache never exercised: %+v", i, ts)
		}
		if int64(ts.CacheBytes) > int64(budget) {
			t.Fatalf("engine %d: resident cache bytes %d exceed budget %d", i, ts.CacheBytes, budget)
		}
	}
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

// TestNoveltyBatchEquivalence: ArchiveNovelty archiving on the engine
// archives exactly the same summaries as a per-cluster probe loop over a
// plain base, checked against a scan that prunes nothing.
func TestNoveltyBatchEquivalence(t *testing.T) {
	// 0.4 is the original setting; at 0.2 most gate survivors are
	// dismissed by bound instead of searched.
	for _, novelty := range []float64{0.4, 0.2} {
		t.Run(fmt.Sprint(novelty), func(t *testing.T) { testNoveltyBatchEquivalence(t, novelty) })
	}
}

func testNoveltyBatchEquivalence(t *testing.T, novelty float64) {
	collect := func() [][]*sgs.Summary {
		eng, err := New(Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000})
		if err != nil {
			t.Fatal(err)
		}
		data := gen.GMTI(gen.GMTIConfig{Seed: 17}, 14000)
		var windows [][]*sgs.Summary
		add := func(ws []*WindowResult) {
			for _, w := range ws {
				var sums []*sgs.Summary
				for _, c := range w.Clusters {
					if c.Summary != nil {
						sums = append(sums, c.Summary)
					}
				}
				windows = append(windows, sums)
			}
		}
		for lo := 0; lo+1000 <= len(data.Points); lo += 1000 {
			ws, err := eng.PushBatch(data.Points[lo:lo+1000], nil)
			if err != nil {
				t.Fatal(err)
			}
			add(ws)
		}
		w, err := eng.Flush()
		if err != nil {
			t.Fatal(err)
		}
		add([]*WindowResult{w})
		return windows
	}
	windows := collect()

	// Reference: the per-cluster sequential loop (one full query per
	// offered summary, each Put visible to the next probe).
	ref, err := archive.New(archive.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	offered, pruned := 0, 0
	ew := match.EqualWeights()
	for _, sums := range windows {
		for _, s := range sums {
			offered++
			if ref.Len() > 0 {
				ms, st, err := match.Run(ref, match.Query{Target: s, Threshold: novelty, Limit: 1})
				if err != nil {
					t.Fatal(err)
				}
				pruned += st.Pruned
				// The query must agree with a scan that prunes nothing.
				known, sf := false, s.Features().Vector()
				ref.All(func(e *archive.Entry) bool {
					known = match.FeatureDistance(sf, e.Features.Vector(), ew) <= novelty &&
						match.RefineDistance(s, e.Summary, ew, match.DefaultAlignBudget) <= novelty
					return !known
				})
				if known != (len(ms) > 0) {
					t.Fatalf("novelty %g: query found %d matches, unpruned scan says known = %v", novelty, len(ms), known)
				}
				if known {
					continue
				}
			}
			if _, _, err := ref.Put(s); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Engine under test: same stream, batched novelty path.
	eng, err := New(Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000,
		Archive: &ArchiveOptions{}, ArchiveNovelty: novelty,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := gen.GMTI(gen.GMTIConfig{Seed: 17}, 14000)
	for lo := 0; lo+1000 <= len(data.Points); lo += 1000 {
		if _, err := eng.PushBatch(data.Points[lo:lo+1000], nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	base := eng.PatternBase()
	if ref.Len() == 0 || ref.Len() == offered {
		t.Fatalf("weak fixture: novelty filter kept %d of %d offered", ref.Len(), offered)
	}
	if pruned == 0 {
		t.Fatal("no reference query dismissed a pair by bound")
	}
	if base.Len() != ref.Len() {
		t.Fatalf("batched novelty archived %d, sequential reference %d", base.Len(), ref.Len())
	}
	var refBlobs, gotBlobs [][]byte
	ref.All(func(e *archive.Entry) bool { refBlobs = append(refBlobs, sgs.Marshal(e.Summary)); return true })
	base.All(func(e *archive.Entry) bool { gotBlobs = append(gotBlobs, sgs.Marshal(e.Summary)); return true })
	for i := range refBlobs {
		if !bytes.Equal(refBlobs[i], gotBlobs[i]) {
			t.Fatalf("archived summary %d differs from sequential reference", i)
		}
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
