package match

import (
	"math/rand"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/sgs"
	"streamsum/internal/trace"
)

// buildTieredBase archives n clusters into a store-backed base and
// flushes them all to disk, so queries exercise the disk shards.
func buildTieredBase(t *testing.T, n int, seed int64) (*archive.Base, []*sgs.Summary) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := archive.New(archive.Config{Dim: 2, StorePath: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	var sums []*sgs.Summary
	for i := 0; i < n; i++ {
		pts := blob(rng, 150+rng.Intn(150), rng.Float64()*100, rng.Float64()*100, 0.5+rng.Float64())
		s := summarize(t, pts, int64(i))
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	if err := b.FlushMem(); err != nil {
		t.Fatal(err)
	}
	return b, sums
}

// runTraced runs one query recording into a standalone trace and
// returns the finished span tree.
func runTraced(t *testing.T, snap *archive.Snapshot, q Query) (trace.TraceData, []Match, Stats) {
	t.Helper()
	tr := trace.New(trace.Match, "query", trace.ID{})
	q.Trace = tr
	matches, st, err := Run(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	td, ok := tr.Finish()
	if !ok {
		t.Fatal("trace did not export")
	}
	return td, matches, st
}

// attr fetches an integer span attribute, failing the test if absent.
func attr(t *testing.T, sd *trace.SpanData, key string) int64 {
	t.Helper()
	if sd == nil {
		t.Fatal("span missing")
	}
	v, ok := sd.Int(key)
	if !ok {
		t.Fatalf("span %q has no attr %q: %+v", sd.Name, key, sd.Attrs)
	}
	return v
}

// TestTraceFilled pins the Query.Trace contract: the query records
// filter/refine/order phase spans with positive wall times, one child
// span per filter shard carrying segment identity and zone admission,
// and refine-phase disk-load attribution as span attributes.
func TestTraceFilled(t *testing.T) {
	b, sums := buildTieredBase(t, 20, 11)
	snap := b.Snapshot()

	td, matches, st := runTraced(t, snap, Query{Target: sums[0], Threshold: 0.2})
	if len(matches) == 0 {
		t.Fatal("no matches for the target's own archived copy")
	}
	filter, refine, order := td.Span("filter"), td.Span("refine"), td.Span("order")
	if filter == nil || refine == nil || order == nil {
		t.Fatalf("phase spans missing: %+v", td.Spans)
	}
	if filter.DurNS <= 0 || refine.DurNS <= 0 || order.DurNS <= 0 {
		t.Fatalf("phase times not recorded: %d %d %d", filter.DurNS, refine.DurNS, order.DurNS)
	}

	shards := snap.FilterShards()
	if got := attr(t, filter, "shards"); got != int64(len(shards)) {
		t.Fatalf("filter shards attr %d, want %d", got, len(shards))
	}
	kids := td.Children(filter.ID)
	if len(kids) != len(shards) {
		t.Fatalf("%d per-shard child spans, want %d", len(kids), len(shards))
	}
	segs := len(shards) - 1 // minus the memory shard
	probed, skipped := attr(t, filter, "segments_probed"), attr(t, filter, "segments_skipped")
	if probed+skipped != int64(segs) {
		t.Fatalf("probed %d + skipped %d != %d disk shards", probed, skipped, segs)
	}
	if probed == 0 {
		t.Fatal("query that found matches probed no segments")
	}
	// Per-shard spans: exactly one memory shard labeled "mem" without a
	// zone attribute; segment shards carry their file label and a
	// zone_skip flag consistent with the aggregate counts.
	mem, zoneSkips := 0, int64(0)
	for i := range kids {
		label, ok := kids[i].Str("segment")
		if !ok {
			t.Fatalf("shard span without segment label: %+v", kids[i].Attrs)
		}
		if label == "mem" {
			mem++
			if _, ok := kids[i].Bool("zone_skip"); ok {
				t.Error("memory shard carries a zone_skip attribute")
			}
			continue
		}
		if skip, ok := kids[i].Bool("zone_skip"); !ok {
			t.Errorf("segment shard %q without zone_skip", label)
		} else if skip {
			zoneSkips++
		}
	}
	if mem != 1 {
		t.Fatalf("%d memory shard spans, want 1", mem)
	}
	if zoneSkips != skipped {
		t.Fatalf("per-shard zone skips %d != aggregate %d", zoneSkips, skipped)
	}

	// Every refine candidate is disk-resident here, so each one was
	// either decoded from its segment or dismissed by the size bound
	// before any load — never both.
	loads, sizePruned := attr(t, refine, "disk_loads"), attr(t, refine, "size_pruned")
	if loads+sizePruned != int64(st.Refined) {
		t.Fatalf("disk loads %d + size-pruned %d != refined %d", loads, sizePruned, st.Refined)
	}
	if got := attr(t, refine, "pruned"); got != int64(st.Pruned) || st.Pruned > st.Refined || sizePruned > got {
		t.Fatalf("refine pruned attr %d (%d by size), stats %d pruned of %d refined", got, sizePruned, st.Pruned, st.Refined)
	}
	if got := attr(t, order, "matches"); got != int64(len(matches)) {
		t.Fatalf("order matches attr %d, want %d", got, len(matches))
	}

	// Nothing retains a decoded disk summary: a repeat of the same query
	// against the same snapshot loads everything it loaded before again.
	td2, _, _ := runTraced(t, snap, Query{Target: sums[0], Threshold: 0.2})
	if l := attr(t, td2.Span("refine"), "disk_loads"); l != loads {
		t.Fatalf("repeat query: disk loads %d, want %d", l, loads)
	}
}

// TestTraceZoneSkip drives a query whose feature range cannot intersect
// a far-away segment's zone and checks the skip is attributed.
func TestTraceZoneSkip(t *testing.T) {
	b, _ := buildTieredBase(t, 6, 12)
	// A position-sensitive query overlapping nothing at a remote location:
	// every segment zone must reject it.
	rng := rand.New(rand.NewSource(99))
	far := summarize(t, blob(rng, 200, 5000, 5000, 0.8), 100)
	w := EqualWeights()
	w.PositionSensitive = true
	td, _, _ := runTraced(t, b.Snapshot(), Query{Target: far, Threshold: 0.3, Weights: &w})
	filter := td.Span("filter")
	if got := attr(t, filter, "segments_skipped"); got == 0 {
		t.Fatalf("remote query skipped no segments: %+v", filter.Attrs)
	}
	if got := attr(t, filter, "segments_probed"); got != 0 {
		t.Fatalf("remote query probed %d segments, want 0", got)
	}
}

// TestTraceDeterminism: recording a trace must not change the query's
// results or statistics.
func TestTraceDeterminism(t *testing.T) {
	b, sums := buildTieredBase(t, 12, 13)
	snap := b.Snapshot()
	plain, pst, err := Run(snap, Query{Target: sums[3], Threshold: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	_, traced, tst := runTraced(t, snap, Query{Target: sums[3], Threshold: 0.35})
	if pst != tst {
		t.Fatalf("stats differ: %+v vs %+v", pst, tst)
	}
	if len(plain) != len(traced) {
		t.Fatalf("match counts differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i].ID != traced[i].ID || plain[i].Distance != traced[i].Distance {
			t.Fatalf("match %d differs: %+v vs %+v", i, plain[i], traced[i])
		}
	}
}

// TestTraceProfilePruned: the refine span's profile_pruned attribute
// counts the pairs the profile stage dismissed — some of the pruned ones
// over a memory-tier base, none over a disk-resident one, whose entries
// carry no profile.
func TestTraceProfilePruned(t *testing.T) {
	mem, sums := buildBase(t, 40, 12)
	disk, diskSums := buildTieredBase(t, 20, 11)
	for _, c := range []struct {
		name string
		snap *archive.Snapshot
		sums []*sgs.Summary
	}{{"memory", mem.Snapshot(), sums}, {"disk", disk.Snapshot(), diskSums}} {
		var stage int64
		for _, target := range c.sums[:6] {
			td, _, st := runTraced(t, c.snap, Query{Target: target, Threshold: 0.2})
			refine := td.Span("refine")
			n, pruned, bySize := attr(t, refine, "profile_pruned"), attr(t, refine, "pruned"), attr(t, refine, "size_pruned")
			if pruned != int64(st.Pruned) || n+bySize > pruned {
				t.Fatalf("%s: profile_pruned %d + size_pruned %d > pruned %d (stats %+v)", c.name, n, bySize, pruned, st)
			}
			stage += n
		}
		if (stage > 0) != (c.name == "memory") {
			t.Fatalf("%s base: profile stage dismissed %d pairs", c.name, stage)
		}
	}
}
