package archive

import (
	"bytes"
	"os"
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
)

// tieredPair archives the same summaries into a memory-only base and a
// store-backed base whose memory tier is capped tightly enough to force
// most of the history onto disk.
func tieredPair(t *testing.T, n int, maxMem int) (mem, tiered *Base, cleanup func()) {
	t.Helper()
	sums := fixtureSummaries(t, n, 91)
	mem, err := New(Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	tiered, err = New(Config{Dim: 2, StorePath: t.TempDir(), MaxMemBytes: maxMem})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums {
		if _, ok, err := mem.Put(s); err != nil || !ok {
			t.Fatalf("mem put: ok=%v err=%v", ok, err)
		}
		if _, ok, err := tiered.Put(s); err != nil || !ok {
			t.Fatalf("tiered put: ok=%v err=%v", ok, err)
		}
	}
	// Settle the background demoter so tier accounting is deterministic.
	if err := tiered.DrainDemotions(); err != nil {
		t.Fatal(err)
	}
	return mem, tiered, func() {
		if err := tiered.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTieredEquivalence: a store-backed base whose history exceeds its
// memory cap answers every read — Len, Bytes, Get, All, both searches —
// identically to an all-in-memory base, while its memory tier stays
// within the cap.
func TestTieredEquivalence(t *testing.T) {
	const maxMem = 8 << 10
	mem, tiered, cleanup := tieredPair(t, 40, maxMem)
	defer cleanup()

	if mem.Len() != tiered.Len() || mem.Bytes() != tiered.Bytes() {
		t.Fatalf("totals diverge: mem %d/%d tiered %d/%d", mem.Len(), mem.Bytes(), tiered.Len(), tiered.Bytes())
	}
	ts := tiered.TierStats()
	if ts.MemBytes > maxMem {
		t.Fatalf("memory tier %d bytes exceeds cap %d", ts.MemBytes, maxMem)
	}
	if ts.SegEntries == 0 || ts.Segments == 0 {
		t.Fatalf("history did not spill to disk: %+v", ts)
	}
	if ts.MemBytes+ts.SegBytes != tiered.Bytes() {
		t.Fatalf("tier bytes %d+%d != total %d", ts.MemBytes, ts.SegBytes, tiered.Bytes())
	}

	// Get returns the same summary from whichever tier holds it.
	memSnap, tierSnap := mem.Snapshot(), tiered.Snapshot()
	for id := int64(0); id < int64(mem.Len()); id++ {
		a, b := memSnap.Get(id), tierSnap.Get(id)
		if a == nil || b == nil {
			t.Fatalf("Get(%d): mem=%v tiered=%v", id, a != nil, b != nil)
		}
		if b.Summary == nil {
			t.Fatalf("Get(%d): tiered entry not materialized", id)
		}
		if !bytes.Equal(marshal(t, a), marshal(t, b)) {
			t.Fatalf("Get(%d): summaries differ across tiers", id)
		}
	}

	// All: same FIFO order, same contents; disk-resident entries load.
	var aIDs, bIDs []int64
	memSnap.All(func(e *Entry) bool { aIDs = append(aIDs, e.ID); return true })
	tierSnap.All(func(e *Entry) bool {
		if _, err := e.LoadSummary(); err != nil {
			t.Fatalf("LoadSummary(%d): %v", e.ID, err)
		}
		bIDs = append(bIDs, e.ID)
		return true
	})
	if len(aIDs) != len(bIDs) {
		t.Fatalf("All: %d vs %d entries", len(aIDs), len(bIDs))
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			t.Fatalf("All order diverges at %d: %d vs %d", i, aIDs[i], bIDs[i])
		}
	}

	// Searches return the same candidate sets.
	probe := memSnap.Get(3)
	ids := func(s *Snapshot, q geom.MBR) map[int64]bool {
		out := map[int64]bool{}
		s.SearchLocation(q, func(e *Entry) bool { out[e.ID] = true; return true })
		return out
	}
	am, bm := ids(memSnap, probe.MBR), ids(tierSnap, probe.MBR)
	if len(am) != len(bm) {
		t.Fatalf("SearchLocation: %d vs %d hits", len(am), len(bm))
	}
	for id := range am {
		if !bm[id] {
			t.Fatalf("SearchLocation: id %d missing from tiered", id)
		}
	}
	lo := [4]float64{0, 0, 0, 0}
	hi := probe.Features.Vector()
	fids := func(s *Snapshot) map[int64]bool {
		out := map[int64]bool{}
		s.SearchFeatures(lo, hi, func(e *Entry) bool { out[e.ID] = true; return true })
		return out
	}
	af, bf := fids(memSnap), fids(tierSnap)
	if len(af) != len(bf) {
		t.Fatalf("SearchFeatures: %d vs %d hits", len(af), len(bf))
	}
	for id := range af {
		if !bf[id] {
			t.Fatalf("SearchFeatures: id %d missing from tiered", id)
		}
	}

	// FilterShards covers both tiers disjointly.
	shards := tierSnap.FilterShards()
	if len(shards) < 2 {
		t.Fatalf("expected memory + segment shards, got %d", len(shards))
	}
	seen := map[int64]int{}
	for _, sh := range shards {
		sh.Search(segstore.Probe{Hi: probe.Features.Vector()}, nil, func(e *Entry) bool {
			seen[e.ID]++
			return true
		})
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("id %d appears in %d shards", id, n)
		}
	}
}

func marshal(t *testing.T, e *Entry) []byte {
	t.Helper()
	sum, err := e.LoadSummary()
	if err != nil {
		t.Fatal(err)
	}
	return sgs.Marshal(sum)
}

// TestTieredSave: the encoded summaries a tiered base yields, in FIFO
// order through Snapshot.All, are byte-identical to those of the
// equivalent memory base — what a reader of the store sees does not
// depend on which tier holds an entry.
func TestTieredSave(t *testing.T) {
	mem, tiered, cleanup := tieredPair(t, 40, 8<<10)
	defer cleanup()
	if tiered.TierStats().SegEntries == 0 {
		t.Fatal("setup: nothing on disk")
	}
	dump := func(b *Base) [][]byte {
		var out [][]byte
		b.Snapshot().All(func(e *Entry) bool {
			out = append(out, marshal(t, e))
			return true
		})
		return out
	}
	a, b := dump(mem), dump(tiered)
	if len(a) != len(b) {
		t.Fatalf("memory base yields %d summaries, tiered %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("summary %d: tiered encoding diverges from memory", i)
		}
	}
}

// TestTieredRemove: removal works in both tiers, disk removals persist
// across reopen, and totals track.
func TestTieredRemove(t *testing.T) {
	dir := t.TempDir()
	sums := fixtureSummaries(t, 20, 92)
	b, err := New(Config{Dim: 2, StorePath: dir, MaxMemBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums {
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatalf("put: ok=%v err=%v", ok, err)
		}
	}
	if err := b.DrainDemotions(); err != nil {
		t.Fatal(err)
	}
	ts := b.TierStats()
	if ts.SegEntries == 0 {
		t.Fatal("setup: nothing on disk")
	}
	// id 0 is the oldest — demoted to disk; the newest id is in memory.
	if !b.Remove(0) {
		t.Fatal("disk-tier remove failed")
	}
	if b.Remove(0) {
		t.Fatal("double remove succeeded")
	}
	newest := int64(len(sums) - 1)
	if !b.Remove(newest) {
		t.Fatal("memory-tier remove failed")
	}
	if b.Len() != len(sums)-2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Get(0) != nil || b.Get(newest) != nil {
		t.Fatal("removed ids still visible")
	}
	if err := b.FlushMem(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: tombstone persisted, contents intact, ids keep growing.
	b2, err := New(Config{Dim: 2, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if b2.Len() != len(sums)-2 {
		t.Fatalf("reopened Len = %d", b2.Len())
	}
	if b2.Get(0) != nil {
		t.Fatal("disk tombstone lost on reopen")
	}
	if e := b2.Get(5); e == nil || e.Summary == nil {
		t.Fatal("reopened entry unreadable")
	}
	id, ok, err := b2.Put(sums[0].Clone())
	if err != nil || !ok {
		t.Fatalf("put after reopen: ok=%v err=%v", ok, err)
	}
	// Ids resume past everything ever committed to the store. The removed
	// newest entry (id 19) never reached disk, so its id is free again —
	// what matters is that no live entry's id is ever reissued.
	if id != int64(len(sums))-1 {
		t.Fatalf("id after reopen = %d, want %d", id, len(sums)-1)
	}
	if e := b2.Get(id); e == nil {
		t.Fatal("reissued id not visible")
	}
}

// TestTieredOversizedEntries: summaries each larger than 7/8 of the
// byte budget must still trigger demotion (regression: a negative
// demotion goal used to read as "unbounded", letting the memory tier
// grow past the cap without bound). At most the incoming entry may be
// resident after each Put.
func TestTieredOversizedEntries(t *testing.T) {
	sums := fixtureSummaries(t, 12, 94)
	maxEntry := 0
	for _, s := range sums {
		if n := len(sgs.Marshal(s)); n > maxEntry {
			maxEntry = n
		}
	}
	cap := maxEntry + maxEntry/16 // > any one entry, < any two
	b, err := New(Config{Dim: 2, StorePath: t.TempDir(), MaxMemBytes: cap})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, s := range sums {
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatalf("put: ok=%v err=%v", ok, err)
		}
		if ts := b.TierStats(); ts.MemBytes > cap {
			t.Fatalf("memory tier %d bytes exceeds cap %d", ts.MemBytes, cap)
		}
	}
	if b.Len() != len(sums) {
		t.Fatalf("Len = %d", b.Len())
	}
}

// TestTieredCapacityDemotes: with a store attached, Capacity pressure
// demotes instead of deleting — total history keeps growing while the
// memory tier stays at the cap.
func TestTieredCapacityDemotes(t *testing.T) {
	sums := fixtureSummaries(t, 30, 93)
	b, err := New(Config{Dim: 2, StorePath: t.TempDir(), Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, s := range sums {
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatalf("put: ok=%v err=%v", ok, err)
		}
	}
	if b.Len() != len(sums) {
		t.Fatalf("history shrank: Len = %d", b.Len())
	}
	if err := b.DrainDemotions(); err != nil {
		t.Fatal(err)
	}
	ts := b.TierStats()
	if ts.MemEntries > 8 {
		t.Fatalf("memory tier %d entries exceeds capacity 8", ts.MemEntries)
	}
	if ts.SegEntries != len(sums)-ts.MemEntries {
		t.Fatalf("tier split %d+%d != %d", ts.MemEntries, ts.SegEntries, len(sums))
	}
	// Oldest entries remain matchable from disk.
	if e := b.Get(0); e == nil || e.Summary == nil {
		t.Fatal("oldest entry lost after capacity demotion")
	}
}

// TestDemoterFailureRestores: when a background demotion flush fails,
// the batch's entries must come back to the memory tier (nothing lost,
// every entry still readable), the error must latch, and subsequent
// Puts must surface it instead of growing past the cap.
func TestDemoterFailureRestores(t *testing.T) {
	dir := t.TempDir()
	sums := fixtureSummaries(t, 30, 95)
	b, err := New(Config{Dim: 2, StorePath: dir, MaxMemBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; n < 15; n++ {
		if _, ok, err := b.Put(sums[n]); err != nil || !ok {
			t.Fatalf("put %d: ok=%v err=%v", n, ok, err)
		}
	}
	if err := b.DrainDemotions(); err != nil {
		t.Fatal(err)
	}
	before := b.Len()

	// Pull the directory out from under the store: open segment fds keep
	// their data readable, but every new segment write fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	var putErr error
	for ; n < len(sums); n++ {
		_, ok, err := b.Put(sums[n])
		if err != nil {
			putErr = err
			break
		}
		if !ok {
			t.Fatalf("put %d skipped", n)
		}
	}
	drainErr := b.DrainDemotions()
	if drainErr == nil && putErr == nil {
		t.Skip("no demotion was triggered against the broken store")
	}
	if drainErr == nil {
		t.Fatal("DrainDemotions reports no error after a failed flush")
	}
	// Every successfully archived entry is still there and readable —
	// the failed batch was restored, not dropped.
	want := before + (n - 15)
	if b.Len() != want {
		t.Fatalf("Len = %d after failed demotion, want %d", b.Len(), want)
	}
	snap := b.Snapshot()
	seen := 0
	snap.All(func(e *Entry) bool {
		if _, err := e.LoadSummary(); err != nil {
			t.Fatalf("entry %d unreadable after restore: %v", e.ID, err)
		}
		seen++
		return true
	})
	if seen != want {
		t.Fatalf("All visited %d entries, want %d", seen, want)
	}
	// The error is latched: the base fail-stops instead of growing.
	if _, _, err := b.Put(sums[0].Clone()); err == nil {
		t.Fatal("Put succeeded after a latched demotion failure")
	}
	_ = b.Close()
}

// TestMemTierBound: during demotion-heavy ingest with interleaved disk
// reads, the memory tier never holds more than MaxMemBytes once the
// demoter has drained, and loading the whole disk tier adds nothing to
// it (disk-resident summaries decode per load and are not retained).
func TestMemTierBound(t *testing.T) {
	const maxMem = 8 << 10
	sums := fixtureSummaries(t, 48, 96)
	b, err := New(Config{Dim: 2, StorePath: t.TempDir(), MaxMemBytes: maxMem})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i, s := range sums {
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatalf("put %d: ok=%v err=%v", i, ok, err)
		}
		if i%6 != 5 {
			continue
		}
		if err := b.DrainDemotions(); err != nil {
			t.Fatal(err)
		}
		b.Snapshot().All(func(e *Entry) bool {
			if _, err := e.LoadSummary(); err != nil {
				t.Fatalf("load %d: %v", e.ID, err)
			}
			return true
		})
		if ts := b.TierStats(); ts.MemBytes > maxMem {
			t.Fatalf("after put %d: memory tier %d bytes exceeds MaxMemBytes %d", i, ts.MemBytes, maxMem)
		}
	}
	if ts := b.TierStats(); ts.SegEntries == 0 {
		t.Fatalf("ingest never demoted: %+v", ts)
	}
}

// TestRemoveThenCompactReloads: removing most of a segment's records
// makes it tombstone-heavy, the compactor rewrites it, and every
// surviving entry then reloads from the rewritten segment byte-identical
// to what it decoded to before.
func TestRemoveThenCompactReloads(t *testing.T) {
	sums := fixtureSummaries(t, 40, 98)
	// A one-byte compaction target keeps every segment "full", so the
	// background compactor never merges them behind the test's back; the
	// only compaction that can fire is the tombstone-driven rewrite the
	// test provokes below.
	b, err := New(Config{Dim: 2, StorePath: t.TempDir(), StoreSegmentBytes: 1, MaxMemBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, s := range sums {
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatalf("put: ok=%v err=%v", ok, err)
		}
	}
	if err := b.DrainDemotions(); err != nil {
		t.Fatal(err)
	}
	if ts := b.TierStats(); ts.Segments < 2 {
		t.Fatalf("setup: want multiple segments, got %d", ts.Segments)
	}
	blobs := map[int64][]byte{}
	b.Snapshot().All(func(e *Entry) bool {
		blobs[e.ID] = marshal(t, e)
		return true
	})

	// Remove just over half of the first segment's bytes.
	recs := b.store.View().Segments()[0].Records()
	total, dead, removed := 0, 0, 0
	for _, r := range recs {
		total += int(r.Len)
	}
	for _, r := range recs {
		if dead*2 > total {
			break
		}
		if !b.Remove(r.ID) {
			t.Fatalf("remove %d failed", r.ID)
		}
		dead += int(r.Len)
		removed++
	}
	if removed == len(recs) {
		t.Fatal("setup: removed the whole segment, nothing left to rewrite")
	}
	if err := b.store.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if ts := b.TierStats(); ts.Compactions == 0 {
		t.Fatalf("tombstone-heavy segment was not rewritten: %+v", ts)
	}
	seen := 0
	b.Snapshot().All(func(e *Entry) bool {
		if !bytes.Equal(blobs[e.ID], marshal(t, e)) {
			t.Fatalf("entry %d differs after compaction", e.ID)
		}
		seen++
		return true
	})
	if seen != len(blobs)-removed {
		t.Fatalf("reload visited %d entries, want %d", seen, len(blobs)-removed)
	}
}
