package archive

import (
	"bytes"
	"testing"

	"streamsum/internal/sgs"
)

// TestCacheConfigValidation: the cache requires a disk tier (memory-tier
// summaries are already decoded) and its budget is carved out of
// MaxMemBytes, so it must leave room for the tier itself.
func TestCacheConfigValidation(t *testing.T) {
	if _, err := New(Config{Dim: 2, SummaryCacheBytes: 1 << 10}); err == nil {
		t.Fatal("SummaryCacheBytes without StorePath accepted")
	}
	if _, err := New(Config{
		Dim: 2, StorePath: t.TempDir(), MaxMemBytes: 4 << 10, SummaryCacheBytes: 4 << 10,
	}); err == nil {
		t.Fatal("SummaryCacheBytes == MaxMemBytes accepted")
	}
	b, err := New(Config{
		Dim: 2, StorePath: t.TempDir(), MaxMemBytes: 8 << 10, SummaryCacheBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
}

// TestCacheSharesMemBudget is the budget half of the residency contract:
// during demotion-heavy ingest with interleaved disk reads, the memory
// tier plus the decoded-summary cache never exceed MaxMemBytes — the
// cache's share is carved out of the bound, not added on top. A zero
// budget disables the cache and gives the tier the whole bound.
func TestCacheSharesMemBudget(t *testing.T) {
	for _, cacheBudget := range []int{0, 4 << 10} {
		runCacheSharesMemBudget(t, cacheBudget)
	}
}

func runCacheSharesMemBudget(t *testing.T, cacheBudget int) {
	const maxMem = 8 << 10
	sums := fixtureSummaries(t, 48, 96)
	b, err := New(Config{
		Dim: 2, StorePath: t.TempDir(),
		MaxMemBytes: maxMem, SummaryCacheBytes: cacheBudget,
	})
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
		// Settle in-flight demotions, then fault the whole disk tier into
		// the cache — the worst case for the shared bound.
		if err := b.DrainDemotions(); err != nil {
			t.Fatal(err)
		}
		snap := b.Snapshot()
		snap.All(func(e *Entry) bool {
			if _, err := e.LoadSummary(); err != nil {
				t.Fatalf("load %d: %v", e.ID, err)
			}
			return true
		})
		ts := b.TierStats()
		if ts.MemBytes+ts.CacheBytes > maxMem {
			t.Fatalf("after put %d: mem %d + cache %d exceeds MaxMemBytes %d",
				i, ts.MemBytes, ts.CacheBytes, maxMem)
		}
	}
	ts := b.TierStats()
	if ts.SegEntries == 0 {
		t.Fatalf("ingest never demoted: %+v", ts)
	}
	if ts.CacheBudget != cacheBudget {
		t.Fatalf("cache budget %d want %d", ts.CacheBudget, cacheBudget)
	}
	if (ts.CacheMisses == 0) != (cacheBudget == 0) {
		t.Fatalf("budget %d: cache misses %d", cacheBudget, ts.CacheMisses)
	}
}

// TestCacheInvalidatedOnRemove: removing a disk-resident entry uncharges
// its cached decode — the summary must not stay resident (or billed)
// after the record is tombstoned.
func TestCacheInvalidatedOnRemove(t *testing.T) {
	sums := fixtureSummaries(t, 40, 97)
	// The cache stripes its budget across shards, so each shard's share
	// must fit whole summaries (a few hundred bytes each) for decodes to
	// be retained at all. A one-byte compaction target stops the
	// background compactor from merging (and so retiring, with its cached
	// decodes) the segment the test reads from while it reads.
	b, err := New(Config{
		Dim: 2, StorePath: t.TempDir(), StoreSegmentBytes: 1,
		MaxMemBytes: 16 << 10, SummaryCacheBytes: 8 << 10,
	})
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
	if ts := b.TierStats(); ts.SegEntries == 0 {
		t.Fatal("setup: nothing on disk")
	}
	// id 0 is the oldest entry, demoted to disk; Get materializes it
	// through the cache.
	if e := b.Get(0); e == nil || e.Summary == nil {
		t.Fatal("setup: disk entry unreadable")
	}
	before := b.TierStats()
	if before.CacheEntries == 0 || before.CacheBytes == 0 {
		t.Fatalf("setup: nothing cached: %+v", before)
	}
	if !b.Remove(0) {
		t.Fatal("remove failed")
	}
	after := b.TierStats()
	if after.CacheEntries != before.CacheEntries-1 || after.CacheBytes >= before.CacheBytes {
		t.Fatalf("remove left the decode resident: before %+v after %+v", before, after)
	}
}

// TestCacheInvalidatedOnCompaction: compaction retires segments, and the
// cache keys decodes by segment — every entry decoded from a retired
// segment must be dropped (OnRetire), including the live ones, and
// reloads through the rewritten segment must be byte-identical.
func TestCacheInvalidatedOnCompaction(t *testing.T) {
	sums := fixtureSummaries(t, 40, 98)
	// A one-byte compaction target keeps every segment "full", so the
	// background compactor never merges them behind the test's back; the
	// only compaction that can fire is the tombstone-driven rewrite the
	// test provokes below.
	b, err := New(Config{
		Dim: 2, StorePath: t.TempDir(), StoreSegmentBytes: 1,
		MaxMemBytes: 16 << 10, SummaryCacheBytes: 12 << 10,
	})
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
	// Fault the disk tier into the cache and keep reference copies.
	blobs := map[int64][]byte{}
	snap := b.Snapshot()
	snap.All(func(e *Entry) bool {
		sum, err := e.LoadSummary()
		if err != nil {
			t.Fatalf("load %d: %v", e.ID, err)
		}
		blobs[e.ID] = sgs.Marshal(sum)
		return true
	})
	loaded := b.TierStats()
	if loaded.CacheEntries == 0 || loaded.CacheEvicted != 0 {
		t.Fatalf("setup: want everything cached without eviction: %+v", loaded)
	}

	// Make the first segment tombstone-heavy (> half its bytes dead):
	// Remove invalidates each removed id as it goes, and the rewrite then
	// retires the segment, which must drop its surviving live decodes too.
	seg0 := b.store.View().Segments()[0]
	recs := seg0.Records()
	total, dead := 0, 0
	removed := 0
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
		t.Fatal("setup: removed the whole segment, nothing left to retire live")
	}
	if err := b.store.CompactNow(); err != nil {
		t.Fatal(err)
	}
	ts := b.TierStats()
	if ts.Compactions == 0 {
		t.Fatalf("tombstone-heavy segment was not rewritten: %+v", ts)
	}
	// The retired segment's live entries were resident before the rewrite
	// and must be gone after: exactly removed + survivors fewer decodes.
	wantEntries := loaded.CacheEntries - len(recs)
	if ts.CacheEntries != wantEntries {
		t.Fatalf("cache holds %d entries after retirement, want %d (%+v)",
			ts.CacheEntries, wantEntries, ts)
	}
	// Reloads decode from the rewritten segment, byte-identical.
	snap = b.Snapshot()
	seen := 0
	snap.All(func(e *Entry) bool {
		sum, err := e.LoadSummary()
		if err != nil {
			t.Fatalf("reload %d: %v", e.ID, err)
		}
		if !bytes.Equal(blobs[e.ID], sgs.Marshal(sum)) {
			t.Fatalf("entry %d differs after compaction", e.ID)
		}
		seen++
		return true
	})
	if seen != len(blobs)-removed {
		t.Fatalf("reload visited %d entries, want %d", seen, len(blobs)-removed)
	}
}
