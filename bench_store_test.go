// Disk-tier benchmarks: matching latency when the archived history
// lives in on-disk segments rather than RAM. A recorded baseline lives
// in BENCH_store.json.
//
//	BenchmarkFilterSegments   — one matching query against a store-backed
//	                            base split across many segments, swept over
//	                            Query.Workers (the segment-parallel filter
//	                            plus lazy per-candidate refine reads)
//	BenchmarkRefineDiskCached — the same repeated-query workload cold
//	                            (every refine decodes from the segment)
//	                            vs warm (decodes served by the
//	                            decoded-summary cache)
package streamsum

import (
	"fmt"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/match"
)

// BenchmarkFilterSegments mirrors BenchmarkMatchRun but over a base
// whose memory tier is capped at a fraction of the history, so the
// filter phase scans the columns of every segment (in parallel across
// workers) and the refine phase reads candidate summaries from disk. StoreSegmentBytes 1 pins the segment layout by
// disabling merges. Compare against BenchmarkMatchRun at equal workers
// for the cost of serving the same query from disk instead of RAM.
func BenchmarkFilterSegments(b *testing.B) {
	sums := matchFixture(b, matchBaseSize)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			base, err := archive.New(archive.Config{
				Dim:               2,
				StorePath:         b.TempDir(),
				MaxMemBytes:       16 << 10,
				StoreSegmentBytes: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer base.Close()
			for _, s := range sums {
				if _, ok, err := base.Put(s); err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
			ts := base.TierStats()
			if ts.Segments < 2 || ts.SegEntries == 0 {
				b.Fatalf("fixture stayed in memory: %+v", ts)
			}
			snap := base.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := match.Query{
					Target: sums[i%len(sums)], Threshold: matchThreshold,
					Limit: 5, Workers: workers,
				}
				if _, _, err := match.Run(snap, q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ts.Segments), "segments")
		})
	}
}

// BenchmarkRefineDiskCached isolates what the decoded-summary cache buys
// a repeated-query workload: the same disk-backed base and query mix as
// BenchmarkFilterSegments/workers1, run cold (no cache — every refine
// candidate re-decodes its summary blob) and warm (a cache big enough to
// hold the whole decoded history, pre-faulted before timing). The warm
// variant raises MaxMemBytes by the cache budget, so the memory-tier
// carve-out — and with it the tier split and segment layout — is
// identical to the cold one.
func BenchmarkRefineDiskCached(b *testing.B) {
	const memCap = 16 << 10
	const cacheBudget = 8 << 20
	sums := matchFixture(b, matchBaseSize)
	for _, bc := range []struct {
		name  string
		cache int
	}{
		{"cold", 0},
		{"warm", cacheBudget},
	} {
		b.Run(bc.name, func(b *testing.B) {
			base, err := archive.New(archive.Config{
				Dim:               2,
				StorePath:         b.TempDir(),
				MaxMemBytes:       memCap + bc.cache,
				SummaryCacheBytes: bc.cache,
				StoreSegmentBytes: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer base.Close()
			for _, s := range sums {
				if _, ok, err := base.Put(s); err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
			ts := base.TierStats()
			if ts.Segments < 2 || ts.SegEntries == 0 {
				b.Fatalf("fixture stayed in memory: %+v", ts)
			}
			snap := base.Snapshot()
			run := func(i int) {
				q := match.Query{
					Target: sums[i%len(sums)], Threshold: matchThreshold,
					Limit: 5, Workers: 1,
				}
				if _, _, err := match.Run(snap, q); err != nil {
					b.Fatal(err)
				}
			}
			// One full pass over the query mix faults every summary the
			// workload touches into the cache, so the timed region measures
			// the steady state of each configuration.
			for i := 0; i < len(sums); i++ {
				run(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
			b.StopTimer()
			cs := base.TierStats()
			if hm := cs.CacheHits + cs.CacheMisses; hm > 0 {
				b.ReportMetric(float64(cs.CacheHits)/float64(hm), "hit-ratio")
			}
		})
	}
}
