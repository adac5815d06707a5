// Matching-path benchmarks: analyst query latency against the pattern
// base and — the contention metric PR 1 left open — ingest-side Put
// throughput while matching queries run concurrently against the same
// base. A recorded baseline lives in BENCH_match.json.
//
//	BenchmarkMatchRun            — one cluster matching query (filter +
//	                               refine) against a steady-state base
//	BenchmarkPutUnderMatch/...   — archiver Put throughput with K analyst
//	                               goroutines continuously matching
package streamsum

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/match"
	"streamsum/internal/sgs"
)

const (
	matchBaseSize  = 256
	matchThetaR    = 0.5
	matchThetaC    = 3
	matchThreshold = 0.25
)

// matchFixture builds n cluster summaries from deterministic Gaussian
// blobs (one summary per blob, largest cluster wins).
func matchFixture(tb testing.TB, n int) []*sgs.Summary {
	tb.Helper()
	rng := rand.New(rand.NewSource(2011))
	out := make([]*sgs.Summary, 0, n)
	for len(out) < n {
		cx, cy := rng.Float64()*100, rng.Float64()*100
		spread := 0.5 + rng.Float64()
		pts := make([]Point, 150+rng.Intn(150))
		for i := range pts {
			pts[i] = Point{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
		}
		cls, err := SummarizeStatic(pts, matchThetaR, matchThetaC)
		if err != nil {
			tb.Fatal(err)
		}
		best := -1
		for i := range cls {
			if best < 0 || len(cls[i].Members) > len(cls[best].Members) {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		out = append(out, cls[best].Summary)
	}
	return out
}

// matchBaseOf archives every fixture summary into a fresh base whose
// capacity pins the steady-state size at matchBaseSize.
func matchBaseOf(tb testing.TB, sums []*sgs.Summary) *archive.Base {
	tb.Helper()
	b, err := archive.New(archive.Config{Dim: 2, Capacity: matchBaseSize})
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range sums {
		if _, ok, err := b.Put(s); err != nil || !ok {
			tb.Fatalf("ok=%v err=%v", ok, err)
		}
	}
	return b
}

// BenchmarkMatchRun measures one matching query (position-insensitive,
// the paper's default) against a steady-state base, swept over the
// refine phase's worker count; targets cycle through the archived
// population so the filter phase returns real candidates. Multi-core
// hosts should see workersN beat workers1 for N > 1; results are
// byte-identical at every setting.
func BenchmarkMatchRun(b *testing.B) {
	sums := matchFixture(b, matchBaseSize)
	base := matchBaseOf(b, sums)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
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
		})
	}
}

// BenchmarkPutUnderMatch measures archiver-side Put latency while K
// analyst goroutines run matching queries against the same base in a
// closed loop — the mixed read/write traffic a pattern base sees while
// ingestion archives into it. matchers0 is the uncontended baseline.
func BenchmarkPutUnderMatch(b *testing.B) {
	for _, matchers := range []int{0, 2} {
		name := "matchers0"
		if matchers == 2 {
			name = "matchers2"
		}
		b.Run(name, func(b *testing.B) {
			sums := matchFixture(b, matchBaseSize)
			base := matchBaseOf(b, sums)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for m := 0; m < matchers; m++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					for i := m; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := match.Query{Target: sums[i%len(sums)], Threshold: matchThreshold, Limit: 5}
						if _, _, err := match.Run(base, q); err != nil {
							panic(err)
						}
					}
				}(m)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := base.Put(sums[i%len(sums)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "puts/sec")
		})
	}
}

// BenchmarkPutBatchUnderMatch is the per-window append path: one op
// archives a window's worth of summaries via a single PutBatch while two
// analyst goroutines match continuously against the same base.
func BenchmarkPutBatchUnderMatch(b *testing.B) {
	const window = 8
	sums := matchFixture(b, matchBaseSize)
	base := matchBaseOf(b, sums)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := m; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := match.Query{Target: sums[i%len(sums)], Threshold: matchThreshold, Limit: 5}
				if _, _, err := match.Run(base, q); err != nil {
					panic(err)
				}
			}
		}(m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * window) % (len(sums) - window)
		if _, _, err := base.PutBatch(sums[lo : lo+window]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(b.N*window)/b.Elapsed().Seconds(), "puts/sec")
}
