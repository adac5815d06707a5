package core

import (
	"fmt"
	"math/rand"
	"testing"

	"streamsum/internal/window"
)

// BenchmarkPushSteadyState measures the per-tuple insertion cost of C-SGS
// (one range query search + lifespan analysis + cell updates) in steady
// state on a clustered 2-D stream.
func BenchmarkPushSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := clusteredStream(rng, 200000, 2)
	ex, err := New(Config{Dim: 2, ThetaR: 0.5, ThetaC: 4,
		Window: window.Spec{Win: 10000, Slide: 1000}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, _, err := ex.Push(pts[i], 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, _, err := ex.Push(pts[(10000+n)%len(pts)], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutputStage isolates the per-window output stage (connection
// pruning, the DFS, cluster and summary assembly): each iteration flushes
// one full window of a freshly filled extractor. The sweep over
// Config.Workers is the output stage's own fan-out — the fill uses Push,
// whose single-tuple insert has nothing to fan out — so compare workers1
// with workers2 on the same run to see what the parallel emit buys.
func BenchmarkOutputStage(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := clusteredStream(rng, 10000, 2)
	for _, skip := range []struct {
		name string
		v    bool
	}{{"withSGS", false}, {"fullOnly", true}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers%d", skip.name, workers), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					// With win == slide a flush expires the whole window, so
					// every iteration fills a fresh extractor (untimed).
					b.StopTimer()
					ex, err := New(Config{Dim: 2, ThetaR: 0.5, ThetaC: 4,
						Window:        window.Spec{Win: 10000, Slide: 10000},
						SkipSummaries: skip.v, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					for _, p := range pts {
						if _, _, err := ex.Push(p, 0); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					if r := ex.Flush(); len(r.Clusters) == 0 {
						b.Fatal("no clusters")
					}
				}
			})
		}
	}
}
