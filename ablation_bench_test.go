package streamsum

// Ablation benchmarks for the paper's design choices. Each sweeps a
// setting the engine fixes, so neither the benchmark harness (benchmark/)
// nor cmd/experiments can report it:
//
//   - BenchmarkGridSideAblation — the paper fixes the finest cell size at
//     diagonal = θr (§4.3). Larger cells mean fewer cells but more false
//     candidates per range query; smaller cells mean emptier probes. This
//     bench quantifies that trade-off on the range-query substrate.
//   - BenchmarkAlignmentBudget — §7.2's anytime alignment search trades
//     optimality for latency; this sweeps the expansion budget and reports
//     the mean distance found (lower = better alignment).

import (
	"fmt"
	"math/rand"
	"testing"

	"streamsum/internal/experiments"
	"streamsum/internal/gen"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/match"
)

func BenchmarkGridSideAblation(b *testing.B) {
	const thetaR = 0.8
	baseSide := thetaR / 1.4142135623730951 // θr/√2: the paper's choice in 2-D
	for _, mult := range []float64{0.5, 1.0, 2.0, 4.0} {
		b.Run(fmt.Sprintf("side%.1fx", mult), func(b *testing.B) {
			geo, err := grid.NewGeometryWithSide(2, thetaR, baseSide*mult)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			pts := make([]geom.Point, 20000)
			for i := range pts {
				pts[i] = geom.Point{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
			}
			ix := grid.NewPointIndex(geo)
			for i, p := range pts {
				ix.Insert(int64(i), p)
			}
			b.ResetTimer()
			found := 0
			for n := 0; n < b.N; n++ {
				q := pts[n%len(pts)]
				ix.RangeQuery(q, func(grid.Entry) bool { found++; return true })
			}
			b.ReportMetric(float64(found)/float64(b.N), "neighbors/query")
		})
	}
}

func BenchmarkAlignmentBudget(b *testing.B) {
	clusters := gen.Clusters(gen.ClustersConfig{Seed: 77}, 40)
	var sums []*Summary
	for _, gc := range clusters {
		sc, err := SummarizeStatic(gc.Points, experiments.MatchParams.ThetaR, experiments.MatchParams.ThetaC)
		if err != nil || len(sc) == 0 {
			b.Fatal(err)
		}
		sums = append(sums, sc[0].Summary)
	}
	w := match.EqualWeights()
	for _, budget := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("budget%d", budget), func(b *testing.B) {
			var total float64
			pairs := 0
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				a := sums[n%len(sums)]
				c := sums[(n+7)%len(sums)]
				// Threshold 1: no bound can dismiss the pair, so every
				// iteration pays (and reports) the full search.
				d, _ := match.Refine(a, c, w, budget, 1)
				total += d
				pairs++
			}
			b.ReportMetric(total/float64(pairs), "mean-distance")
		})
	}
}
