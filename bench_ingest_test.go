// Ingest-path benchmarks for the batched pipeline, alongside the
// Fig.7-style per-window benches of bench_test.go. These measure raw
// ingestion throughput (tuples/sec) rather than per-window response time:
//
//	BenchmarkPushSequential      — the single-tuple Push hot path (baseline)
//	BenchmarkPushBatch/...       — PushBatch with the parallel neighbor-
//	                               discovery phase and output stage, swept
//	                               over Config.Workers
//	BenchmarkEmit/...            — output-stage scaling in isolation:
//	                               single-tuple Push (no discovery fan-out),
//	                               swept over Config.Workers
//
// A recorded baseline lives in BENCH_ingest.json; the parallel speedup
// claims require >= 4 physical cores (single-core hosts will show the
// fan-out's coordination overhead instead).
package streamsum

import (
	"fmt"
	"testing"

	"streamsum/internal/core"
	"streamsum/internal/experiments"
	"streamsum/internal/window"
)

const (
	ingestSlide = 1000
	ingestWin   = experiments.Fig7Win
)

func ingestConfig(workers int) core.Config {
	pc := experiments.Cases[1]
	return core.Config{
		Dim: 4, ThetaR: pc.ThetaR, ThetaC: pc.ThetaC,
		Window: window.Spec{Win: ingestWin, Slide: ingestSlide},
		// One knob drives both fan-outs: discovery during PushBatch and
		// the output stage during the per-slide emit.
		Workers: workers,
	}
}

// BenchmarkPushSequential is the unbatched baseline: one Push per tuple,
// steady state, measured per slide of tuples.
func BenchmarkPushSequential(b *testing.B) {
	data := benchSTT(ingestWin + 60*ingestSlide)
	ex, err := core.New(ingestConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	pointAt := func(id int64) Point { return data.Points[id%int64(len(data.Points))] }
	var pushed int64
	for ; pushed < ingestWin; pushed++ {
		if _, _, err := ex.Push(pointAt(pushed), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for j := 0; j < ingestSlide; j++ {
			if _, _, err := ex.Push(pointAt(pushed), 0); err != nil {
				b.Fatal(err)
			}
			pushed++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*ingestSlide/b.Elapsed().Seconds(), "tuples/sec")
}

// BenchmarkPushBatch measures the batched ingest path: each iteration
// feeds one slide's worth of tuples through PushBatch (triggering exactly
// one window emission), with the neighbor-discovery phase fanned over the
// configured worker count. workers=1 isolates the batching overhead;
// higher counts add the parallel fan-out.
func BenchmarkPushBatch(b *testing.B) {
	data := benchSTT(ingestWin + 60*ingestSlide)
	pointAt := func(id int64) Point { return data.Points[id%int64(len(data.Points))] }
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			ex, err := core.New(ingestConfig(workers))
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]Point, ingestSlide)
			var pushed int64
			fill := func() {
				for j := range batch {
					batch[j] = pointAt(pushed)
					pushed++
				}
			}
			for pushed < ingestWin {
				fill()
				if _, err := ex.PushBatch(batch, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				fill()
				if _, err := ex.PushBatch(batch, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*ingestSlide/b.Elapsed().Seconds(), "tuples/sec")
		})
	}
}

// BenchmarkEmit isolates the output stage's scaling: tuples go through
// single-tuple Push, whose one range query search has nothing to fan
// out, so Config.Workers only reaches the per-slide window emission
// (prune + DFS + parallel cluster/summary construction).
func BenchmarkEmit(b *testing.B) {
	data := benchSTT(ingestWin + 60*ingestSlide)
	pointAt := func(id int64) Point { return data.Points[id%int64(len(data.Points))] }
	for _, emitWorkers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("emitWorkers%d", emitWorkers), func(b *testing.B) {
			ex, err := core.New(ingestConfig(emitWorkers))
			if err != nil {
				b.Fatal(err)
			}
			var pushed int64
			for ; pushed < ingestWin; pushed++ {
				if _, _, err := ex.Push(pointAt(pushed), 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for j := 0; j < ingestSlide; j++ {
					if _, _, err := ex.Push(pointAt(pushed), 0); err != nil {
						b.Fatal(err)
					}
					pushed++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*ingestSlide/b.Elapsed().Seconds(), "tuples/sec")
		})
	}
}
