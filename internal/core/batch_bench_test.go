package core

import (
	"fmt"
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/par"
	"streamsum/internal/window"
)

// BenchmarkParallelDiscovery isolates phase 1 of the batched ingest
// pipeline: the read-only range-query fan-out over frozen window state —
// the per-insertion cost the paper's analysis identifies as dominant, and
// the part PushBatch parallelizes. Each iteration discovers one slide's
// worth of tuples against a full window.
func BenchmarkParallelDiscovery(b *testing.B) {
	const (
		win   = 10000
		slide = 1000
	)
	pts := batchStream(win+slide, 2, 3)
	cfg := Config{
		Dim: 2, ThetaR: 0.7, ThetaC: 4,
		Window: window.Spec{Win: win, Slide: slide},
	}
	ex, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ex.PushBatch(pts[:win], nil); err != nil {
		b.Fatal(err)
	}
	batch := pts[win:]
	cells := make([]*cell, len(batch))
	links := make([][]*cell, len(batch))
	for k, p := range batch {
		coord := ex.geo.CoordOf(p)
		if cells[k] = ex.cells[coord]; cells[k] == nil {
			links[k] = ex.blocks.Near(coord, nil, nil)
		}
	}
	bufs := make([][]*object, len(batch))

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				par.For(workers, len(batch), func(k int) {
					bufs[k] = ex.discoverInto(batch[k], cells[k], links[k], bufs[k][:0])
				})
			}
			b.ReportMetric(float64(b.N)*slide/b.Elapsed().Seconds(), "lookups/sec")
		})
	}
}

// BenchmarkPushBatchCore measures the whole two-phase batch path at the
// extractor level (no facade overhead), one slide per iteration.
func BenchmarkPushBatchCore(b *testing.B) {
	const (
		win   = 10000
		slide = 1000
	)
	pts := batchStream(win+64*slide, 2, 9)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cfg := Config{
				Dim: 2, ThetaR: 0.7, ThetaC: 4,
				Window:  window.Spec{Win: win, Slide: slide},
				Workers: workers,
			}
			ex, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			at := func(i int) int { return i % len(pts) }
			pushed := 0
			batch := make([]geom.Point, slide)
			fill := func() {
				for j := range batch {
					batch[j] = pts[at(pushed)]
					pushed++
				}
			}
			for pushed < win {
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
			b.ReportMetric(float64(b.N)*slide/b.Elapsed().Seconds(), "tuples/sec")
		})
	}
}
