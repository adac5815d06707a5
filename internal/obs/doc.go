// Package obs is the process-wide observability layer: dependency-free
// counters, gauges, and fixed-bucket latency histograms with a named
// registry, a snapshot API (Gather), and a hand-rolled Prometheus text
// exposition writer (WritePrometheus). It exists so every stage of the
// pipeline — ingest batch phases, match filter/refine/order, segment
// store reads, demoter flushes, subscription delivery — reports where
// time goes from inside the running process, not only from offline
// benches.
//
// Concurrency contract:
//
//   - Recording is wait-free and allocation-free. Counter.Inc/Add,
//     Gauge.Set/Add and Histogram.Observe are single atomic operations
//     (Observe adds a bounded scan of an embedded bounds array); none
//     of them take locks, allocate, or block. They are safe from any
//     goroutine, including the ingest and match hot paths, and their
//     cost does not depend on the number of registered metrics.
//   - Registration is locked and meant for init time. NewCounter /
//     NewGauge / NewHistogram panic on a duplicate (name, labels)
//     series or on re-registering a family under a different type:
//     misregistration is a programming error, surfaced immediately.
//   - RegisterGaugeFunc is the exception: re-registering the same
//     (name, labels) replaces the previous function. Gauge funcs read
//     external state at scrape time (engine queue depths, tier
//     bytes), and that state is re-bound whenever a new engine starts
//     — including every test that builds one.
//   - Gather and WritePrometheus take the registry lock only to copy
//     the metric list, then read each series with the same atomics the
//     writers use. Snapshots are monitoring-grade under concurrency:
//     each individual value is atomically read, but the set is not a
//     consistent cut. Histogram snapshots may transiently disagree
//     between count and sum by in-flight observations.
//
// Histogram buckets are fixed: upper bounds grow geometrically ×4 from
// 1µs to ~67s (14 bounds plus +Inf), exported in seconds. Fixed bounds
// are what make Observe allocation-free; the ~2× worst-case relative
// quantile error is acceptable for phase latencies that span six
// orders of magnitude.
package obs
