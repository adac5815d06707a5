package core

import "streamsum/internal/obs"

// Process-wide ingest metrics (obs.Default). C-SGS records into all of
// them; Extra-N (internal/extran) records tuples, batches, windows,
// clusters and emit time into the same families, which is why those are
// exported — no other package should record into them. The discovery and
// apply phases exist only in C-SGS's batch pipeline.
var (
	MetricTuples = obs.NewCounter("sgs_ingest_tuples_total",
		"Tuples admitted, via Push or PushBatch.")
	MetricBatches = obs.NewCounter("sgs_ingest_batches_total",
		"Ingest batches driven (PushBatch calls).")
	MetricWindows = obs.NewCounter("sgs_ingest_windows_total",
		"Windows emitted.")
	MetricClusters = obs.NewCounter("sgs_ingest_clusters_total",
		"Clusters reported across all emitted windows.")
	metricDiscoverySeconds = obs.NewHistogram("sgs_ingest_discovery_seconds",
		"Per-segment discovery phase wall time (parallel range queries + private career construction).")
	metricApplySeconds = obs.NewHistogram("sgs_ingest_apply_seconds",
		"Per-segment apply phase wall time (sequential shared-state wiring + refresh).")
	MetricEmitSeconds = obs.NewHistogram("sgs_ingest_emit_seconds",
		"Per-window output-stage wall time (prune, DFS, edge resolve, cluster assembly, expiry).")
)
