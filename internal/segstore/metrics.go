package segstore

import "streamsum/internal/obs"

// Process-wide store metrics (obs.Default). Counters touched on the
// filter/refine hot paths are single atomic adds — see internal/obs for
// the zero-allocation contract.
var (
	metricOpened = obs.NewCounter("sgs_segstore_segments_opened_total",
		"Segment files opened.")

	metricLoadsMmap = obs.NewCounter("sgs_segstore_record_loads_total",
		"Record blob reads, by access mode (mmap = decoded from the mapping, pread = syscall fallback).",
		obs.L{Key: "mode", Value: "mmap"})
	metricLoadsPread = obs.NewCounter("sgs_segstore_record_loads_total",
		"", obs.L{Key: "mode", Value: "pread"})

	metricScans = obs.NewCounter("sgs_segstore_segment_scans_total",
		"Gated segment probes that passed the zone filter and scanned the segment.")
	metricZoneSkips = obs.NewCounter("sgs_segstore_zone_skips_total",
		"Gated segment probes answered by the zone filter alone (whole segment skipped).")

	metricFlushes = obs.NewCounter("sgs_segstore_flushes_total",
		"Segments committed by flush (demotion).")
	metricCompactions = obs.NewCounter("sgs_segstore_compactions_total",
		"Committed compactions.")
)
