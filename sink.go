package streamsum

import (
	"streamsum/internal/archive"
	"streamsum/internal/obs"
	"streamsum/internal/sgs"
	"streamsum/internal/trace"
)

// Archiving-sink metrics (obs.Default): the engine-level view of the
// window → pattern-base hand-off, complementing the per-batch demote and
// flush metrics the archive and store record internally.
var (
	metricArchivedWindows = obs.NewCounter("sgs_archive_sink_windows_total",
		"Completed windows handed to the archiving sink (empty ones included).")
	metricArchivedEntries = obs.NewCounter("sgs_archive_sink_entries_total",
		"Summaries the archiver accepted from sink windows (post selection policy).")
)

// sinkWindow archives every summary of one completed window into the
// pattern base with a single PutBatch (one base lock acquisition per
// window, however many clusters it emitted), then offers the window's
// newly archived entries to the standing-query registry. The entries are
// resolved from one snapshot taken right after the batch, so every entry
// reflects exactly what the archiver stored (post compression/selection)
// and the whole window is evaluated against a single archive state.
// Entries the selection policy skipped (or that a capacity-bounded
// memory-only base already evicted again) are not offered. Store-backed
// bases need no extra wiring: demotion to disk segments happens inside
// PutBatch.
//
// Each window records one flight-recorder trace (category SubEval,
// "window.eval"): an "archive" span around PutBatch, a "resolve" span
// around the snapshot resolution, and the registry's probe/refine/deliver
// spans, so a single trace covers the window from archiving through event
// delivery.
func (e *Engine) sinkWindow(w *WindowResult) error {
	metricArchivedWindows.Inc()
	tr := trace.Default.Start(trace.SubEval, "window.eval")
	root := tr.Root()
	root.SetInt("clusters", int64(len(w.Clusters)))
	err := e.archiveAndOffer(w, tr)
	if err != nil {
		root.SetStr("error", err.Error())
	}
	tr.Finish()
	return err
}

func (e *Engine) archiveAndOffer(w *WindowResult, tr *trace.Trace) error {
	sums := make([]*sgs.Summary, 0, len(w.Clusters))
	for _, c := range w.Clusters {
		if c.Summary != nil {
			sums = append(sums, c.Summary)
		}
	}
	var entries []*archive.Entry
	if len(sums) > 0 {
		sp := tr.Start("archive")
		ids, archived, err := e.base.PutBatch(sums)
		if err != nil {
			sp.End()
			return err
		}
		accepted := uint64(0)
		for _, ok := range archived {
			if ok {
				accepted++
			}
		}
		metricArchivedEntries.Add(accepted)
		sp.SetInt("archived", int64(accepted))
		sp.End()
		rsp := tr.Start("resolve")
		snap := e.base.Snapshot()
		entries = make([]*archive.Entry, 0, len(ids))
		for i, id := range ids {
			if !archived[i] {
				continue
			}
			if en := snap.Get(id); en != nil {
				entries = append(entries, en)
			}
		}
		rsp.End()
	}
	// The registry sees every window — empty ones included — so its
	// window sequence counts windows, not just archivals.
	return e.subs.OfferTraced(entries, tr)
}
