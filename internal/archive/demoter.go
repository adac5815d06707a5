package archive

import (
	"time"

	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
	"streamsum/internal/trace"
)

// maxPendingDemotions bounds the demotion queue: beyond this many
// batches the writer blocks until the demoter catches up (backpressure
// under sustained disk overload). The bound keeps worst-case extra
// residency at a handful of segment-sized batches.
const maxPendingDemotions = 4

// demoteBatch is one segment's worth of entries handed to the background
// demoter: the memory tier's oldest rows, taken off its head. Until the
// segment commits, the entries remain visible to snapshots through the
// pending queue (they have already left the memory-tier accounting); on
// failure they are restored to the front of the memory tier.
type demoteBatch struct {
	cols  columns // FIFO
	bytes int
}

// flushEntries serializes the batch for the store. Entries are immutable
// after Put, so callers may (and the demoter does) run this without the
// base lock — the encoding is the CPU half of a demotion's cost and
// would otherwise stall writers exactly like the write+fsync it
// accompanies.
func (batch *demoteBatch) flushEntries() []segstore.FlushEntry {
	fl := make([]segstore.FlushEntry, 0, batch.cols.Len())
	for _, e := range batch.cols.ents {
		fl = append(fl, segstore.FlushEntry{
			ID: e.ID, Blob: sgs.Marshal(e.Summary), MBR: e.MBR, Feat: e.Features.Vector(),
		})
	}
	return fl
}

// demoteLoop is the background demoter: it takes batches off the pending
// queue in FIFO order and, for each, writes + fsyncs the segment payload
// entirely outside b.mu (segstore.PrepareFlush), then commits it (rename
// + manifest, serialized only with the store's own lock). Only the
// post-commit bookkeeping — dropping the batch from the pending queue —
// runs under b.mu, so PutBatch and snapshot creation never wait on the
// payload I/O.
func (b *Base) demoteLoop() {
	b.mu.Lock()
	for {
		for len(b.demotePending) == 0 && !b.demoteStop {
			b.demoteCond.Wait()
		}
		if len(b.demotePending) == 0 {
			// Stop requested and the queue is drained.
			b.demoteExited = true
			b.demoteCond.Broadcast()
			b.mu.Unlock()
			return
		}
		batch := b.demotePending[0]
		store := b.store
		b.mu.Unlock()

		tr := trace.Default.Start(trace.Demote, "archive.demote")
		root := tr.Root()
		root.SetInt("entries", int64(batch.cols.Len()))
		root.SetInt("bytes", int64(batch.bytes))
		start := time.Now()
		sp := tr.Start("flush") // serialize + write + fsync, off the base lock
		p, err := store.PrepareFlush(batch.flushEntries())
		sp.End()
		if err == nil {
			sp = tr.Start("commit") // rename + manifest publish
			err = p.Commit()
			sp.End()
		}
		metricDemoteSeconds.Observe(time.Since(start))
		if err == nil {
			metricDemoteBatches.Inc()
			metricDemoteEntries.Add(uint64(batch.cols.Len()))
		} else {
			metricDemoteFailures.Inc()
			root.SetStr("error", err.Error())
			b.logger.Error("demotion flush failed; restoring queued batches to the memory tier",
				"err", err, "entries", batch.cols.Len(), "bytes", batch.bytes,
				"trace", tr.ID().String())
		}
		tr.Finish()

		b.mu.Lock()
		if err != nil {
			// Restore every queued batch (this one and any behind it):
			// later batches must not commit after an earlier one failed,
			// or disk segments would stop predating memory entries.
			b.restoreDemotionsLocked(b.demotePending, err)
			b.demotePending = nil
		} else {
			b.demotePending = b.demotePending[1:]
		}
		b.snap = nil
		b.demoteCond.Broadcast()
	}
}

// restoreDemotionsLocked puts the batches' entries back at the front of
// the memory tier, in fresh arrays (the live rows may be pinned by
// snapshots), and latches err (when non-nil) so subsequent Puts fail
// instead of growing past the memory bound. Batches must be in queue
// (age) order, so the reassembled tier stays FIFO.
func (b *Base) restoreDemotionsLocked(batches []*demoteBatch, err error) {
	if len(batches) == 0 {
		return
	}
	if err != nil && b.demoteErr == nil {
		b.demoteErr = err
	}
	runs := make([]columns, 0, len(batches)+1)
	for _, batch := range batches {
		runs = append(runs, batch.cols)
		b.memBytes += batch.bytes
	}
	runs = append(runs, b.mem.slice(b.head, b.mem.Len()))
	b.mem = cloneColumns(b.cfg.Dim, runs...)
	b.head = 0
	b.snap = nil
}

// DrainDemotions blocks until every queued demotion batch has committed
// (or failed), then reports the latched demotion error, if any. Tests
// and shutdown paths use it to make tier accounting deterministic; it
// never triggers new demotions.
func (b *Base) DrainDemotions() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.store == nil {
		return nil
	}
	for len(b.demotePending) > 0 {
		b.demoteCond.Wait()
	}
	return b.demoteErr
}

// pendingDemotionHasLocked reports whether the id is part of an
// in-flight demotion batch.
func (b *Base) pendingDemotionHasLocked(id int64) bool {
	for _, batch := range b.demotePending {
		if batch.cols.Find(id) >= 0 {
			return true
		}
	}
	return false
}
