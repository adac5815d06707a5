// Package archive implements the Pattern Archiver and Pattern Base of the
// framework (§3.3, §6, §7.1).
//
// The archiver decides which extracted clusters enter the pattern base
// (selective archiving: sampling and feature predicates, §6.2) and at
// which resolution they are stored (budget- and accuracy-aware resolution
// selection over the multi-resolution SGS hierarchy, §6.1).
//
// The paper (§7.1) indexes the pattern base twice: an R-tree over
// cluster MBRs and a 4-D grid over the non-locational features (volume,
// status count, average density, average connectivity). This package
// keeps neither. The memory tier stores each entry's id, MBR and feature
// vector in segstore.Columns beside the entries, and a filter-phase
// search is one sequential pass that applies the exact range test (MBR
// overlap, or the inclusive feature box) and then the matcher's gate. The memory
// tier holds at most a few thousand entries (Config.Capacity, or
// MaxMemBytes once a disk tier takes the rest), and over histories that
// small a pass over contiguous columns answers as fast as either index
// probe and returns the same candidates. Histories larger than that live
// on the disk tier, whose segments decode the same Columns once at open
// and run the same scans over them, after skipping a whole segment on
// its zone (the per-segment MBR and feature bounds); the segment's file
// mapping serves only the blobs refine decodes.
//
// A memory-tier entry carries its summary, MBR, feature vector, encoded
// size and the summary's cell-count profile (sgs.NewProfile, read through
// ProfileOf): per axis, the extent of its cells and the number of cells
// at each coordinate, about ten small counts for a GMTI summary. Put
// builds the profile once, and the matcher's refine stage uses it to
// dismiss pairs without walking their cells. A summary that spans 2^16
// or more coordinates on some axis, or whose profile would hold more
// than 16 counts per cell, gets none. Disk-resident entries carry no
// profile: the segment format has no column for it.
//
// # Concurrency: snapshot isolation
//
// The base separates the archiver's append path from the analyzer's query
// path. Writers (Put, PutBatch, Remove) mutate the memory tier under a
// single mutex, and only in ways no published reader can observe: Put
// appends past the end of the columns (or into a fresh, larger array);
// eviction and demotion advance the head of the FIFO; Remove, the
// restore of a failed demotion, and the compaction that drops a dead
// head prefix copy the live rows into fresh arrays. Readers call
// Snapshot, which takes slice headers over the live rows and then
// searches entirely without locks: a matching query in the refine phase
// never blocks a shard's Put, and a Put never invalidates an iteration
// in progress.
//
// Consequences callers rely on:
//
//   - Entry values are immutable after Put returns; they are shared by
//     reference across the base and all snapshots.
//   - Base.All and a Snapshot's Search and All run their callbacks
//     against a snapshot, never under the base lock, so a callback may
//     call Put or Remove (the running iteration does not see the
//     mutation).
//   - PutBatch archives one window's clusters under one lock
//     acquisition; it is byte-for-byte equivalent to a sequential Put
//     loop (same policy decisions, ids and evictions).
//   - A Snapshot taken once observes a single archive state across any
//     number of searches — the property the matcher's filter-and-refine
//     pipeline needs to stay deterministic.
//
// # The disk tier
//
// With Config.StorePath set, the base becomes two-tiered: beneath the
// memory tier sits an internal/segstore directory of immutable
// on-disk segments. Memory pressure (MaxMemBytes) and capacity pressure
// (Capacity) demote the oldest entries — always the oldest, so every
// disk entry predates every memory entry and FIFO order spans the tiers
// — as one segment per demotion batch. Snapshots pin the segment set
// along with the memory tier's rows, and FilterShards exposes the tiers as
// disjoint Shards (the memory tier first, then one per segment) so the
// matcher's filter phase can probe them in parallel. A Shard has one
// gated search, which takes a segstore.Probe (an MBR overlap or a feature
// box): the range test and the matcher's gate run in one pass, and the
// search returns the range candidate count and whether the segment's zone
// let the probe skip its columns (never, for the memory tier), so the
// matcher's statistics and traces come from the probe itself.
// Snapshot.Search runs the same probe over every shard, oldest first, so
// the ids it visits ascend. Disk-resident
// entries surface with their footer-indexed features only (nil Summary);
// the refine phase loads their cells lazily via Entry.LoadSummary, so a
// query's resident cost is its candidates, not the history.
//
// # The residency contract
//
// MaxMemBytes bounds the memory tier alone, in encoded summary bytes
// (sgs.EncodedSize). Nothing else in the base holds decoded summaries:
// every Entry.LoadSummary of a disk-resident entry decodes the record
// from its segment again, so a query's resident cost is the candidates
// it holds, and a repeat query pays its decodes again. The rules every
// caller relies on:
//
//   - A *sgs.Summary returned by LoadSummary (or materialized on an
//     Entry by Snapshot.Get) may be retained for any length of time by
//     any caller — summaries are immutable after decode and shared by
//     reference, the same contract memory-tier entries have. Nobody may
//     mutate one.
//   - A decode copies everything it needs out of the segment, so a
//     retained summary pins no segment or mapping.
//
// Demotion batches flush on a background demoter goroutine: the segment
// payload write and fsync (segstore.PrepareFlush) run entirely outside
// the base mutex, so Put/PutBatch and snapshot creation never stall
// behind demotion I/O. A batch's entries leave the memory-tier
// accounting at collection but remain snapshot-visible — via the pending
// queue until the segment commits, via the pinned store view after — so
// every entry is readable in exactly one place at all times. If a flush
// fails, the batch's entries are restored to the front of the memory
// tier and the error latches (Put fail-stops rather than silently
// growing past the bound). Blocking callers exist only at the edges:
// DrainDemotions and FlushMem wait for the queue; Remove of an id
// mid-demotion waits for its batch; a writer outrunning the disk blocks
// once the queue hits its small bound (backpressure — and note the
// yielded lock means a concurrent writer's PutBatch may interleave at
// that boundary).
//
// # Persistence
//
// The disk tier is the pattern base's only on-disk form. Segments and
// the manifest commit atomically (see internal/segstore): a demoted
// segment is durable once its file is fsynced and the manifest rename
// lands. FlushMem demotes the memory tier as one final segment at
// shutdown, and reopening a base over the same StorePath resumes with
// the history visible and id assignment continuing past everything ever
// committed to the store. A crash loses only what has not committed:
// the memory tier, which MaxMemBytes or Capacity bounds (with neither,
// nothing demotes before FlushMem), and the few demotion batches still queued behind
// the demoter, each about an eighth of that bound.
package archive
