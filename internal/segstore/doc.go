// Package segstore is the disk tier of the pattern base: an LSM-style
// store of immutable on-disk segments beneath internal/archive's
// memory tier, so a long-running archiver can serve matching
// queries over unbounded stream history with bounded resident memory
// (the off-line analysis workload of §3.2 assumes the pattern base keeps
// every archived summary; the memory tier alone cannot).
//
// # On-disk format (v3)
//
// A segment file holds a batch of archived summaries demoted from the
// memory tier, in FIFO (archive) order. The format is columnar:
// every fixed-width filter-phase feature lives in a densely packed
// array, laid out for sequential scanning, and the variable-width
// summary blobs follow in their own region:
//
//	header   "SGSSEG3\n"
//	columns  ids   count×i64      — record ids, archive (ascending) order
//	         offs  count×u64      — absolute file offset of each blob
//	         lens  count×u32
//	         (pad to 8-byte alignment)
//	         mbrs  count × (min dim×f64 | max dim×f64)
//	         feats count × 4×f64  — non-locational feature vectors
//	blobs    count sgs.Marshal blobs, packed, no per-record framing
//	footer   "SGSFTR3\n" | dim u8 | count u32 |
//	         colOff u64 | colLen u64 | blobOff u64 | blobLen u64 |
//	         crc32(columns) u32 |
//	         zone: union MBR min/max dim×f64 each | feature min 4×f64 | feature max 4×f64
//	trailer  footerOff u64 | footerLen u32 | crc32(footer) u32 | "SGSEND1\n"
//
// OpenSegment maps the file read-only (mmap), checks the columnar
// region's CRC and decodes the region once into typed Columns (ids,
// MBRs, feature vectors) plus each record's blob offset and length; the
// raw region is not kept, and the mapping then serves blob loads only.
// Columns is the one filter-column layout of the system: the archive's
// memory tier and the standing-query target classes keep the same type,
// and Columns.Search is the one scan every filter phase runs. It takes a
// Probe — an MBR overlap or an inclusive feature box, chosen once per
// query by match.FilterProbe — and picks the matching typed loop once
// per call, never per row. Segment.Search runs that scan after its zone
// test, with zero allocation and no per-candidate syscall. A Record is
// built on demand from a row (its MBR views the decoded column), and
// only refine survivors decode a blob (Load decodes directly from the
// mapping). When mmap is unavailable or disabled (SetMmapEnabled(false),
// or a platform without mmap) the region is read into a heap buffer for
// the decode and blob loads fall back to pread into a pooled scratch
// buffer; every result is bit-identical either way, and an open's
// allocations do not depend on the record count on either path.
//
// The footer's zone block is the segment's filter zone — the union of
// its records' MBRs and the per-dimension min/max of their feature
// vectors. Segment.Search tests the probe against the zone first (the
// union MBR for an overlap probe, the feature min/max for a feature box)
// and skips the segment's columns entirely when it cannot match, so a
// filter phase fanned across many segments touches only the segments
// whose range overlaps the query.
//
// # Pre-v3 formats
//
// v1/v2 segments (the record-log header preV3Head, or a v2 footer) are
// rejected with ErrBadSegment.
// To migrate such a store, run `sgstool compact` on it with a build that
// still reads them: compaction rewrites what it merges as v3.
//
// Validity is all-or-nothing: OpenSegment verifies the header magic,
// the end magic, the trailer's geometry (footerOff + footerLen + trailer
// == file size), the footer CRC, the columnar-region CRC, every
// record's byte range, that the ids strictly increase (Get and
// Store.Find binary-search them; every writer emits archive order) and
// that no MBR is empty and no MBR or feature holds a NaN, before
// exposing anything. A file truncated at any byte offset fails one of
// those checks and is rejected whole — a torn segment is never loaded
// (see the recovery sweep in segment_test.go, which CI runs with mmap
// both on and off). FuzzOpenSegment and FuzzManifest fuzz both decoders
// with their checksums resealed.
//
// # Store, manifest, compaction
//
// A Store is a directory of segments tracked by a MANIFEST file (magic,
// next file sequence number, ordered segment list, tombstoned ids, CRC).
// The manifest is the commit point of every store mutation and is always
// replaced atomically: written to a temp file, fsynced, renamed over
// MANIFEST. Segments likewise become visible only by rename and only
// after their bytes are synced, so a crash anywhere leaves either the
// old store state or the new one, never a mix; segment files not listed
// in the manifest are leftovers of an uncommitted flush (the entries
// they hold were still owned by the memory tier when the crash hit) and
// are removed on Open. Because Open deletes what its manifest does not
// list, one Store at a time may hold a directory: Open takes an
// exclusive flock on dir/LOCK (released by Close, or by the process
// exiting) and fails with ErrLocked while another opener holds it.
// ManifestDim reads a store's dimensionality without opening it.
//
// Flush appends a new segment; Tombstone marks an id deleted (the bytes
// are reclaimed later); both commit by manifest rewrite. Flush is also
// available split in two — PrepareFlush writes and fsyncs the segment
// payload without touching store state (no lock held through the I/O),
// and PendingSegment.Commit performs the cheap rename + manifest commit
// — which is how the archiver's background demoter keeps segment writes
// off its own lock. A background
// compactor merges runs of undersized or tombstone-heavy adjacent
// segments into one, dropping tombstoned records and retiring the
// inputs. Manifest order is archive (FIFO) order and compaction only
// ever replaces adjacent runs in place, so the store-wide record
// sequence is preserved.
//
// # Concurrency, mapping lifetime and the read contract
//
// Segments are immutable after OpenSegment: any number of goroutines may
// probe the search methods and Load records concurrently. View pins the
// current segment set plus a copy of the tombstones — the store
// analogue of archive.Snapshot — and remains searchable while flushes,
// tombstones and compactions proceed: a compaction retires replaced
// segments by unlinking them, but an mmap (like an open file handle)
// survives unlink, so every pinned View stays readable until the View
// (and the Segments it pins) become unreachable, at which point a
// finalizer unmaps and closes. Blob slices returned by
// LoadBlob on a mapped segment are views into that mapping and share its
// lifetime — copy them to retain them past the pinning View. Store.Close
// stops the compactor and unmaps/closes all live segments; Views must
// not be used after Close.
//
// Decoded summaries (Segment.Load) carry no such restriction: a decode
// copies everything it needs out of the mapping, so holders may retain
// them indefinitely without pinning the segment.
package segstore
