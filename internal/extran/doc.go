// Package extran implements the Extra-N baseline (Yang, Rundensteiner,
// Ward: "Neighbor-based pattern detection for windows over streaming
// data", EDBT 2009) as characterized in §8.1 of the SGS paper: the
// state-of-the-art incremental algorithm that extracts density-based
// clusters over sliding windows in *full representation only*.
//
// Extra-N's defining trait — and the reason the paper contrasts it with
// C-SGS — is that it maintains predicted cluster-membership structures for
// every open "view" (future window). With win/slide = V views, each
// arriving object updates up to V per-view structures, so both CPU and
// memory grow with the win/slide ratio, whereas C-SGS's skeletal-grid
// meta-data is independent of it (§8.1: "the performance of Extra-N is
// affected by the increasing number of views ... while the meta-data
// maintained by C-SGS ... is independent from this ratio").
//
// Like C-SGS, Extra-N runs exactly one range query search per arriving
// object and pre-computes all expiry effects through lifespan analysis;
// the per-view structures here are union-find forests over the objects
// predicted to be core in that view, with parent tables held in
// open-addressing conntab.IDMaps — the per-view map traffic is the
// baseline's dominant cost, so its layout matters the same way the
// connection tables matter to C-SGS.
//
// Cluster-membership semantics are pure Definition 3.1 (object-level edge
// attachment); see internal/dbscan for the one corner case where the
// cell-granular C-SGS output differs.
//
// # Concurrency
//
// An Extractor is single-writer: Push, PushBatch, Flush and Stats must not
// be called concurrently. Extra-N is the paper's baseline and runs
// sequentially: PushBatch is a Push loop with the same error contract,
// and the output stage groups, attaches and sorts on the caller's
// goroutine. Config.Workers (shared with C-SGS) has no effect here, which
// keeps the §8.1 comparison single-threaded when the C-SGS side runs with
// Workers = 1.
package extran
