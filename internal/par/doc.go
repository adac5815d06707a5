// Package par provides the minimal data-parallel primitive every fan-out
// inside the engine is built on: a bounded fork-join loop over an index
// range.
//
// Its callers are C-SGS's batched ingest (core.PushBatch's neighbor
// discovery) and output stage (prune / edge resolution / per-cluster
// construction), the matcher's filter (one gated scan per shard, in
// match.Run) and refine (one pair per index, in match.RefinePairs), and
// the standing-query registry's per-window probe and refine (internal/sub,
// refining through match.RefinePairs). Extra-N runs sequentially. The
// package is deliberately tiny — no task stealing, no futures: For claims
// chunks of cheap, uniform items (one range query search, one cell
// prune) off an atomic cursor, and ForEach single items where they are
// few and skewed (one shard scan, one alignment search).
//
// # Concurrency
//
// For(workers, n, fn) is a strict fork-join barrier: it returns only after
// every fn(i) has completed, so callers may freely alternate parallel
// phases with sequential ones — each phase sees all effects of the
// previous phase (the WaitGroup edge orders memory). fn must be safe to
// call concurrently for distinct i; the usual pattern is that fn(i) writes
// only to slot i (or to state exclusively owned by item i) and reads only
// state frozen before the For. With workers <= 1, or n too small to be
// worth forking, the loop runs inline on the caller's goroutine — zero
// overhead for sequential configurations, and identical semantics.
package par
