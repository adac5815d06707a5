// Package stream provides the streaming plumbing around the pattern
// extractor (§3.3): tuple sources and the interfaces the two extractors
// (C-SGS in internal/core, Extra-N in internal/extran) plug into.
//
//   - Source yields tuples in arrival order; FromSlice wraps in-memory
//     data, FromCSV reads one tuple per CSV record.
//   - Processor is the single-tuple extractor interface;
//     BatchProcessor adds whole-slide ingestion with semantics identical
//     to pushing the tuples one by one.
//
// # Concurrency
//
// A Source is read by one goroutine. Each Processor is single-writer and
// owned by the caller's goroutine; any parallelism inside a
// Push/PushBatch call is the processor's own (C-SGS's discovery and
// output-stage fan-outs, bounded by core.Config.Workers) and never
// escapes the call.
package stream
