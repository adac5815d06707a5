// Package core implements C-SGS (§5), the paper's primary contribution: an
// integrated algorithm that extracts density-based clusters over periodic
// sliding windows and simultaneously maintains their Skeletal Grid
// Summarizations, returning each window's clusters in both full and
// summarized representation.
//
// The design follows the paper closely:
//
//   - The only persistent meta-data besides the raw window content is the
//     set of skeletal grid cells (§5.2): per cell a core-status lifespan
//     and per adjacent-cell connection lifespans, the latter held in an
//     open-addressing conntab.Table with inline entries.
//   - All expiry-driven changes are pre-computed at insertion using
//     lifespan analysis (§5.3): when an object arrives, its own "career"
//     (core / edge / noise phases, Observation 5.4) and its effect on its
//     neighbors' careers are projected onto future windows, so the
//     expiration stage needs no per-object work at all ("Handling
//     Expirations", §5.4).
//   - Each arriving object triggers exactly one range query search; career
//     prolongs discovered later reuse recorded neighbor references instead
//     of re-running range queries (the paper's auxiliary meta-data, §5.3).
//   - The output stage (§5.4) runs a DFS over the currently-core cells and
//     their live connections, yielding one connected cell group — one SGS —
//     per cluster, from which the full representation is collected.
//
// Where the paper's technical report (unavailable) left the connection
// prolong-propagation unspecified, we keep per-object neighbor references
// (ids only, pruned lazily at the same points the paper prunes its
// bucketed neighbor lists) so that every career growth refreshes the
// affected cell connections; DESIGN.md discusses this substitution.
//
// # Invariants
//
// Two monotonicity facts carry the whole implementation:
//
//   - Careers only ever grow. An arrival can promote or prolong a core
//     career, never shorten one; expirations were already accounted for
//     when the career was computed.
//   - Every cell-level lifespan (core status per Lemma 5.1, connection and
//     attachment lifespans per Lemma 5.2 / Definition 4.3) is a pure
//     max-accumulation over career values.
//
// Together they make deferred propagation exact: re-running refresh with
// final careers subsumes every intermediate refresh, which is what lets
// the batch pipeline defer to one refresh per touched object, and they
// make lifespans below the current window dead information that pruning
// may drop at any time.
//
// # Concurrency
//
// An Extractor is single-writer: Push, PushBatch, Flush and Stats must not
// be called concurrently. Inside one call, parallelism comes from two
// internal fan-outs built on a read-only-over-frozen-state contract:
//
//   - Ingest (batch.go): a batch is cut into emission-free segments; each
//     segment's range query searches and new-object career constructions
//     fan out across Config.Workers goroutines over the frozen window
//     state (discoverInto and scanCells perform no mutation of any kind),
//     then all shared-state mutation replays sequentially in arrival
//     order, with one deferred refresh per touched object.
//   - Output (emit.go): connection pruning fans out across cells, edge
//     attachment resolution across edge cells, and cluster/summary
//     construction across clusters, bounded by Config.Workers too. Every
//     parallel work item writes only state it exclusively owns (its cell,
//     its edge cell's objects, its pre-assigned cluster slot) and reads
//     only state frozen by the preceding sequential phase.
//
// Both fan-outs are deterministic: emitted windows are byte-identical to
// the fully sequential paths (Workers = 1) at every setting,
// a property the tests assert under -race.
package core
