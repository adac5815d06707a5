// Package match implements the Pattern Analyzer (§7.2): execution of
// cluster matching queries (Figure 3) against the pattern base.
//
// The distance metric is the paper's customizable form
//
//	Dist(Ca, Cb) = ps·Dist_location + Σ wi·Dist_nlf_i(Ca, Cb)
//
// with ps ∈ {0,1} selecting position-sensitive matching, Dist_location ∈
// {0,1} indicating MBR overlap, and four weighted non-locational feature
// distances (volume, status count, average density, average connectivity),
// each |x−f| / min(x,f) clamped to [0,1] as in the paper's candidate-search
// example.
//
// # Phased execution
//
// Query execution is filter-and-refine, organized as a three-phase
// pipeline mirroring the extractor's output stage. Every read path runs
// it: one-shot queries (Run), novelty archiving (Run with Limit 1, in the
// facade) and standing queries (internal/sub, which replaces the filter
// with its inverted probe of the subscription columns and shares the
// refine stage).
//
//  1. Filter — the source's FilterShards (an *archive.Base pins one
//     snapshot per call) split the pattern base into the memory tier and
//     one shard per disk segment. Each shard's gated search scans its
//     columns for entries whose MBR overlaps the target's
//     (position-sensitive) or whose feature vector lies in the ranges
//     derived from the distance threshold, applying the exact
//     cluster-level feature distance as a gate in the same pass (one
//     task per shard; the scan is cheap). The search returns the range
//     candidate count and the segment's zone decision, which feed Stats
//     and the trace directly.
//  2. Refine — RefinePairs evaluates the expensive grid-cell-level match
//     (Refine) for every gate survivor: first the O(1) size bound, from
//     the cell count the entry's features carry, so a pair it dismisses
//     never loads a disk-resident summary; then the load (a decode from
//     the entry's segment) and Refine — the best alignment found by an
//     A*-style anytime search (position-insensitive case) or the identity
//     alignment (position-sensitive case), unless an exact bound or a
//     scan of the voted alignments shows first that none can come within
//     the threshold. A query with a Limit k (position-insensitive) also
//     hands the stage a running top-k bound, which lets a pair skip its
//     search once k other pairs are known to be closer (see "Top-k
//     bound"). This phase fans out across Query.Workers goroutines;
//     each worker writes only its own result slot.
//  3. Order — keep survivors within the threshold, sort by (distance,
//     id), apply the top-k limit (sequential).
//
// Results are byte-identical at every worker count: the parallel phase
// computes the same float (or the same dismissal) per candidate
// regardless of scheduling — the top-k bound, whose skips do depend on
// it, only ever skips a pair the order phase would cut — and the final
// total order normalizes collection order.
//
// # The refine kernel
//
// Refine is the one grid-cell-level entry point, reached through
// RefinePairs from Run and the standing-query registry (internal/sub);
// there is no second kernel, fallback or switch. Its three parts:
//
// Cell distance. Both summaries keep their cells in sgs.CoordLess order
// and a translation preserves that order, so the distance under one
// alignment is a single merge pass over the two lists (where a translated
// coordinate wraps around int32 the pass restarts its cursor, which keeps
// the lookup exact). Per-cell terms are added in the target's cell order,
// so every distance is bit-identical to a cell-by-cell lookup.
//
// Search. The anytime search runs on pooled, typed scratch — a slice
// min-heap that sifts exactly like container/heap (alignments of equal
// distance must pop in the same order, or different ones get expanded)
// and an epoch-stamped open-addressed visited set — so a warm call
// allocates nothing. Every alignment the search reaches is evaluated in
// full: its exact distance decides where the search goes next, so
// abandoning one early (say, once it exceeds the threshold) would change
// which alignments are reached and hence the answer.
//
// Bounds. Only a few percent of gate survivors end up within the
// threshold, and most of the rest can be dismissed without searching. A
// position-insensitive pair at a threshold below 1 meets two exact stages
// before the search runs; a pair either stage dismisses reports dist =
// +Inf, and Stats.Pruned and sgs_match_pruned_pairs_total count it.
//
// Stage one, M*. Let M* be the largest number of target cells any
// translation brings into coincidence with candidate cells. An alignment
// with m coincident cells leaves |a|−m target cells and |b|−m candidate
// cells unmatched at difference 1 each, over a union of |a|+|b|−m cells,
// so
//
//	CellDistance ≥ (|a|+|b|−2m) / (|a|+|b|−m) ≥ (|a|+|b|−2M*) / (|a|+|b|−M*)
//
// for every alignment whatsoever — reachable by the search or not — since
// the middle term falls as m grows and m ≤ M*. The pair is dismissed when
// the right-hand side exceeds the threshold: first with M* ≤ min(|a|,|b|),
// which is O(1) and needs only the cell counts (RefinePairs applies it
// before it loads a candidate's summary, from the cell count its features
// carry),
// then with the true M*, found by letting each of the |a|·|b| cell pairs
// vote for its difference vector in a pooled dense table.
//
// Stage two, the voted alignments. An alignment no cell pair votes for
// has no coincident cell: every one of the |a|+|b| cells is unmatched at
// difference exactly 1, and the kernel's sum of |a|+|b| ones over a union
// of |a|+|b| is exactly 1, above any threshold below 1. So only voted
// alignments can come within the threshold, and of those only the ones
// holding at least mMin votes, the smallest m whose middle term above is
// within the threshold (computed with that same division). The stage
// walks the table that stage one has just filled, decodes each entry with
// at least mMin votes into its alignment, and evaluates the cell distance
// there, stopping at the first one within the threshold; only then does
// the search run. Entries holding all M* votes are walked first, since
// they are the likeliest to be within: a pair that is kept then usually
// costs one evaluation. The search can only return the cell distance at
// some alignment, so when none of the scanned ones is within, neither is
// its answer, and the pair is dismissed. A pair the stage keeps gets
// exactly the search it got before: no distance and no result changes.
// The scan allocates nothing.
//
// Decoding survives int32 wrap-around. The table indexes the difference
// b[j]−a[i] of each pair in int64, shifted up by (max a − min b) so every
// digit is non-negative; the entry's axis digits give the difference back
// once the shift is subtracted. The decoder subtracts it in int32
// arithmetic, so where the true difference does not fit in int32 it yields
// one congruent to it mod 2^32 — and cellDistance translates in int32 as
// well, so that alignment maps a[i] onto the very cell b[j], and onto the
// same cells as any alignment congruent to it. The table's 2^16 cap keeps
// every axis's span of differences far below 2^32, so no two entries are
// congruent and each entry's votes are exactly its alignment's coincident
// cells.
//
// Both stages compare exactly in floating point, not just in the reals.
// The kernel's sum starts at 0 and adds 1 per unmatched target cell, a
// non-negative difference per matched one, then |b|−m; float addition is
// monotone and small integers are exact, so the computed sum is at least
// the integer |a|+|b|−2m. Correctly rounded division is monotone in its
// numerator, and rounding preserves the ordering of the quotients for
// m ≤ M*; the bound is evaluated with the very same division. Hence
// computed distance ≥ computed bound, with no tolerance anywhere.
//
// Vote cost. Voting is skipped — the pair goes straight to the search —
// when the difference vectors span more than 2^16 table entries (sparse
// or high-dimensional summaries; the cap also keeps int32 wrap-around
// from splitting one translation over two entries), or when
// |a|·|b| + entries/8 votes would cost more than the budget·(|a|+|b|)
// cell visits of the search they might save. The rule is a function of
// the pair and the budget alone: there is nothing to configure.
//
// # Top-k bound
//
// Every analyst query asks for the closest few matches, and with a loose
// threshold the exact bounds above keep most gate survivors, each of which
// would cost a full search only to be cut by the limit. So when Run has
// a Limit k and a position-insensitive metric, RefinePairs shares one
// running bound among its workers (Fagin's threshold algorithm, in the
// refine loop's own order: no prepass, no waves, no second loop). A pair
// that Refine's exact stages keep at the query threshold:
//
//  1. offers u, the cell distance at its start alignment, to the bound.
//     The search starts there and returns the least distance it meets, so
//     u bounds the pair's distance from above. The bound keeps the k
//     smallest offers of distinct pairs (one entry per pair, in a
//     mutex-guarded max-heap, O(log k) per offer) and returns τ, the
//     lesser of the threshold and the k-th smallest entry;
//  2. if τ is below the threshold, meets the size floor, M* and the voted
//     scan again at τ (the vote table is still in its scratch). If they
//     prove every alignment farther than τ, the search is skipped: the
//     pair reports +Inf and is not within;
//  3. otherwise searches from that start, reusing u, and lowers its own
//     entry to the distance found.
//
// Why no result changes: at every moment k distinct pairs have a distance
// at or below τ, and τ only falls. A skipped pair's distance exceeds τ
// strictly, so k pairs beat it whatever the tie-break, and it cannot be in
// the top k. A pair whose distance equals τ is never skipped (the stages
// dismiss only what is strictly beyond), so ties at the k-th place still
// go to the smaller id. Every pair that is searched gets exactly the
// unbounded search's distance.
//
// Which pairs are skipped depends on the order in which workers reach
// them, so skips are not counted in Stats: Stats.Pruned keeps its meaning
// (dismissed at the query threshold) and Stats stays identical at every
// worker count, with or without a Limit. Skips are counted by
// sgs_match_topk_skipped_total and the refine span's topk_skipped
// attribute. Standing queries (internal/sub) and queries without a Limit
// pass no bound and run exactly the code above.
//
// # Concurrency against the base
//
// Run executes against a Source — either a pinned *archive.Snapshot
// (point-in-time view, the facade's one-shot choice) or a *archive.Base
// (one snapshot pinned per call, which novelty archiving uses so each
// probe sees the previous Put). Either way the query never holds the
// base's lock, so analysts can hammer the base while shards append; see
// the internal/archive package comment for the isolation contract.
package match
