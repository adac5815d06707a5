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
// pipeline mirroring the extractor's output stage:
//
//  1. Filter — probe the pattern base's locational (R-tree) or
//     non-locational (4-D grid) index with ranges derived from the
//     distance threshold, collecting candidate entries (sequential; the
//     probe is cheap).
//  2. Refine — evaluate the expensive grid-cell-level match (Refine) for
//     every candidate surviving the exact cluster-level feature
//     distance: the best alignment found by an A*-style anytime search
//     (position-insensitive case) or the identity alignment
//     (position-sensitive case), unless an exact bound shows first that
//     no alignment can come within the threshold. This phase fans out
//     across Query.Workers goroutines; candidates are independent, so
//     each worker writes only its own result slot.
//  3. Order — keep survivors within the threshold, sort by (distance,
//     id), apply the top-k limit (sequential).
//
// Results are byte-identical at every worker count: the parallel phase
// computes the same float (or the same dismissal) per candidate
// regardless of scheduling, and the final total order normalizes
// collection order.
//
// # The refine kernel
//
// Refine is the one grid-cell-level entry point under Run, Any, the
// standing-query registry (internal/sub) and the novelty archiver; there
// is no second kernel, fallback or switch. Its three parts:
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
// Bound. Only a few percent of gate survivors end up within the
// threshold, and most of the rest can be dismissed without searching.
// Let M* be the largest number of target cells any translation brings
// into coincidence with candidate cells. An alignment with m coincident
// cells leaves |a|−m target cells and |b|−m candidate cells unmatched at
// difference 1 each, over a union of |a|+|b|−m cells, so
//
//	CellDistance ≥ (|a|+|b|−2m) / (|a|+|b|−m) ≥ (|a|+|b|−2M*) / (|a|+|b|−M*)
//
// for every alignment whatsoever — reachable by the search or not — since
// the middle term falls as m grows and m ≤ M*. A position-insensitive
// pair at a threshold below 1 is therefore dismissed when the right-hand
// side exceeds the threshold: first with M* ≤ min(|a|,|b|), which is
// O(1), then with the true M*, found by letting each of the |a|·|b| cell
// pairs vote for its difference vector in a pooled dense table. Whatever
// the search would have returned lies above the threshold too, so no
// result changes; Stats.Pruned counts the dismissals and Refine reports
// them as dist = +Inf.
//
// The comparison is exact in floating point, not just in the reals. The
// kernel's sum starts at 0 and adds 1 per unmatched target cell, a
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
// # Concurrency against the base
//
// Run executes against a Source — either a pinned *archive.Snapshot
// (point-in-time view, the facade's choice) or a *archive.Base (each
// probe takes a fresh snapshot). Either way the query never holds the
// base's lock, so analysts can hammer the base while shards append; see
// the internal/archive package comment for the isolation contract.
package match
