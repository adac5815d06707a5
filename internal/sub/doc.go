// Package sub is the standing-query subsystem: a registry of cluster
// matching queries (the paper's Figure 3 templates with FROM Stream in
// place of FROM History) evaluated incrementally against each window's
// newly archived summaries, instead of one-shot scans over the whole
// pattern base.
//
// # Inverted matching
//
// A one-shot matching query scans the archive with one target. A
// standing query inverts that relationship: the registry keeps the
// *subscriptions* — grouped into classes by their metric weights, each
// class holding its targets' feature vectors (and, for
// position-sensitive metrics, their MBRs) in flat columns computed once
// at Subscribe — and each newly archived cluster is probed against each
// class's columns once, in one sequential pass. The probe range
// is the inversion of match.FeatureRanges: the relative feature distance
// is symmetric, so a subscription within threshold t of a new cluster
// with features v must have its target features inside the range computed
// from v at the class's maximum registered threshold. Most subscriptions
// are therefore pruned per cluster without a single distance computation;
// survivors pass the exact cluster-feature gate at their own threshold
// and only then reach the grid-cell-level match (match.Refine). Refine
// itself dismisses most of them before paying for an alignment
// search, in two exact stages: a lower bound on the distance from M*, the
// most cells any translation brings into coincidence, then the exact
// distances of the alignments enough cell pairs vote for, since an
// alignment with no coincident cell is at distance exactly 1. Stats.Pruned
// of Stats.Refined counts the dismissals; internal/match's package comment
// says why they never change an event.
//
// # Evaluation pipeline
//
// Offer evaluates one window in three phases, mirroring internal/match:
// a parallel probe phase (one task per new-entry × class pair, fanned
// across the registry's workers), a parallel refine phase
// (match.RefinePairs, the refine stage one-shot queries use: a pair the
// O(1) size bound dismisses never loads a disk-resident entry, the rest
// load their summaries and meet match.Refine), and a
// sequential ordered delivery phase. Candidate pairs are sorted by (subscription id, entry
// id) between the phases, so the events each subscription receives — and
// their order — are byte-identical at every worker count.
//
// # Concurrency and ordering contract
//
//   - Subscribe, Unsubscribe, Len, WantsTrack and Stats are safe from any
//     goroutine at any time.
//   - Offer and OfferTrack are serialized by the registry (an internal
//     mutex): windows are evaluated in call order, and the sequence
//     number each event carries is the evaluation index of its window.
//   - A subscription's events are delivered to its channel in evaluation
//     order: windows in Offer order; within a window, match events by
//     ascending entry id, then (for Track subscriptions) the window's
//     evolution events in tracker order. Delivery is asynchronous through
//     an unbounded per-subscription queue, so a slow consumer never
//     stalls Offer — memory grows with the consumer's lag instead.
//   - Unsubscribe (or Subscription.Cancel) closes the event channel.
//     Events already handed to the channel stay readable (a closed
//     buffered channel drains before reporting closed); events still in
//     the internal queue are dropped — call Sync before Cancel to
//     guarantee every delivered event reaches the channel first. A
//     subscription canceled while a window is being evaluated receives
//     either all or none of that window's events for itself, never a
//     subset.
//
// The registry never rescans history: a subscription registered after a
// window was archived does not see that window's clusters. Pair a
// Subscribe with a one-shot match.Run over the same base when "past and
// future" semantics are needed.
package sub
