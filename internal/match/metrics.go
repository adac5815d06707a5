package match

import "streamsum/internal/obs"

// Process-wide match-phase metrics (obs.Default), recorded by every Run
// regardless of per-query tracing. Per-shard segment scan and zone-skip
// counts live in internal/segstore's families; these cover the phases
// the paper's filter-and-refine analysis reports.
var (
	metricQueries = obs.NewCounter("sgs_match_queries_total",
		"Matching queries executed.")
	metricCandidates = obs.NewCounter("sgs_match_candidates_total",
		"Index candidates returned by filter-phase probes.")
	metricRefined = obs.NewCounter("sgs_match_refined_total",
		"Candidates that survived the cluster-level gate into the refine phase.")
	metricPruned = obs.NewCounter("sgs_match_pruned_pairs_total",
		"Refine-phase pairs an exact distance bound dismissed without an alignment search, counted once per refine stage (one-shot and standing queries).")
	metricTopKSkipped = obs.NewCounter("sgs_match_topk_skipped_total",
		"Refine-phase pairs a query's running top-k bound showed could not reach its top k, so their alignment search was skipped. Not counted as pruned; how many depends on scheduling.")
	metricFilterSeconds = obs.NewHistogram("sgs_match_filter_seconds",
		"Filter phase wall time (parallel gated index probes across shards).")
	metricRefineSeconds = obs.NewHistogram("sgs_match_refine_seconds",
		"Refine phase wall time (grid-cell-level matches, including disk loads).")
	metricOrderSeconds = obs.NewHistogram("sgs_match_order_seconds",
		"Order phase wall time (threshold, sort, top-k).")
)
