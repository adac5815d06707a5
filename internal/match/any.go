package match

import (
	"sync/atomic"

	"streamsum/internal/archive"
	"streamsum/internal/geom"
	"streamsum/internal/par"
	"streamsum/internal/sgs"
)

// Any reports, for each target, whether src holds at least one entry
// within q.Threshold — the existence form of Run, evaluated for a whole
// batch of targets in one filter-and-refine pass. The evolution-driven
// archiver uses it to novelty-test a completed window's summaries with
// one pass over the base instead of one full query per summary.
//
// Both phases share a single parallel fan-out across Query.Workers: the
// filter phase probes every (target, shard) combination, and the refine
// phase evaluates every surviving (target, candidate) pair, short-
// circuiting a target's remaining pairs once one match is found. The
// returned flags are byte-identical at every worker count (existence is
// order-independent); q.Target and q.Limit are ignored.
func Any(src Source, targets []*sgs.Summary, q Query) ([]bool, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	w, err := prepare(src, q, targets...)
	if err != nil {
		return nil, err
	}

	feats := make([][4]float64, len(targets))
	mbrs := make([]geom.MBR, len(targets))
	los := make([][4]float64, len(targets))
	his := make([][4]float64, len(targets))
	for i, t := range targets {
		feats[i] = t.Features().Vector()
		mbrs[i] = t.MBR()
		los[i], his[i] = FeatureRanges(feats[i], w, q.Threshold)
	}

	// --- Phase 1: filter — every (target, shard) probe is one task --------
	// The exact cluster-level feature gate runs inside the probe (fused
	// filter; see filterOne), so only surviving pairs ever materialize.
	shards := filterShards(src)
	cands := make([][]*archive.Entry, len(targets)*len(shards))
	par.ForEach(q.Workers, len(cands), func(k int) {
		ti, si := k/len(shards), k%len(shards)
		gate := func(v [4]float64) bool {
			return FeatureDistance(feats[ti], v, w) <= q.Threshold
		}
		cands[k], _ = filterOne(shards[si], gate, w, mbrs[ti], los[ti], his[ti])
	})

	// Flatten the surviving pairs.
	type pair struct {
		ti int
		e  *archive.Entry
	}
	var pairs []pair
	for k, part := range cands {
		ti := k / len(shards)
		for _, e := range part {
			pairs = append(pairs, pair{ti, e})
		}
	}

	// --- Phase 2: refine — all pairs share one fan-out --------------------
	// found is monotonic (false -> true), so racing workers can only skip
	// work, never change the outcome.
	found := make([]atomic.Bool, len(targets))
	errs := make([]error, len(pairs))
	par.ForEach(q.Workers, len(pairs), func(i int) {
		p := pairs[i]
		if found[p.ti].Load() {
			return
		}
		sum, err := p.e.LoadSummary()
		if err != nil {
			errs[i] = err
			return
		}
		if _, within := Refine(targets[p.ti], sum, w, DefaultAlignBudget, q.Threshold); within {
			found[p.ti].Store(true)
		}
	})
	out := make([]bool, len(targets))
	for i := range out {
		out[i] = found[i].Load()
	}
	for i, err := range errs {
		// A load failure only matters if it could have flipped a flag.
		if err != nil && !out[pairs[i].ti] {
			return nil, err
		}
	}
	return out, nil
}
