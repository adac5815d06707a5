package main

import (
	"fmt"
	"sort"

	"streamsum"
	"streamsum/internal/archive"
	"streamsum/internal/dbscan"
	"streamsum/internal/grid"
	"streamsum/internal/match"
)

// The output checks. Each counts as an attempted operation and, when it
// fails, as a failed one:
//
//	(a) an emitted window's cluster membership equals DBSCAN on its tuples
//	(b) a query's result is ordered, within threshold and limit, and finds
//	    an archived target itself at distance 0
//	(c) the query staged from the layers' public pieces equals match.Run
//	(d) the events delivered for a window equal brute force over every
//	    subscription x new entry
//	(e) a disk store reopens with exactly the archived entry count

// windowCheck is one emitted window kept for check (a) with the tuples it
// covered; first is the tuple id of tuples[0].
type windowCheck struct {
	result *streamsum.WindowResult
	tuples []streamsum.Point
	first  int64
}

// alertCheck is one monitored window kept for check (d): the summaries it
// added to the archive, which got the ids firstID, firstID+1, ...
type alertCheck struct {
	window   int64
	firstID  int64
	admitted []*streamsum.Summary
}

// checkWindows is check (a). The oracle is dbscan.Run with the paper's
// cell-granularity attachment of edge objects (5.4), which is the
// membership C-SGS defines and reproduces exactly.
func (r *run) checkWindows() {
	geo, err := grid.NewGeometry(r.opts.Dim, r.opts.ThetaR)
	if err != nil {
		r.res.tally.check("a", 1, 1, err.Error())
		return
	}
	for _, wc := range r.windowChecks {
		ids := make([]int64, len(wc.tuples))
		for i := range ids {
			ids[i] = wc.first + int64(i)
		}
		want, err := dbscan.RunCellAttached(wc.tuples, ids, dbscan.Params{ThetaR: r.opts.ThetaR, ThetaC: r.opts.ThetaC}, geo)
		if err != nil {
			r.res.tally.check("a", 1, 1, err.Error())
			continue
		}
		cls := append([]*streamsum.Cluster(nil), wc.result.Clusters...)
		sort.Slice(cls, func(i, j int) bool { return cls[i].Cores[0] < cls[j].Cores[0] })
		got := make([][]int64, len(cls))
		for i, c := range cls {
			got[i] = c.Members
		}
		bad := 0
		if !dbscan.EqualSignature(got, want.Signature()) {
			bad = 1
		}
		r.res.tally.check("a", 1, bad, fmt.Sprintf("window %d: %d clusters, DBSCAN finds %d or other members", wc.result.Window, len(got), len(want.Clusters)))
	}
	r.windowChecks = nil
}

// checkMatchResult is check (b); it returns what is wrong, or "".
func checkMatchResult(q query, got []streamsum.Match) string {
	if q.opts.Limit > 0 && len(got) > q.opts.Limit {
		return fmt.Sprintf("%d results exceed limit %d", len(got), q.opts.Limit)
	}
	for i, m := range got {
		if m.Distance > q.opts.Threshold {
			return fmt.Sprintf("result %d at distance %g exceeds threshold %g", m.ID, m.Distance, q.opts.Threshold)
		}
		if i > 0 && (got[i-1].Distance > m.Distance || got[i-1].Distance == m.Distance && got[i-1].ID >= m.ID) {
			return "results are not in ascending (distance, id) order"
		}
	}
	if q.archivedID < 0 {
		return ""
	}
	// An archived target is its own nearest match. Summaries identical to
	// it (a cluster no tuple entered or left between two windows) tie at
	// distance 0 and sort by id, so the target leads unless such twins
	// precede it, and is present unless they fill the limit.
	if len(got) == 0 || got[0].Distance != 0 {
		return fmt.Sprintf("archived target %d did not match itself at distance 0", q.archivedID)
	}
	for _, m := range got {
		if m.ID == q.archivedID {
			return ""
		}
		if m.Distance != 0 {
			break
		}
	}
	if got[len(got)-1].Distance == 0 && len(got) == q.opts.Limit {
		return ""
	}
	return fmt.Sprintf("archived target %d missing from its own result", q.archivedID)
}

// stagedCounts are the candidate counts of a staged query, to hold against
// match.Stats.
type stagedCounts struct{ candidates, refined int }

// stagedMatch answers a query from the layers' public pieces — the index
// probe, the cluster-feature gate, the summary load, the grid-cell
// distance, the ordering — in the order match.Run composes them. stage, if
// not nil, brackets each piece (the layer pass turns the calls into spans).
func stagedMatch(snap *archive.Snapshot, o streamsum.MatchOptions, stage func(name string) func()) ([]streamsum.Match, stagedCounts, error) {
	if stage == nil {
		stage = func(string) func() { return func() {} }
	}
	w := match.EqualWeights()
	if o.Weights != nil {
		w = *o.Weights
	}
	feat := o.Target.Features().Vector()

	done := stage("staged.filter")
	var cands []*archive.Entry
	visit := func(e *archive.Entry) bool {
		cands = append(cands, e)
		return true
	}
	if w.PositionSensitive {
		snap.SearchLocation(o.Target.MBR(), visit)
	} else {
		lo, hi := match.FeatureRanges(feat, w, o.Threshold)
		snap.SearchFeatures(lo, hi, visit)
	}
	done()

	done = stage("staged.gate")
	var kept []*archive.Entry
	for _, e := range cands {
		if match.FeatureDistance(feat, e.Features.Vector(), w) <= o.Threshold {
			kept = append(kept, e)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].ID < kept[j].ID })
	done()
	counts := stagedCounts{candidates: len(cands), refined: len(kept)}

	done = stage("staged.load")
	sums := make([]*streamsum.Summary, len(kept))
	for i, e := range kept {
		s, err := e.LoadSummary()
		if err != nil {
			done()
			return nil, counts, err
		}
		sums[i] = s
	}
	done()

	done = stage("staged.refine")
	dists := make([]float64, len(kept))
	for i := range kept {
		dists[i] = match.RefineDistance(o.Target, sums[i], w, match.DefaultAlignBudget)
	}
	done()

	done = stage("staged.order")
	var out []streamsum.Match
	for i, e := range kept {
		if dists[i] <= o.Threshold {
			out = append(out, streamsum.Match{ID: e.ID, Distance: dists[i], Entry: e})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	if o.Limit > 0 && len(out) > o.Limit {
		out = out[:o.Limit]
	}
	done()
	return out, counts, nil
}

// sameMatches compares two results by ids and distances.
func sameMatches(a, b []streamsum.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Distance != b[i].Distance {
			return false
		}
	}
	return true
}

// stagedEqualsRun runs one query both ways on one pinned snapshot and
// reports whether ids, distances and candidate counts agree.
func stagedEqualsRun(snap *archive.Snapshot, o streamsum.MatchOptions) (bool, error) {
	want, st, err := match.Run(snap, match.Query{Target: o.Target, Threshold: o.Threshold, Weights: o.Weights, Limit: o.Limit})
	if err != nil {
		return false, err
	}
	got, counts, err := stagedMatch(snap, o, nil)
	if err != nil {
		return false, err
	}
	return sameMatches(got, want) && counts.candidates == st.IndexCandidates && counts.refined == st.Refined, nil
}

// checkStaged is check (c) on a handful of fresh queries over the final
// history (the layer pass also makes it inline on every staged query).
func (r *run) checkStaged() {
	if r.cfg.w.archivedTargets == 0 {
		return // the workload asks no queries
	}
	plan, err := newQueryPlan(r.cfg.w, r.seed+1, r.sys.PatternBase(), r.heldOut)
	if err != nil {
		r.res.tally.check("c", 1, 1, err.Error())
		return
	}
	snap := r.sys.PatternBase().Snapshot()
	for i := 0; i < 8; i++ {
		ok, err := stagedEqualsRun(snap, plan.next().opts)
		bad := 0
		if err != nil || !ok {
			bad = 1
		}
		r.res.tally.check("c", 1, bad, fmt.Sprintf("staged replay differs from match.Run (err %v)", err))
	}
}

// checkAlerts is check (d) for the windows kept during the monitored phase
// that just ended: the delivered (subscription, entry, distance) triples
// must be exactly those brute force admits.
func (r *run) checkAlerts() {
	w := match.EqualWeights()
	if sw := r.cfg.w.subWeights(); sw != nil {
		w = *sw
	}
	thr := r.cfg.w.subThreshold
	for _, ac := range r.alertChecks {
		type key struct {
			sub   int
			entry int64
		}
		want := make(map[key]float64)
		for si, sb := range r.subs {
			tf, tmbr := sb.target.Features().Vector(), sb.target.MBR()
			for i, s := range ac.admitted {
				// Disjoint clusters are at location distance 1.
				if w.PositionSensitive && !tmbr.Intersects(s.MBR()) {
					continue
				}
				if match.FeatureDistance(tf, s.Features().Vector(), w) > thr {
					continue
				}
				if d := match.RefineDistance(sb.target, s, w, match.DefaultAlignBudget); d <= thr {
					want[key{si, ac.firstID + int64(i)}] = d
				}
			}
		}
		got := 0
		bad := 0
		for si, sb := range r.subs {
			for _, rc := range sb.got {
				if rc.window != ac.window {
					continue
				}
				got++
				if d, ok := want[key{si, rc.entryID}]; !ok || d != rc.dist {
					bad = 1
				}
			}
		}
		if got != len(want) {
			bad = 1
		}
		r.res.tally.check("d", 1, bad, fmt.Sprintf("window %d: %d events delivered, brute force admits %d", ac.window, got, len(want)))
	}
}

// checkReopen is check (e): the closed store, opened again, holds every
// summary the archive admitted.
func (r *run) checkReopen() {
	eng, err := streamsum.New(r.opts)
	if err != nil {
		r.res.tally.check("e", 1, 1, err.Error())
		return
	}
	n := eng.PatternBase().Len()
	bad := 0
	if int64(n) != r.archived {
		bad = 1
	}
	r.res.tally.check("e", 1, bad, fmt.Sprintf("reopened store holds %d entries, %d were archived", n, r.archived))
	if err := eng.Close(); err != nil {
		r.res.tally.check("e", 1, 1, err.Error())
	}
}
