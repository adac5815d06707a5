// Package experiments implements the reproduction harness for the paper's
// evaluation (§8): one runner per figure, driven by the `experiments`
// command-line tool (cmd/experiments; its usage lists the figures). No
// paper-vs-measured record is committed yet; ROADMAP.md item 12 plans one.
package experiments

import (
	"fmt"
	"runtime"

	"streamsum/internal/dbscan"
	"streamsum/internal/gen"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
)

// ParamCase is one of the paper's three density parameter settings (§8.1).
type ParamCase struct {
	Name   string
	ThetaR float64
	ThetaC int
}

// Cases are the paper's STT parameter cases.
var Cases = []ParamCase{
	{"case1", 0.05, 10},
	{"case2", 0.10, 8},
	{"case3", 0.20, 5},
}

// Fig7Win is the window size used throughout §8.1.
const Fig7Win = 10000

// Slides are the §8.1 slide sizes (0.1K, 1K, 5K).
var Slides = []int64{100, 1000, 5000}

// Methods are the five §8.1 alternatives plus "C-SGS-full" — C-SGS's own
// extraction machinery with summarization output disabled. The paper
// measures its ≤6% summarization overhead against the Extra-N machinery
// C-SGS was built on; in this implementation the skeletal-grid approach
// *is* the extraction machinery, so the marginal summarization cost is
// C-SGS vs C-SGS-full.
var Methods = []string{"Extra-N", "Extra-N+CRD", "Extra-N+RSP", "Extra-N+SkPS", "C-SGS-full", "C-SGS"}

// MatchMethods are the four §8.2/§8.3 summarization formats under
// comparison.
var MatchMethods = []string{"SGS", "CRD", "RSP", "SkPS"}

// summarizeCluster runs the static clustering of Definition 3.1 on a
// generated cluster's points and returns the largest resulting cluster's
// members, core flags, and Basic SGS. Generated clusters are occasionally
// fragmented by sampling accidents; taking the largest fragment keeps the
// pipeline total.
func summarizeCluster(pts []geom.Point, thetaR float64, thetaC int, id int64) (
	member []geom.Point, isCore []bool, summary *sgs.Summary, err error) {

	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	res, err := dbscan.Run(pts, ids, dbscan.Params{ThetaR: thetaR, ThetaC: thetaC})
	if err != nil {
		return nil, nil, nil, err
	}
	if len(res.Clusters) == 0 {
		return nil, nil, nil, fmt.Errorf("experiments: generated cluster dissolved into noise")
	}
	best := 0
	for i, c := range res.Clusters {
		if len(c.Members) > len(res.Clusters[best].Members) {
			best = i
		}
	}
	cl := res.Clusters[best]
	member = make([]geom.Point, len(cl.Members))
	isCore = make([]bool, len(cl.Members))
	for i, m := range cl.Members {
		member[i] = pts[m]
		isCore[i] = res.IsCore[m]
	}
	geo, err := grid.NewGeometry(len(pts[0]), thetaR)
	if err != nil {
		return nil, nil, nil, err
	}
	summary, err = sgs.FromCluster(geo, member, isCore, id, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	summary.ID = id
	return member, isCore, summary, nil
}

// heapAlloc returns the current live heap after a GC cycle, used for the
// memory-footprint measurements of Figure 7.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSample returns the current heap without forcing a GC (cheap, used
// per window).
func heapSample() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sttData generates (and caches per size/seed within one process run) the
// STT stream used by the Figure 7/8 experiments.
func sttData(n int, seed int64) gen.Batch {
	return gen.STT(gen.STTConfig{Seed: seed}, n)
}
