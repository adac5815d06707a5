package experiments

import (
	"fmt"
	"time"

	"streamsum/internal/core"
	"streamsum/internal/crd"
	"streamsum/internal/extran"
	"streamsum/internal/gen"
	"streamsum/internal/geom"
	"streamsum/internal/rsp"
	"streamsum/internal/sgs"
	"streamsum/internal/skps"
	"streamsum/internal/window"
)

// Figure 7 (§8.1): CPU time and memory for cluster extraction plus
// summarization, comparing
//
//	Extra-N        — extraction only, full representation (baseline),
//	Extra-N + CRD  — extraction, then CRD per cluster,
//	Extra-N + RSP  — extraction, then memory-matched random sample,
//	Extra-N + SkPS — extraction, then greedy connected-dominating-set,
//	C-SGS          — integrated extraction + SGS (full + summarized).
//
// Workload: STT 4-D (type, price, volume, time), win = 10K tuples, slide ∈
// {0.1K, 1K, 5K}, three density parameter cases. The response-time metric
// is the §8.1 definition: average CPU time per window from data arrival to
// all clusters output in the representations the method produces.

// RSPBudgetBytes is the per-cluster byte budget used for RSP samples. The
// paper sizes each cluster's sample to match its SGS; 1.5 KB is the
// paper's reported average SGS size per cluster (68 cells × 23 B).
const RSPBudgetBytes = 1500

// Fig7Config parameterizes one Figure 7 cell.
type Fig7Config struct {
	Case    ParamCase
	Slide   int64
	Method  string // one of Methods
	Windows int    // complete windows to process (paper: 10K; default 20)
	Seed    int64
	// Data optionally supplies a pre-generated stream (shared across
	// methods to keep comparisons paired); it must contain at least
	// Fig7Win + Windows·Slide tuples.
	Data *gen.Batch
}

// Fig7Result is one measured cell of Figure 7.
type Fig7Result struct {
	Method   string
	Case     string
	Slide    int64
	Windows  int
	Clusters int
	// AvgResponse is the per-window response time (extraction +
	// summarization where applicable).
	AvgResponse time.Duration
	// P95Response and MaxResponse are per-window tail latencies.
	P95Response time.Duration
	MaxResponse time.Duration
	// PeakHeapBytes is the peak live-heap growth over the run (the
	// memory-footprint metric; the shared input stream is excluded by
	// baselining before the run).
	PeakHeapBytes uint64
	// SummaryBytes is the total encoded size of all summaries produced.
	SummaryBytes int
}

// RunFig7 executes one cell of Figure 7.
func RunFig7(cfg Fig7Config) (Fig7Result, error) {
	if cfg.Windows <= 0 {
		cfg.Windows = 20
	}
	need := int(Fig7Win + int64(cfg.Windows)*cfg.Slide)
	var data gen.Batch
	if cfg.Data != nil {
		data = *cfg.Data
		if len(data.Points) < need {
			return Fig7Result{}, fmt.Errorf("experiments: supplied data has %d tuples, need %d", len(data.Points), need)
		}
	} else {
		data = sttData(need, cfg.Seed)
	}
	res := Fig7Result{Method: cfg.Method, Case: cfg.Case.Name, Slide: cfg.Slide}

	// Workers: 1 keeps C-SGS's output stage on one goroutine, so the
	// §8.1 comparison is single-threaded on both sides, as in the paper
	// (Extra-N always runs sequentially).
	wcfg := core.Config{
		Dim: 4, ThetaR: cfg.Case.ThetaR, ThetaC: cfg.Case.ThetaC,
		Window:  window.Spec{Win: Fig7Win, Slide: cfg.Slide},
		Workers: 1,
	}

	type pusher interface {
		Push(p geom.Point, ts int64) (int64, []*core.WindowResult, error)
	}
	var proc pusher
	var err error
	switch cfg.Method {
	case "C-SGS":
		proc, err = core.New(wcfg)
	case "C-SGS-full":
		wcfg.SkipSummaries = true
		proc, err = core.New(wcfg)
	default:
		proc, err = extran.New(wcfg)
	}
	if err != nil {
		return res, err
	}

	baseline := heapAlloc()
	peak := uint64(0)
	var elapsed, sinceWindow time.Duration
	var lat Latencies

	summarize := func(w *core.WindowResult) error {
		for _, c := range w.Clusters {
			switch cfg.Method {
			case "Extra-N", "C-SGS", "C-SGS-full":
				if c.Summary != nil {
					res.SummaryBytes += sgs.EncodedSize(c.Summary)
				}
			case "Extra-N+CRD":
				pts := memberPoints(data.Points, c.Members)
				s, err := crd.FromPoints(pts, c.ID, w.Window)
				if err != nil {
					return err
				}
				res.SummaryBytes += s.Size()
			case "Extra-N+RSP":
				pts := memberPoints(data.Points, c.Members)
				s, err := rsp.FromPoints(pts, c.ID, w.Window, RSPBudgetBytes, nil)
				if err != nil {
					return err
				}
				res.SummaryBytes += s.Size()
			case "Extra-N+SkPS":
				pts := memberPoints(data.Points, c.Members)
				isCore := coreFlags(c)
				s, err := skps.FromCluster(pts, isCore, cfg.Case.ThetaR, c.ID, w.Window)
				if err != nil {
					return err
				}
				res.SummaryBytes += s.Size()
			default:
				return fmt.Errorf("experiments: unknown method %q", cfg.Method)
			}
		}
		return nil
	}

	for i := 0; i < need; i++ {
		start := time.Now()
		_, emitted, err := proc.Push(data.Points[i], 0)
		if err != nil {
			return res, err
		}
		// The two-stage methods summarize inside the response-time window:
		// the analyst sees clusters + summaries together.
		for _, w := range emitted {
			if err := summarize(w); err != nil {
				return res, err
			}
		}
		d := time.Since(start)
		elapsed += d
		sinceWindow += d
		for _, w := range emitted {
			res.Windows++
			res.Clusters += len(w.Clusters)
			lat.Add(sinceWindow)
			sinceWindow = 0
			if h := heapSample(); h > baseline && h-baseline > peak {
				peak = h - baseline
			}
			_ = w
		}
		if res.Windows >= cfg.Windows {
			break
		}
	}
	if res.Windows == 0 {
		return res, fmt.Errorf("experiments: no windows completed")
	}
	res.AvgResponse = elapsed / time.Duration(res.Windows)
	res.P95Response = lat.Quantile(0.95)
	res.MaxResponse = lat.Max()
	res.PeakHeapBytes = peak
	return res, nil
}

func memberPoints(all []geom.Point, members []int64) []geom.Point {
	pts := make([]geom.Point, len(members))
	for i, id := range members {
		pts[i] = all[id]
	}
	return pts
}

func coreFlags(c *core.Cluster) []bool {
	coreSet := make(map[int64]bool, len(c.Cores))
	for _, id := range c.Cores {
		coreSet[id] = true
	}
	flags := make([]bool, len(c.Members))
	for i, id := range c.Members {
		flags[i] = coreSet[id]
	}
	return flags
}

// Fig7Overhead computes the §8.1 headline number: the relative response
// time overhead of a method versus the Extra-N baseline for the same
// workload (paper: C-SGS consistently below 6%).
func Fig7Overhead(method, baseline Fig7Result) float64 {
	if baseline.AvgResponse == 0 {
		return 0
	}
	return float64(method.AvgResponse-baseline.AvgResponse) / float64(baseline.AvgResponse)
}
