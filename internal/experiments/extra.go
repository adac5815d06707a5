package experiments

import (
	"math"
	"math/rand"
	"time"

	"streamsum/internal/archive"
	"streamsum/internal/core"
	"streamsum/internal/extran"
	"streamsum/internal/gen"
	"streamsum/internal/geom"
	"streamsum/internal/match"
	"streamsum/internal/quality"
	"streamsum/internal/window"
)

// This file reproduces the two experiments the paper delegates to its
// technical report: time-based windows under fluctuating input rates
// (§8.1) and matching with multi-resolution SGS (§8.3 / §6.1).

// TimeVarConfig parameterizes the fluctuating-rate experiment.
type TimeVarConfig struct {
	// Windows is the number of complete time windows to process.
	Windows int
	// WinTicks/SlideTicks define the time-based window (defaults 600/60).
	WinTicks, SlideTicks int64
	// Tuples is the stream length (default 60000).
	Tuples int
	Seed   int64
}

// TimeVarResult compares C-SGS and Extra-N under one fluctuating-rate run.
type TimeVarResult struct {
	Method      string
	Windows     int
	Clusters    int
	AvgResponse time.Duration
	MaxResponse time.Duration
}

// RunTimeVar runs both methods over the same bursty GMTI stream with
// time-based windows. Bursts make per-window tuple counts fluctuate by an
// order of magnitude, stressing the lifespan machinery (object lifespans
// vary per tuple instead of being uniform as in count-based windows).
func RunTimeVar(cfg TimeVarConfig) ([]TimeVarResult, error) {
	if cfg.Windows <= 0 {
		cfg.Windows = 20
	}
	if cfg.WinTicks <= 0 {
		cfg.WinTicks = 600
	}
	if cfg.SlideTicks <= 0 {
		cfg.SlideTicks = 60
	}
	if cfg.Tuples <= 0 {
		cfg.Tuples = 60000
	}
	data := gen.GMTI(gen.GMTIConfig{Seed: cfg.Seed}, cfg.Tuples)
	// Re-time the stream with bursts and lulls: stretches of dense traffic
	// followed by quiet periods.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	ts := make([]int64, len(data.Points))
	t := int64(0)
	burst := false
	for i := range ts {
		if rng.Float64() < 0.002 {
			burst = !burst
		}
		if burst {
			if rng.Float64() < 0.1 {
				t++
			}
		} else {
			t += int64(1 + rng.Intn(3))
		}
		ts[i] = t
	}

	// Single-threaded on both sides, like Fig. 7 (see RunFig7).
	wcfg := core.Config{
		Dim: 2, ThetaR: 1.2, ThetaC: 5,
		Window:  window.Spec{Kind: window.TimeBased, Win: cfg.WinTicks, Slide: cfg.SlideTicks},
		Workers: 1,
	}
	var out []TimeVarResult
	for _, method := range []string{"Extra-N", "C-SGS"} {
		var proc interface {
			Push(p geom.Point, ts int64) (int64, []*core.WindowResult, error)
		}
		var err error
		if method == "C-SGS" {
			proc, err = core.New(wcfg)
		} else {
			proc, err = extran.New(wcfg)
		}
		if err != nil {
			return nil, err
		}
		res := TimeVarResult{Method: method}
		var elapsed, sinceLastWindow time.Duration
		for i := range data.Points {
			start := time.Now()
			_, emitted, err := proc.Push(data.Points[i], ts[i])
			d := time.Since(start)
			elapsed += d
			sinceLastWindow += d
			if err != nil {
				return nil, err
			}
			for _, w := range emitted {
				res.Windows++
				res.Clusters += len(w.Clusters)
				// Per-window response: everything since the previous
				// emission (insertions of the slide + the output stage).
				if sinceLastWindow > res.MaxResponse {
					res.MaxResponse = sinceLastWindow
				}
				sinceLastWindow = 0
			}
			if res.Windows >= cfg.Windows {
				break
			}
		}
		if res.Windows > 0 {
			res.AvgResponse = elapsed / time.Duration(res.Windows)
		}
		out = append(out, res)
	}
	return out, nil
}

// ResolutionConfig parameterizes the multi-resolution matching experiment.
type ResolutionConfig struct {
	// Levels is the highest resolution level to test (default 2; level 0
	// is the Basic SGS).
	Levels int
	// Theta is the per-level compression rate (default 3, the paper's
	// Figure 5 example).
	Theta       int
	ArchiveSize int // default 200
	Targets     int // default 16
	Seed        int64
}

// ResolutionResult is one resolution level's cost/quality measurement.
type ResolutionResult struct {
	Level int
	// StoreBytes is the archive storage at this level.
	StoreBytes int
	// AvgCells is the mean skeletal grid cells per archived cluster.
	AvgCells float64
	// AvgQuery is the average matching query time.
	AvgQuery time.Duration
	// AvgTopSim is the mean oracle similarity of the best match per
	// target (quality retained at this resolution).
	AvgTopSim float64
}

// RunResolution archives the same clusters at increasingly coarse SGS
// resolutions and measures matching cost and quality at each (§6.1's
// budget/accuracy trade-off made concrete).
func RunResolution(cfg ResolutionConfig) ([]ResolutionResult, error) {
	if cfg.Levels <= 0 {
		cfg.Levels = 2
	}
	if cfg.Theta < 2 {
		cfg.Theta = 3
	}
	if cfg.ArchiveSize <= 0 {
		cfg.ArchiveSize = 200
	}
	if cfg.Targets <= 0 {
		cfg.Targets = 16
	}
	clusters := gen.Clusters(gen.ClustersConfig{Seed: cfg.Seed}, cfg.ArchiveSize)
	targets := gen.Clusters(gen.ClustersConfig{Seed: cfg.Seed + 999}, cfg.Targets)
	oracle, err := quality.NewOracle(2, MatchParams.ThetaR/math.Sqrt2, quality.DefaultThresholds())
	if err != nil {
		return nil, err
	}

	var out []ResolutionResult
	for level := 0; level <= cfg.Levels; level++ {
		base, err := archive.New(archive.Config{Dim: 2, Level: level, Theta: cfg.Theta})
		if err != nil {
			return nil, err
		}
		members := make(map[int64][]geom.Point)
		cellSum := 0
		for i, gc := range clusters {
			member, _, summary, err := summarizeCluster(gc.Points, MatchParams.ThetaR, MatchParams.ThetaC, int64(i))
			if err != nil {
				return nil, err
			}
			id, ok, err := base.Put(summary)
			if err != nil || !ok {
				return nil, err
			}
			members[id] = member
			cellSum += base.Get(id).Summary.NumCells()
		}
		for id, m := range members {
			oracle.AddCluster(offsetID(level, id), m)
		}

		res := ResolutionResult{Level: level, StoreBytes: base.Bytes(),
			AvgCells: float64(cellSum) / float64(cfg.ArchiveSize)}
		var simSum float64
		rated := 0
		start := time.Now()
		for ti, tc := range targets {
			member, _, summary, err := summarizeCluster(tc.Points, MatchParams.ThetaR, MatchParams.ThetaC, int64(3_000_000+ti))
			if err != nil {
				return nil, err
			}
			// Match at the archive's resolution.
			target, err := summary.CompressTo(level, cfg.Theta)
			if err != nil {
				return nil, err
			}
			ms, _, err := match.Run(base.Snapshot(), match.Query{Target: target, Threshold: 1, Limit: 1})
			if err != nil {
				return nil, err
			}
			if len(ms) > 0 {
				sim, err := oracle.Similarity(member, offsetID(level, ms[0].ID))
				if err != nil {
					return nil, err
				}
				simSum += sim
				rated++
			}
		}
		res.AvgQuery = time.Since(start) / time.Duration(len(targets))
		if rated > 0 {
			res.AvgTopSim = simSum / float64(rated)
		}
		out = append(out, res)
	}
	return out, nil
}

// offsetID namespaces oracle cluster ids per level (each level re-archives
// the same clusters with fresh archive ids starting at 0).
func offsetID(level int, id int64) int64 {
	return int64(level)*10_000_000 + id
}
