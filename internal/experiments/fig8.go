package experiments

import (
	"fmt"
	"time"

	"streamsum/internal/archive"
	"streamsum/internal/crd"
	"streamsum/internal/gen"
	"streamsum/internal/geom"
	"streamsum/internal/match"
	"streamsum/internal/rsp"
	"streamsum/internal/sgs"
	"streamsum/internal/skps"
)

// Figure 8 (§8.2): response time and storage of cluster matching queries
// against pattern bases of 0.1K, 1K and 10K archived clusters, for the
// four summarization formats.
//
// Where the paper archives clusters extracted from the STT stream, this
// harness archives independently generated clusters of varied shape
// families (see gen.Clusters) — the matching workload is identical, and
// the generator guarantees shape diversity at every archive size.

// MatchParams are the density parameters used to summarize the generated
// clusters for the matching experiments (the generator's clusters have
// σ ≈ 1 spreads, so θr = 0.8 is the analogue of the paper's case 2).
var MatchParams = ParamCase{Name: "match", ThetaR: 0.8, ThetaC: 5}

// MatchParamsForDim returns density parameters adjusted for the workload
// dimensionality: pairwise distances grow with added dimensions, so θr
// must grow for clusters to stay connected (the 4-D setting mirrors the
// paper's STT workload dimensionality).
func MatchParamsForDim(dim int) ParamCase {
	if dim >= 4 {
		return ParamCase{Name: "match4d", ThetaR: 1.4, ThetaC: 5}
	}
	if dim == 3 {
		return ParamCase{Name: "match3d", ThetaR: 1.1, ThetaC: 5}
	}
	return MatchParams
}

// Fig8Config parameterizes one archive-size column of Figure 8.
type Fig8Config struct {
	// ArchiveSize is the number of archived clusters (paper: 100, 1K, 10K).
	ArchiveSize int
	// Queries is the number of to-be-matched clusters (paper: 100).
	Queries int
	// ExpensiveQueries caps the number of queries run for the pairwise
	// methods (RSP, SkPS), whose linear-scan matching is orders of
	// magnitude slower; their average is taken over this many queries
	// (default: min(Queries, 10)).
	ExpensiveQueries int
	// Threshold is the matching distance threshold (default 0.2).
	Threshold float64
	Seed      int64
}

// Fig8Result is one (method, archive size) cell.
type Fig8Result struct {
	Method      string
	ArchiveSize int
	// AvgQuery is the average matching-query response time.
	AvgQuery time.Duration
	// QueriesRun is how many queries the average was taken over.
	QueriesRun int
	// StoreBytes is the storage consumed by the archived summaries.
	StoreBytes int
	// Matches is the total number of matches returned.
	Matches int
	// FilterFrac (SGS only) is the fraction of index candidates that
	// required the grid-level match (paper: ~6%).
	FilterFrac float64
	// CompressionRate (SGS only) is 1 − SGS bytes / full-representation
	// bytes (paper: ≈98%).
	CompressionRate float64
	// AvgCells (SGS only) is the mean skeletal grid cells per archived
	// cluster (paper: 68).
	AvgCells float64
}

// MatchStores holds the per-format archives built once per configuration,
// plus the full representations (for storage accounting and the Figure 9
// oracle).
type MatchStores struct {
	Dim     int
	Params  ParamCase
	Base    *archive.Base // SGS
	CRDs    []*crd.Summary
	RSPs    []*rsp.Summary
	SkPSs   []*skps.Summary
	Members [][]geom.Point // full representations by archive id
	Shapes  []gen.ShapeFamily
	// FullBytes is the storage the full representations would need
	// (8 bytes per coordinate), the baseline of the ~98% compression
	// claim.
	FullBytes int
}

// BuildMatchStores generates and archives n 2-D clusters in all four
// formats.
func BuildMatchStores(n int, seed int64) (*MatchStores, error) {
	return BuildMatchStoresDim(n, seed, 2)
}

// BuildMatchStoresDim is BuildMatchStores for an arbitrary dimensionality
// (the paper's matching workload is 4-D STT; see MatchParamsForDim).
func BuildMatchStoresDim(n int, seed int64, dim int) (*MatchStores, error) {
	if dim < 2 {
		dim = 2
	}
	params := MatchParamsForDim(dim)
	clusters := gen.Clusters(gen.ClustersConfig{Seed: seed, Dim: dim}, n)
	base, err := archive.New(archive.Config{Dim: dim})
	if err != nil {
		return nil, err
	}
	st := &MatchStores{Dim: dim, Params: params, Base: base}
	for i, gc := range clusters {
		member, isCore, summary, err := summarizeCluster(gc.Points, params.ThetaR, params.ThetaC, int64(i))
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", i, err)
		}
		id, ok, err := base.Put(summary)
		if err != nil || !ok {
			return nil, fmt.Errorf("cluster %d: archive rejected (%v)", i, err)
		}
		if int(id) != len(st.Members) {
			return nil, fmt.Errorf("cluster %d: unexpected archive id %d", i, id)
		}
		c, err := crd.FromPoints(member, id, 0)
		if err != nil {
			return nil, err
		}
		r, err := rsp.FromPoints(member, id, 0, RSPBudgetBytes, nil)
		if err != nil {
			return nil, err
		}
		k, err := skps.FromCluster(member, isCore, params.ThetaR, id, 0)
		if err != nil {
			return nil, err
		}
		st.CRDs = append(st.CRDs, c)
		st.RSPs = append(st.RSPs, r)
		st.SkPSs = append(st.SkPSs, k)
		st.Members = append(st.Members, member)
		st.Shapes = append(st.Shapes, gc.Shape)
		st.FullBytes += len(member) * 8 * dim
	}
	return st, nil
}

// targetSet builds query targets: summaries of fresh clusters from the
// same distribution.
func targetSet(n int, seed int64) ([]*sgs.Summary, []*crd.Summary, []*rsp.Summary, []*skps.Summary, [][]geom.Point, error) {
	clusters := gen.Clusters(gen.ClustersConfig{Seed: seed}, n)
	var ss []*sgs.Summary
	var cs []*crd.Summary
	var rs []*rsp.Summary
	var ks []*skps.Summary
	var full [][]geom.Point
	for i, gc := range clusters {
		member, isCore, summary, err := summarizeCluster(gc.Points, MatchParams.ThetaR, MatchParams.ThetaC, int64(1_000_000+i))
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		c, err := crd.FromPoints(member, int64(i), 0)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		r, err := rsp.FromPoints(member, int64(i), 0, RSPBudgetBytes, nil)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		k, err := skps.FromCluster(member, isCore, MatchParams.ThetaR, int64(i), 0)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		ss = append(ss, summary)
		cs = append(cs, c)
		rs = append(rs, r)
		ks = append(ks, k)
		full = append(full, member)
	}
	return ss, cs, rs, ks, full, nil
}

// RunFig8 executes one archive-size column of Figure 8, returning one
// result per method.
func RunFig8(cfg Fig8Config) ([]Fig8Result, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 100
	}
	if cfg.ExpensiveQueries <= 0 {
		cfg.ExpensiveQueries = cfg.Queries
		if cfg.ExpensiveQueries > 10 {
			cfg.ExpensiveQueries = 10
		}
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.2
	}
	st, err := BuildMatchStores(cfg.ArchiveSize, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ss, cs, rs, ks, _, err := targetSet(cfg.Queries, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	var out []Fig8Result

	// SGS: the filter-and-refine pipeline.
	{
		r := Fig8Result{Method: "SGS", ArchiveSize: cfg.ArchiveSize, StoreBytes: st.Base.Bytes(),
			CompressionRate: st.CompressionRate(), AvgCells: st.AvgCellsPerCluster()}
		var cands, refined int
		start := time.Now()
		for _, target := range ss {
			ms, stats, err := match.Run(st.Base.Snapshot(), match.Query{Target: target, Threshold: cfg.Threshold})
			if err != nil {
				return nil, err
			}
			r.Matches += len(ms)
			cands += stats.IndexCandidates
			refined += stats.Refined
		}
		r.QueriesRun = len(ss)
		r.AvgQuery = time.Since(start) / time.Duration(len(ss))
		if cands > 0 {
			r.FilterFrac = float64(refined) / float64(cands)
		}
		out = append(out, r)
	}

	// CRD: three subtractions per archived cluster (linear scan — the
	// paper notes its "extremely simple matching mechanism").
	{
		r := Fig8Result{Method: "CRD", ArchiveSize: cfg.ArchiveSize}
		for _, s := range st.CRDs {
			r.StoreBytes += s.Size()
		}
		start := time.Now()
		for _, target := range cs {
			for _, s := range st.CRDs {
				if crd.Distance(target, s) <= cfg.Threshold {
					r.Matches++
				}
			}
		}
		r.QueriesRun = len(cs)
		r.AvgQuery = time.Since(start) / time.Duration(len(cs))
		out = append(out, r)
	}

	// RSP: subset matching per pair.
	{
		r := Fig8Result{Method: "RSP", ArchiveSize: cfg.ArchiveSize}
		for _, s := range st.RSPs {
			r.StoreBytes += s.Size()
		}
		q := rs[:cfg.ExpensiveQueries]
		start := time.Now()
		for _, target := range q {
			for _, s := range st.RSPs {
				if rsp.Distance(target, s) <= cfg.Threshold {
					r.Matches++
				}
			}
		}
		r.QueriesRun = len(q)
		r.AvgQuery = time.Since(start) / time.Duration(len(q))
		out = append(out, r)
	}

	// SkPS: graph edit distance per pair.
	{
		r := Fig8Result{Method: "SkPS", ArchiveSize: cfg.ArchiveSize}
		for _, s := range st.SkPSs {
			r.StoreBytes += s.Size()
		}
		q := ks[:cfg.ExpensiveQueries]
		start := time.Now()
		for _, target := range q {
			for _, s := range st.SkPSs {
				if skps.Distance(target, s) <= cfg.Threshold {
					r.Matches++
				}
			}
		}
		r.QueriesRun = len(q)
		r.AvgQuery = time.Since(start) / time.Duration(len(q))
		out = append(out, r)
	}
	return out, nil
}

// CompressionRate returns the §8.2 headline metric for a store: 1 − SGS
// bytes / full representation bytes (paper: ≈ 98%).
func (st *MatchStores) CompressionRate() float64 {
	if st.FullBytes == 0 {
		return 0
	}
	return 1 - float64(st.Base.Bytes())/float64(st.FullBytes)
}

// AvgCellsPerCluster returns the §8.2 "average 68 skeletal grid cells per
// cluster" analogue for a store.
func (st *MatchStores) AvgCellsPerCluster() float64 {
	total, n := 0, 0
	st.Base.All(func(e *archive.Entry) bool {
		total += e.Summary.NumCells()
		n++
		return true
	})
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
