// Package streamsum is a streaming density-based cluster mining library
// with cluster summarization and matching, reproducing "Summarization and
// Matching of Density-Based Clusters in Streaming Environments" (Yang,
// Rundensteiner, Ward; PVLDB 5(2), 2011).
//
// The library detects arbitrarily shaped density-based clusters over
// periodic sliding windows (CQL semantics) and returns each window's
// clusters in two complementary representations:
//
//   - the full representation — every member tuple, for online monitoring;
//   - the Skeletal Grid Summarization (SGS) — a compact multi-resolution
//     summary preserving the cluster's location, shape, connectivity and
//     density distribution, for archival and retrieval.
//
// Summaries can be archived into a pattern base (flat columnar scans in
// memory and on disk) and retrieved with cluster matching queries ("has a congestion like this
// one been seen before?") using a filter-and-refine strategy.
//
// # Parallelism
//
// One knob, Options.Parallelism, bounds every fan-out inside the engine;
// <= 0 means one goroutine per available CPU (GOMAXPROCS) and 1 runs
// everything sequentially. Results — windows, summaries, match results,
// subscription events — are byte-identical at every setting.
//
// # Ingestion: Push, PushBatch
//
// Push feeds one tuple at a time. For high-rate streams, PushBatch feeds a
// whole batch (typically one slide's worth) through a two-phase pipeline:
// the per-tuple range query search — the dominant per-insertion cost in
// the paper's analysis — runs as a read-only fan-out over the frozen
// window state, and all state updates then replay sequentially in
// arrival order. The batch path is guaranteed to emit window-for-window
// identical results to sequential Push; it only reorganizes where
// neighbors are *found*, never how state is updated. (FullOnly engines,
// which run the Extra-N baseline, ingest a batch as a Push loop.)
//
// # Output stage
//
// Whenever a window completes, the output stage extracts its clusters and
// builds their summaries. The stage mirrors ingestion's structure: a cheap
// sequential graph walk identifies the clusters, then per-cluster summary
// construction fans out over frozen state, merged in deterministic
// cluster order.
//
// # Matching
//
// The pattern base is snapshot-isolated: matching queries (Match,
// MatchQuery) execute against an immutable read-only view and never
// block archiving, so they are safe from any number of goroutines
// concurrently with ingestion. The matcher mirrors the output stage's
// structure: a parallel column-scan filter phase (one scan per tier
// shard), a parallel per-candidate refine phase, and a sequential
// order/limit phase.
//
// # Tiered history
//
// With Options.StorePath the pattern base tiers to disk: summaries
// evicted from the memory tier (bounded by Options.StoreMaxMemBytes
// and/or the archive Capacity) demote into immutable on-disk segments
// that remain fully matchable — the filter phase scans every segment's
// columns in parallel and the refine phase reads candidate cells
// lazily, so the archived history can grow far past RAM while query
// results stay byte-identical to an all-in-memory base. Call Close at
// shutdown to flush the memory tier and make the store directory a
// complete, reopenable record of the stream history.
//
// # Quick start
//
//	eng, _ := streamsum.New(streamsum.Options{
//	    Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 1000, Slide: 200,
//	    Archive: &streamsum.ArchiveOptions{},
//	})
//	for _, p := range points {
//	    results, _ := eng.Push(p, 0)
//	    for _, w := range results {
//	        for _, c := range w.Clusters {
//	            fmt.Println(len(c.Members), c.Summary)
//	        }
//	    }
//	}
//	matches, _, _ := eng.Match(streamsum.MatchOptions{
//	    Target: someCluster.Summary, Threshold: 0.2, Limit: 3,
//	})
//
// Queries can also be expressed in the paper's query language; see
// NewFromQuery and MatchQuery.
package streamsum

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"streamsum/internal/archive"
	"streamsum/internal/core"
	"streamsum/internal/dbscan"
	"streamsum/internal/extran"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/match"
	"streamsum/internal/query"
	"streamsum/internal/sgs"
	"streamsum/internal/stream"
	"streamsum/internal/sub"
	"streamsum/internal/trace"
	"streamsum/internal/track"
	"streamsum/internal/window"
)

// Re-exported core types. The internal packages remain the implementation;
// these aliases are the public vocabulary.
type (
	// Point is a position in d-dimensional space.
	Point = geom.Point
	// MBR is an axis-aligned minimum bounding rectangle.
	MBR = geom.MBR
	// Summary is the Skeletal Grid Summarization of one cluster.
	Summary = sgs.Summary
	// Cluster is one extracted cluster (full + summarized representation).
	Cluster = core.Cluster
	// WindowResult holds all clusters of one completed window.
	WindowResult = core.WindowResult
	// ArchiveOptions configures the pattern archiver (resolution and
	// selective-archiving policy). New fills in Dim, StorePath and
	// MaxMemBytes from Options.Dim, Options.StorePath and
	// Options.StoreMaxMemBytes, and rejects ArchiveOptions that set them
	// to anything else.
	ArchiveOptions = archive.Config
	// ArchiveEntry is one archived cluster.
	ArchiveEntry = archive.Entry
	// PatternBase is the archive of cluster summaries with its indices.
	PatternBase = archive.Base
	// Match is one result of a matching query.
	Match = match.Match
	// MatchStats reports filter-and-refine effectiveness.
	MatchStats = match.Stats
	// MatchTrace is a span-recording trace: MatchOptions.Trace records a
	// query's phase spans (filter/refine/order, per-shard children, disk
	// load and zone attribution as attributes) into one. Obtain one with
	// NewMatchTrace, run the query, then call Finish for the immutable
	// MatchTraceData export.
	MatchTrace = trace.Trace
	// MatchTraceData is a finished trace's immutable span tree.
	MatchTraceData = trace.TraceData
	// Weights configures the cluster distance metric.
	Weights = match.Weights
)

// EqualWeights returns the paper's default metric weights (0.25 each,
// position-insensitive).
func EqualWeights() Weights { return match.EqualWeights() }

// ErrBadQuery is matched (errors.Is) by every Match / MatchQuery error
// caused by the query itself — an empty target, a target of another
// dimensionality than the pattern base, a threshold outside [0,1], bad
// weights — as opposed to a failure of the store.
var ErrBadQuery = match.ErrBadQuery

// NewMatchTrace returns a standalone trace for one matching query:
// set it as MatchOptions.Trace, run the query, then call Finish to
// obtain the span tree. Standalone traces live outside the engine's
// flight recorder (internal/trace.Default), which sgsd manages via its
// -trace flag.
func NewMatchTrace() *MatchTrace { return trace.New(trace.Match, "match", trace.ID{}) }

// Options configures a streaming clustering engine (the DETECT query of
// the paper's Figure 2).
type Options struct {
	// Dim is the tuple dimensionality (1..8).
	Dim int
	// ThetaR is the neighbor range threshold θr.
	ThetaR float64
	// ThetaC is the neighbor count threshold θc.
	ThetaC int
	// Win and Slide define the periodic sliding window, in tuples
	// (default) or time ticks (TimeBased).
	Win, Slide int64
	// TimeBased selects time-based windows; Push's ts argument is then the
	// tuple timestamp and must be non-decreasing.
	TimeBased bool
	// FullOnly disables summarization: clusters are extracted with the
	// Extra-N algorithm in full representation only. The default (false)
	// uses C-SGS, producing both representations at almost no extra cost.
	FullOnly bool
	// Archive, when non-nil, automatically archives every emitted summary
	// into a pattern base (nil disables archiving). Requires !FullOnly.
	Archive *ArchiveOptions
	// ArchiveNovelty, when positive, enables evolution-driven selective
	// archiving (the future-work direction of §6.2): a summary is archived
	// only if its matching distance to everything already archived —
	// including the summaries its own window archived before it — exceeds
	// this threshold, so the pattern base stores each recurring pattern
	// once instead of once per window. Each summary costs one matching
	// query (Limit 1) under the default weights, counted in the match
	// metrics like any other. It must lie in [0,1]; New rejects anything
	// else, NaN included.
	ArchiveNovelty float64
	// Parallelism bounds every fan-out inside the engine: PushBatch's
	// neighbor discovery, the output stage's per-cluster summary
	// construction, the matcher's filter and refine phases, and the
	// standing-query registry's per-window evaluation. <= 0 means one
	// goroutine per available CPU (GOMAXPROCS); 1 runs everything
	// sequentially. Results are byte-identical at every setting.
	Parallelism int
	// StorePath, when non-empty, attaches a disk tier to the pattern base
	// (requires Archive): entries evicted from the memory tier demote
	// into immutable on-disk segments under this directory and remain
	// fully matchable, so the archived history can grow past RAM.
	// Reopening an engine over an existing store resumes with the
	// on-disk history visible.
	StorePath string
	// StoreMaxMemBytes bounds the pattern base's memory tier, counted in
	// encoded summary bytes; overflow demotes the oldest entries to the
	// disk tier. A GMTI summary takes about 27 bytes of heap per encoded
	// byte as the memory tier holds it (31 when decoded from disk), so the
	// tier's resident heap is roughly 30 times this bound. Requires
	// StorePath; 0 means no byte bound (demotion then happens only via
	// Archive.Capacity pressure); negative is rejected. One summary
	// larger than the bound is still admitted and stays resident, alone,
	// until the next Put demotes it (archive's TestTieredOversizedEntries).
	StoreMaxMemBytes int
	// SlowQuery, when positive, logs any standing-query window
	// evaluation whose wall time meets it, with a per-phase breakdown
	// (probe/refine/deliver). One-shot match queries are the caller's to
	// time — MatchOptions.Trace carries their phase breakdown — so this
	// threshold only governs the engine-driven per-window evaluation.
	// Zero disables slow-window logging.
	SlowQuery time.Duration
	// SummaryCacheBytes is accepted and ignored.
	//
	// Deprecated: disk-resident summaries decode on every load, and the
	// memory tier gets all of StoreMaxMemBytes. ROADMAP item 1 removes
	// the field once the benchmark harness stops setting it.
	SummaryCacheBytes int
	// Logger receives the engine's diagnostics (slow window evaluations,
	// background demotion failures), with a "component" attribute naming
	// the subsystem. Nil discards them — library embedders stay silent by
	// default; sgsd injects its daemon logger.
	Logger *slog.Logger
}

// Engine is the end-to-end system of the paper's Figure 4: pattern
// extractor + optional pattern archiver/base + pattern analyzer.
// Ingestion (Push, PushBatch, Flush) is single-caller, but the pattern
// base is snapshot-isolated: Match and MatchQuery are safe to call from
// any number of goroutines concurrently with ingestion — queries run
// against read-only snapshots and never block archiving.
type Engine struct {
	opts Options
	proc stream.Processor
	base *archive.Base
	// subs is the standing-query registry (nil without a pattern base).
	subs *sub.Registry
	// tracker feeds evolution events to Track subscriptions; created on
	// demand (nil while no subscription asks for them), so tracking
	// starts at the first Track subscription.
	tracker *track.Tracker
}

// New creates an engine.
func New(opts Options) (*Engine, error) {
	if n := opts.ArchiveNovelty; !(n >= 0 && n <= 1) {
		return nil, fmt.Errorf("streamsum: ArchiveNovelty %g out of [0,1]", n)
	}
	spec := window.Spec{Win: opts.Win, Slide: opts.Slide}
	if opts.TimeBased {
		spec.Kind = window.TimeBased
	}
	cfg := core.Config{
		Dim: opts.Dim, ThetaR: opts.ThetaR, ThetaC: opts.ThetaC, Window: spec,
		Workers: opts.Parallelism,
	}
	var (
		proc stream.Processor
		err  error
	)
	if opts.FullOnly {
		if opts.Archive != nil {
			return nil, fmt.Errorf("streamsum: archiving requires summarization (FullOnly must be false)")
		}
		proc, err = extran.New(cfg)
	} else {
		proc, err = core.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, proc: proc}
	if opts.StorePath != "" && opts.Archive == nil {
		return nil, fmt.Errorf("streamsum: StorePath requires archiving (set Options.Archive)")
	}
	if opts.StoreMaxMemBytes < 0 {
		return nil, fmt.Errorf("streamsum: negative StoreMaxMemBytes %d (set 0 for no byte bound)", opts.StoreMaxMemBytes)
	}
	if opts.StoreMaxMemBytes > 0 && opts.StorePath == "" {
		return nil, fmt.Errorf("streamsum: StoreMaxMemBytes requires StorePath")
	}
	if opts.Archive != nil {
		// Theta is passed through as configured: a Level or ByteBudget
		// that demands compression without a valid compression rate is a
		// misconfiguration archive.New reports, not one to paper over
		// (NewFromQuery, whose query language cannot express Theta,
		// defaults it explicitly instead). Dim, StorePath and MaxMemBytes
		// are New's to set; a value there would be silently overwritten.
		ac := *opts.Archive
		switch {
		case ac.Dim != 0 && ac.Dim != opts.Dim:
			return nil, fmt.Errorf("streamsum: ArchiveOptions.Dim %d differs from Options.Dim %d (set Options.Dim)", ac.Dim, opts.Dim)
		case ac.StorePath != "" && ac.StorePath != opts.StorePath:
			return nil, fmt.Errorf("streamsum: ArchiveOptions.StorePath is not read (set Options.StorePath)")
		case ac.MaxMemBytes != 0 && ac.MaxMemBytes != opts.StoreMaxMemBytes:
			return nil, fmt.Errorf("streamsum: ArchiveOptions.MaxMemBytes is not read (set Options.StoreMaxMemBytes)")
		}
		ac.Dim = opts.Dim
		ac.StorePath = opts.StorePath
		ac.MaxMemBytes = opts.StoreMaxMemBytes
		if opts.Logger != nil {
			ac.Logger = opts.Logger.With("component", "archive")
		}
		e.base, err = archive.New(ac)
		if err != nil {
			return nil, err
		}
		sc := sub.Config{
			Dim: opts.Dim, Workers: opts.Parallelism,
			SlowThreshold: opts.SlowQuery,
		}
		if opts.Logger != nil {
			sc.Logger = opts.Logger.With("component", "sub")
		}
		e.subs, err = sub.NewRegistry(sc)
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Close releases the engine. It cancels every standing subscription
// (their event channels close; events not yet consumed are dropped —
// drain with Subscription.Sync first when they matter). With a
// disk-backed pattern base (StorePath) it then demotes the memory tier
// to the store as one final segment — making the store directory alone
// a complete, reopenable record of the archived history — and stops the
// store's compactor and closes its files. Serve all in-flight matching
// queries before calling Close; snapshots must not be used afterwards.
func (e *Engine) Close() error {
	if e.subs != nil {
		e.subs.Close()
	}
	if e.base == nil {
		return nil
	}
	if e.opts.StorePath != "" {
		if err := e.base.FlushMem(); err != nil {
			_ = e.base.Close()
			return err
		}
	}
	return e.base.Close()
}

// OptionsFromQuery parses a DETECT query in the paper's query language
// (Figure 2) into engine Options. dim supplies the tuple dimensionality,
// which the query language leaves to the schema. Execution-side knobs the
// language does not cover (Parallelism, Archive, ArchiveNovelty,
// StorePath, StoreMaxMemBytes) can be set on the
// returned Options before calling New.
func OptionsFromQuery(q string, dim int) (Options, error) {
	cq, err := query.ParseCluster(q)
	if err != nil {
		return Options{}, err
	}
	return Options{
		Dim:       dim,
		ThetaR:    cq.ThetaR,
		ThetaC:    cq.ThetaC,
		Win:       cq.Win,
		Slide:     cq.Slide,
		TimeBased: cq.TimeBased,
		FullOnly:  !cq.Summarized,
	}, nil
}

// NewFromQuery creates an engine from a DETECT query in the paper's query
// language (Figure 2). dim supplies the tuple dimensionality, which the
// query language leaves to the schema. archiveOpts may be nil.
//
// The query language has no syntax for the archive's compression rate,
// so when archiveOpts requests compression (Level > 0 or ByteBudget > 0)
// without setting Theta, NewFromQuery defaults Theta to 2 (the minimum
// valid rate); the caller's struct is not modified. The programmatic
// path (New) performs no such defaulting — it surfaces archive.New's
// validation error instead.
func NewFromQuery(q string, dim int, archiveOpts *ArchiveOptions) (*Engine, error) {
	opts, err := OptionsFromQuery(q, dim)
	if err != nil {
		return nil, err
	}
	if archiveOpts != nil {
		ac := *archiveOpts
		if (ac.Level > 0 || ac.ByteBudget > 0) && ac.Theta < 2 {
			ac.Theta = 2
		}
		archiveOpts = &ac
	}
	opts.Archive = archiveOpts
	return New(opts)
}

// Push feeds one tuple; ts is ignored for count-based windows. Completed
// windows are returned; their summaries are archived automatically when
// archiving is configured.
func (e *Engine) Push(p Point, ts int64) ([]*WindowResult, error) {
	_, emitted, err := e.proc.Push(p, ts)
	if err != nil {
		return nil, err
	}
	for _, w := range emitted {
		if err := e.archiveWindow(w); err != nil {
			return emitted, err
		}
	}
	return emitted, nil
}

// PushBatch feeds a batch of tuples with semantics identical to calling
// Push for each tuple in order: completed windows are returned in order
// and archived automatically when archiving is configured. tss supplies
// per-tuple timestamps for time-based windows and may be nil for
// count-based ones. The batch's neighbor-discovery phase fans out across
// Options.Parallelism goroutines; batching one slide's worth of tuples
// per call amortizes best.
func (e *Engine) PushBatch(pts []Point, tss []int64) ([]*WindowResult, error) {
	if tss != nil && len(tss) != len(pts) {
		return nil, fmt.Errorf("streamsum: PushBatch got %d timestamps for %d points", len(tss), len(pts))
	}
	emitted, err := e.proc.PushBatch(pts, tss)
	// Windows completed before a mid-batch error are still real output and
	// get archived, exactly as a sequential Push loop would have done
	// before hitting the bad tuple. An archive failure must not mask the
	// ingest error (the caller needs to know the batch aborted), so the
	// two are joined.
	for _, w := range emitted {
		if aerr := e.archiveWindow(w); aerr != nil {
			return emitted, errors.Join(err, aerr)
		}
	}
	return emitted, err
}

// Flush force-emits the current (partial) window, archiving its summaries
// like Push does.
func (e *Engine) Flush() (*WindowResult, error) {
	w := e.proc.Flush()
	if err := e.archiveWindow(w); err != nil {
		return w, err
	}
	return w, nil
}

func (e *Engine) archiveWindow(w *WindowResult) error {
	if e.base == nil {
		return nil
	}
	var err error
	if e.opts.ArchiveNovelty > 0 {
		err = e.archiveNovelWindow(w)
	} else {
		err = e.sinkWindow(w)
	}
	if err != nil {
		return err
	}
	e.offerTrack(w)
	return nil
}

// offerTrack feeds the window through the evolution tracker and delivers
// the transitions to Track subscriptions. The tracker exists only while
// someone is listening: it starts (empty) at the first Track
// subscription, so evolution events describe transitions since then, and
// is dropped once the last Track subscription cancels.
func (e *Engine) offerTrack(w *WindowResult) {
	if e.subs == nil || !e.subs.WantsTrack() {
		e.tracker = nil
		return
	}
	if e.tracker == nil {
		e.tracker = track.New()
	}
	e.subs.OfferTrack(e.tracker.Advance(w))
}

// archiveNovelWindow is evolution-driven archiving: a summary enters the
// base only if nothing already archived matches it within the novelty
// threshold, so the base stores each recurring pattern once instead of
// once per window. Each summary is probed with one match.Run (Limit 1)
// against the base as it stands after the previous Put, so window-mates
// archived earlier in the window suppress it exactly as older history
// does. The probes are ordinary queries: they count in the match
// metrics like any other.
func (e *Engine) archiveNovelWindow(w *WindowResult) error {
	var added []*ArchiveEntry
	for _, c := range w.Clusters {
		s := c.Summary
		if s == nil {
			continue
		}
		if e.base.Len() > 0 {
			known, _, err := match.Run(e.base.Snapshot(), match.Query{
				Target:    s,
				Threshold: e.opts.ArchiveNovelty,
				Limit:     1,
				Workers:   e.opts.Parallelism,
			})
			if err != nil {
				return err
			}
			if len(known) > 0 {
				continue
			}
		}
		id, ok, err := e.base.Put(s)
		if err != nil {
			return err
		}
		if ok {
			if en := e.base.Get(id); en != nil {
				added = append(added, en)
			}
		}
	}
	// Standing queries see exactly what novelty archiving admitted — a
	// recurring pattern alerts once, not once per window. A window with
	// nothing admitted is still one evaluated window: the registry's
	// sequence counts windows (and tags this window's evolution events),
	// not archivals.
	return e.subs.Offer(added)
}

// PatternBase returns the engine's archive, or nil if archiving is
// disabled. The base is safe for concurrent use.
func (e *Engine) PatternBase() *PatternBase { return e.base }

// MatchOptions configures a cluster matching query (Figure 3).
type MatchOptions struct {
	// Target is the to-be-matched cluster's summary.
	Target *Summary
	// Threshold is the maximum distance (0..1) for a match.
	Threshold float64
	// Weights configures the metric; nil means EqualWeights.
	Weights *Weights
	// Limit, when positive, returns only the closest Limit matches.
	Limit int
	// Trace, when non-nil, records the query's span tree: per-phase wall
	// times and pruning detail (segments probed vs zone-skipped, summary
	// disk loads) as spans and attributes. The caller owns
	// the trace's lifetime (obtain one with NewMatchTrace, Finish it
	// after the query). Tracing never changes the results; it only adds
	// a few clock reads.
	Trace *MatchTrace
}

// Match runs a cluster matching query against the engine's pattern base.
// The query executes against a read-only snapshot, so Match is safe from
// any goroutine concurrently with ingestion and never blocks archiving;
// its refine phase fans out across Options.Parallelism goroutines.
func (e *Engine) Match(opts MatchOptions) ([]Match, MatchStats, error) {
	if e.base == nil {
		return nil, MatchStats{}, fmt.Errorf("streamsum: engine has no pattern base (set Options.Archive)")
	}
	return match.Run(e.base.Snapshot(), match.Query{
		Target:    opts.Target,
		Threshold: opts.Threshold,
		Weights:   opts.Weights,
		Limit:     opts.Limit,
		Workers:   e.opts.Parallelism,
		Trace:     opts.Trace,
	})
}

// MatchOptionsFromQuery parses a one-shot matching query in the paper's
// query language (Figure 3, FROM History) into MatchOptions plus the
// query's cluster reference — the GIVEN identifier (e.g. "input") or
// integer archive id, which the caller resolves to a Summary and assigns
// to the returned options' Target before calling Match. Standing queries
// (FROM Stream) are rejected: parse those with SubscribeOptionsFromQuery
// and register them with Subscribe.
func MatchOptionsFromQuery(q string) (MatchOptions, string, error) {
	mq, err := query.ParseMatch(q)
	if err != nil {
		return MatchOptions{}, "", err
	}
	if mq.Standing {
		return MatchOptions{}, "", fmt.Errorf("streamsum: standing query (FROM Stream): register it with Subscribe")
	}
	return MatchOptions{
		Threshold: mq.Threshold,
		Weights:   weightsOf(mq),
		Limit:     mq.Limit,
	}, mq.Target, nil
}

// MatchQuery runs a matching query written in the paper's query language
// (Figure 3) with the given target summary bound to the query's cluster
// reference. Like Match, it is safe to call concurrently with ingestion.
func (e *Engine) MatchQuery(q string, target *Summary) ([]Match, MatchStats, error) {
	mo, _, err := MatchOptionsFromQuery(q)
	if err != nil {
		return nil, MatchStats{}, err
	}
	mo.Target = target
	return e.Match(mo)
}

// StaticCluster is one cluster found by SummarizeStatic.
type StaticCluster struct {
	Members []int64 // indices into the input points
	Cores   []int64
	Summary *Summary
}

// SummarizeStatic clusters a static point set (Definition 3.1, the DBSCAN
// semantics) and builds the Basic SGS of each cluster. Use it to construct
// to-be-matched clusters from data outside the stream, or to summarize a
// finished window's data independently of the engine.
func SummarizeStatic(pts []Point, thetaR float64, thetaC int) ([]StaticCluster, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	geo, err := grid.NewGeometry(len(pts[0]), thetaR)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	res, err := dbscan.Run(pts, ids, dbscan.Params{ThetaR: thetaR, ThetaC: thetaC})
	if err != nil {
		return nil, err
	}
	out := make([]StaticCluster, 0, len(res.Clusters))
	for ci, cl := range res.Clusters {
		cpts := make([]Point, len(cl.Members))
		isCore := make([]bool, len(cl.Members))
		for i, id := range cl.Members {
			cpts[i] = pts[id]
			isCore[i] = res.IsCore[id]
		}
		s, err := sgs.FromCluster(geo, cpts, isCore, int64(ci), 0)
		if err != nil {
			return nil, err
		}
		out = append(out, StaticCluster{Members: cl.Members, Cores: cl.Cores, Summary: s})
	}
	return out, nil
}
