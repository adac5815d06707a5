package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamsum"
	"streamsum/internal/archive"
	"streamsum/internal/core"
	"streamsum/internal/match"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
	"streamsum/internal/sub"
	"streamsum/internal/window"
)

// layered is the layer pass's system: the facade's composition — core
// extractor, then per emitted window PutBatch, snapshot-resolve and
// Registry.Offer; match.Run on a snapshot for queries — rebuilt from the
// layers' constructors with a span around every call into a layer. Spans
// are named layer.operation; one root per slide ("slide") or query
// ("query") carries the request number.
type layered struct {
	opts streamsum.Options
	ex   *core.Extractor
	base *archive.Base
	reg  *sub.Registry

	// The ingest goroutine owns ingest, the analyst goroutine owns query.
	ingest, query recorder
	slideNo       int64
	queryNo       int64

	// countAllocs takes the heap-allocation counter around each
	// core.PushBatch; it is process-wide, so it is off when an analyst runs
	// beside ingest.
	countAllocs bool
	coreAllocs  uint64

	windows, clusters, offered int
	offerReturn                map[int64]time.Time // window -> when Registry.Offer for it returned
	subBefore                  sub.Stats

	// Query accounting. Every stageEvery-th query is answered a second
	// time from public pieces (staged.* spans) on the snapshot match.Run
	// used.
	stageEvery        int
	lastSnap          *archive.Snapshot
	lastStats         match.Stats
	lastRun           time.Duration
	queries, hits     int
	candidates        int
	refined           int
	stagedQueries     int
	stagedRefined     int
	stagedRun, staged time.Duration
}

// newExtractor is the facade's extractor for these options.
func newExtractor(o streamsum.Options) (*core.Extractor, error) {
	return core.New(core.Config{
		Dim: o.Dim, ThetaR: o.ThetaR, ThetaC: o.ThetaC,
		Window: window.Spec{Win: o.Win, Slide: o.Slide},
	})
}

func newLayered(o streamsum.Options, countAllocs bool) (*layered, error) {
	ex, err := newExtractor(o)
	if err != nil {
		return nil, err
	}
	ac := *o.Archive
	ac.Dim = o.Dim
	ac.StorePath = o.StorePath
	ac.MaxMemBytes = o.StoreMaxMemBytes
	ac.SummaryCacheBytes = o.SummaryCacheBytes
	base, err := archive.New(ac)
	if err != nil {
		return nil, err
	}
	reg, err := sub.NewRegistry(sub.Config{Dim: o.Dim})
	if err != nil {
		return nil, err
	}
	l := &layered{opts: o, ex: ex, base: base, reg: reg, countAllocs: countAllocs, stageEvery: 4}
	l.startTiming()
	return l, nil
}

// startTiming forgets what set-up recorded, so that spans and counts cover
// the timed phases only.
func (l *layered) startTiming() {
	now := time.Now()
	l.ingest = recorder{epoch: now}
	l.query = recorder{epoch: now}
	l.slideNo, l.queryNo = 0, 0
	l.coreAllocs = 0
	l.windows, l.clusters, l.offered = 0, 0, 0
	l.offerReturn = make(map[int64]time.Time)
	l.subBefore = l.reg.Stats()
	l.queries, l.hits, l.candidates, l.refined = 0, 0, 0, 0
	l.stagedQueries, l.stagedRefined, l.stagedRun, l.staged = 0, 0, 0, 0
}

// heapAllocs is the number of heap objects allocated so far. ReadMemStats
// flushes every P's allocation cache first, so the count is exact (the
// runtime/metrics counter lags by up to a span per size class), which is
// what lets allocation counts repeat from run to run.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (l *layered) PushBatch(pts []streamsum.Point, tss []int64) ([]*streamsum.WindowResult, error) {
	rec, req := &l.ingest, l.slideNo
	l.slideNo++
	root := rec.begin("slide", -1, req)
	defer rec.end(root)

	var before uint64
	if l.countAllocs {
		before = heapAllocs()
	}
	sp := rec.begin("core.pushbatch", root, req)
	emitted, err := l.ex.PushBatch(pts, tss)
	rec.end(sp)
	if l.countAllocs {
		l.coreAllocs += heapAllocs() - before
	}
	// As the facade: windows completed before a mid-batch error are still
	// archived, and an archive failure does not mask the ingest error.
	for _, w := range emitted {
		if aerr := l.archiveWindow(root, req, w); aerr != nil {
			return emitted, errors.Join(err, aerr)
		}
	}
	return emitted, err
}

// archiveWindow is the window hand-off: one PutBatch, the new entries
// resolved off one post-batch snapshot, then offered to the registry.
func (l *layered) archiveWindow(root int, req int64, w *streamsum.WindowResult) error {
	rec := &l.ingest
	hand := rec.begin("archive.window", root, req)
	defer rec.end(hand)
	l.windows++
	l.clusters += len(w.Clusters)
	sums := make([]*sgs.Summary, 0, len(w.Clusters))
	for _, c := range w.Clusters {
		if c.Summary != nil {
			sums = append(sums, c.Summary)
		}
	}
	var entries []*archive.Entry
	if len(sums) > 0 {
		l.offered += len(sums)
		sp := rec.begin("archive.putbatch", hand, req)
		ids, archived, err := l.base.PutBatch(sums)
		rec.end(sp)
		if err != nil {
			return err
		}
		rs := rec.begin("archive.resolve", hand, req)
		ss := rec.begin("archive.snapshot", rs, req)
		snap := l.base.Snapshot()
		rec.end(ss)
		entries = make([]*archive.Entry, 0, len(ids))
		for i, id := range ids {
			if archived[i] {
				if e := snap.Get(id); e != nil {
					entries = append(entries, e)
				}
			}
		}
		rec.end(rs)
	}
	// With nothing registered the offer is a counter bump; it gets a span
	// only when there are standing queries to evaluate, so that the sub
	// layer reports no work on workloads that give it none.
	if l.reg.Len() == 0 {
		return l.reg.Offer(entries)
	}
	sp := rec.begin("sub.offer", hand, req)
	err := l.reg.Offer(entries)
	rec.end(sp)
	l.offerReturn[w.Window] = time.Now()
	return err
}

func (l *layered) Match(o streamsum.MatchOptions) ([]streamsum.Match, streamsum.MatchStats, error) {
	rec, req := &l.query, l.queryNo
	l.queryNo++
	root := rec.begin("query", -1, req)
	sp := rec.begin("match.run", root, req)
	snap := l.base.Snapshot()
	got, st, err := match.Run(snap, match.Query{Target: o.Target, Threshold: o.Threshold, Weights: o.Weights, Limit: o.Limit})
	l.lastRun = rec.end(sp)
	rec.end(root)
	l.lastSnap, l.lastStats = snap, st
	l.queries++
	l.hits += len(got)
	l.candidates += st.IndexCandidates
	l.refined += st.Refined
	return got, st, err
}

// afterMatch answers every stageEvery-th query again from public pieces on
// the snapshot match.Run used, which both times the stages (staged.* spans)
// and is output check (c).
func (l *layered) afterMatch(o streamsum.MatchOptions, want []streamsum.Match) (string, int, int) {
	if l.queries%l.stageEvery != 0 {
		return "", 0, 0
	}
	rec, req := &l.query, l.queryNo-1
	root := rec.begin("query.staged", -1, req)
	got, counts, err := stagedMatch(l.lastSnap, o, func(name string) func() {
		sp := rec.begin(name, root, req)
		return func() { rec.end(sp) }
	})
	l.staged += rec.end(root)
	l.stagedRun += l.lastRun
	l.stagedQueries++
	l.stagedRefined += counts.refined
	if err != nil || !sameMatches(got, want) ||
		counts.candidates != l.lastStats.IndexCandidates || counts.refined != l.lastStats.Refined {
		return "c", 1, 1
	}
	return "c", 1, 0
}

func (l *layered) Subscribe(o streamsum.SubscribeOptions) (*streamsum.Subscription, error) {
	return l.reg.Subscribe(sub.Options{Target: o.Target, Threshold: o.Threshold, Weights: o.Weights})
}

func (l *layered) PatternBase() *streamsum.PatternBase   { return l.base }
func (l *layered) SubscriptionStats() streamsum.SubStats { return l.reg.Stats() }

func (l *layered) Close() error {
	l.reg.Close()
	if l.opts.StorePath != "" {
		if err := l.base.FlushMem(); err != nil {
			_ = l.base.Close()
			return err
		}
	}
	return l.base.Close()
}

// replays are the single-layer measurements the layer pass makes over the
// run's history once its phases are done.
type replays struct {
	cellsLive int

	marshalNs, unmarshalNs, unmarshalAllocs float64
	cellsPerSummary, bytesPerSummary        float64

	scanNsPerRecord, loadNsPerRecord, loadAllocsPerRecord float64
	flushMsPerSegment, spaceAmp                           float64

	parallelRatio float64
}

// mallocsDuring counts heap allocations made by fn (nothing else runs).
func mallocsDuring(fn func()) uint64 {
	before := heapAllocs()
	fn()
	return heapAllocs() - before
}

// replaySGS times the codec over a sample of the archived summaries.
func (rp *replays) replaySGS(base *archive.Base, seed int64) error {
	entries, err := archivedSample(base, rngFor(seed, "sgs-replay"), 256)
	if err != nil {
		return err
	}
	n := float64(len(entries))
	blobs := make([][]byte, len(entries))
	start := time.Now()
	for i, e := range entries {
		blobs[i] = sgs.Marshal(e.Summary)
	}
	rp.marshalNs = float64(time.Since(start).Nanoseconds()) / n
	cells, bytes := 0, 0
	for i, e := range entries {
		cells += e.Summary.NumCells()
		bytes += len(blobs[i])
	}
	rp.cellsPerSummary, rp.bytesPerSummary = float64(cells)/n, float64(bytes)/n
	start = time.Now()
	allocs := mallocsDuring(func() {
		for _, b := range blobs {
			if _, uerr := sgs.Unmarshal(b); uerr != nil {
				err = uerr
			}
		}
	})
	rp.unmarshalNs = float64(time.Since(start).Nanoseconds()) / n
	rp.unmarshalAllocs = float64(allocs) / n
	return err
}

// replaySegstore opens the closed run's store directory and times a full
// gated scan of every segment, record loads over a fixed sample, and the
// flush of 64 summaries into a scratch store.
func (rp *replays) replaySegstore(dir string, dim int) error {
	st, err := segstore.Open(dir, segstore.Options{Dim: dim, NoBackgroundCompaction: true})
	if err != nil {
		return err
	}
	defer st.Close()
	segs := st.View().Segments()
	stats := st.Stats()
	if stats.LiveRecords == 0 {
		return fmt.Errorf("store at %s holds no records", dir)
	}

	// Scan: the whole feature range with a gate that rejects every record
	// reads each segment's columns once and materialises nothing.
	var lo, hi [4]float64
	for d := range hi {
		hi[d] = 1e300
	}
	reject := func([4]float64) bool { return false }
	scanned := 0
	start := time.Now()
	for _, seg := range segs {
		scanned += seg.GatedSearchFeatures(lo, hi, reject, func(segstore.Record) bool { return true })
	}
	rp.scanNsPerRecord = ratio(float64(time.Since(start).Nanoseconds()), float64(scanned))

	type located struct {
		seg *segstore.Segment
		rec segstore.Record
	}
	var sample []located
	step := max(1, stats.Records/256)
	i := 0
	for _, seg := range segs {
		for _, rec := range seg.Records() {
			if i%step == 0 {
				sample = append(sample, located{seg, rec})
			}
			i++
		}
	}
	start = time.Now()
	allocs := mallocsDuring(func() {
		for _, s := range sample {
			if _, lerr := s.seg.Load(s.rec); lerr != nil {
				err = lerr
			}
		}
	})
	if err != nil {
		return err
	}
	rp.loadNsPerRecord = float64(time.Since(start).Nanoseconds()) / float64(len(sample))
	rp.loadAllocsPerRecord = float64(allocs) / float64(len(sample))

	var batch []segstore.FlushEntry
	for _, s := range sample[:min(64, len(sample))] {
		blob, err := s.seg.LoadBlob(s.rec)
		if err != nil {
			return err
		}
		batch = append(batch, segstore.FlushEntry{
			ID: s.rec.ID, Blob: append([]byte(nil), blob...), MBR: s.rec.MBR, Feat: s.rec.Feat,
		})
	}
	var flushes []float64
	for i := 0; i < 5; i++ {
		ms, err := timeFlush(dir, dim, batch)
		if err != nil {
			return err
		}
		flushes = append(flushes, ms)
	}
	rp.flushMsPerSegment = median(flushes)

	var onDisk int64
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		if info, err := f.Info(); err == nil && !f.IsDir() {
			onDisk += info.Size()
		}
	}
	rp.spaceAmp = ratio(float64(onDisk), float64(stats.LiveBytes))
	return nil
}

// timeFlush writes one segment of the batch into a fresh scratch store
// beside dir and returns how long Store.Flush took, in milliseconds.
func timeFlush(dir string, dim int, batch []segstore.FlushEntry) (float64, error) {
	scratch, err := os.MkdirTemp(filepath.Dir(dir), "flush-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)
	st, err := segstore.Open(scratch, segstore.Options{Dim: dim, NoBackgroundCompaction: true})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = st.Flush(batch)
	d := time.Since(start)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return float64(d) / float64(time.Millisecond), err
}

// replayParallel pushes the start of the workload's stream through a fresh
// extractor twice, at GOMAXPROCS(1) and at the default, and returns
// sequential time over default time: what the extractor's fan-out buys on
// this host. No worker knob is touched; the fan-out reads GOMAXPROCS.
func (rp *replays) replayParallel(w *workload, seed int64) error {
	const slides = 40
	o := w.options("")
	slide := int(o.Slide)
	data := w.stream(seed, (w.warm+slides)*slide)
	timed := func() (time.Duration, error) {
		ex, err := newExtractor(o)
		if err != nil {
			return 0, err
		}
		var d time.Duration
		for i := 0; i < w.warm+slides; i++ {
			start := time.Now()
			if _, err := ex.PushBatch(data.Points[i*slide:(i+1)*slide], nil); err != nil {
				return 0, err
			}
			if i >= w.warm {
				d += time.Since(start)
			}
		}
		return d, nil
	}
	procs := runtime.GOMAXPROCS(1)
	seq, err := timed()
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	par, err := timed()
	if err != nil {
		return err
	}
	rp.parallelRatio = ratio(float64(seq), float64(par))
	return nil
}

// layerMetrics assembles the per-layer metrics of one workload from the
// layer pass (spans, counts, replays) and its untraced reference run over
// the same primary phases (fac), which supplies the quantities that need no
// spans and must not be disturbed by them: cache, GC and scheduler numbers.
func layerMetrics(fac, lay *passResult, l *layered, rp *replays, spans []span) map[string]float64 {
	busy := busyByLayer(spans)
	total, count := totalByName(spans)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	tuples := float64(count["core.pushbatch"] * lay.tuples)
	subNow := l.reg.Stats()
	pairs := float64(subNow.Refined - l.subBefore.Refined)
	events := float64(subNow.Events - l.subBefore.Events)
	stagedTotal := total["query.staged"]

	var lag samples
	for _, rc := range lay.receipts {
		if at, ok := l.offerReturn[rc.window]; ok {
			lag = append(lag, max(rc.at.Sub(at), 0))
		}
	}

	// The layer pass's time per operation, weighted by the reference run's
	// operation counts (a concurrent analyst fits a different number of
	// queries into each pass).
	facWall := fac.push.primary.sum() + fac.match.primary.sum()
	layWall := lay.push.primary.sum() + scaleTo(lay.match.primary, len(fac.match.primary))

	m := map[string]float64{
		"core.pushbatch_us_per_tuple": ratio(us(total["core.pushbatch"]), tuples),
		"core.busy_s":                 busy["core"].Seconds(),
		"core.allocs_per_tuple":       ratio(float64(l.coreAllocs), tuples),
		"core.windows":                float64(l.windows),
		"core.clusters_per_window":    ratio(float64(l.clusters), float64(l.windows)),
		"core.cells_live":             float64(rp.cellsLive),
		"core.parallel_ratio":         rp.parallelRatio,

		"archive.putbatch_us_per_entry": ratio(us(total["archive.putbatch"]), float64(l.offered)),
		"archive.resolve_us_per_window": ratio(us(total["archive.resolve"]), float64(count["archive.resolve"])),
		"archive.snapshot_us":           ratio(us(total["archive.snapshot"]), float64(count["archive.snapshot"])),
		"archive.busy_s":                busy["archive"].Seconds(),
		"archive.entries":               float64(lay.tierEnd.entries),
		"archive.mem_bytes":             float64(lay.tierEnd.memBytes),

		"sgs.marshal_ns_per_summary":       rp.marshalNs,
		"sgs.unmarshal_ns_per_summary":     rp.unmarshalNs,
		"sgs.unmarshal_allocs_per_summary": rp.unmarshalAllocs,
		"sgs.cells_per_summary":            rp.cellsPerSummary,
		"sgs.bytes_per_summary":            rp.bytesPerSummary,

		"match.run_us_per_query":        ratio(us(total["match.run"]), float64(count["match.run"])),
		"match.filter_us_per_query":     ratio(us(total["staged.filter"]+total["staged.gate"]), float64(l.stagedQueries)),
		"match.gate_pass_ratio":         ratio(float64(l.refined), float64(l.candidates)),
		"match.refined_pairs_per_query": ratio(float64(l.refined), float64(l.queries)),
		"match.refine_us_per_pair":      ratio(us(total["staged.refine"]), float64(l.stagedRefined)),
		"match.refine_share":            ratio(float64(total["staged.refine"]), float64(stagedTotal)),
		"match.hits_per_query":          ratio(float64(l.hits), float64(l.queries)),
		"match.staged_vs_run_ratio":     ratio(float64(l.staged), float64(l.stagedRun)),
		"match.busy_s":                  busy["match"].Seconds(),

		"sub.offer_ms_per_window": ratio(ms(total["sub.offer"]), float64(count["sub.offer"])),
		"sub.pairs_per_window":    ratio(pairs, float64(count["sub.offer"])),
		"sub.us_per_pair":         ratio(us(total["sub.offer"]), pairs),
		"sub.event_ratio":         ratio(events, pairs),
		"sub.events":              events,
		"sub.deliver_lag_p95_ms":  lag.percentileMs(95),
		"sub.busy_s":              busy["sub"].Seconds(),

		"segstore.scan_ns_per_record":     rp.scanNsPerRecord,
		"segstore.load_ns_per_record":     rp.loadNsPerRecord,
		"segstore.load_allocs_per_record": rp.loadAllocsPerRecord,
		"segstore.flush_ms_per_segment":   rp.flushMsPerSegment,
		"segstore.segments":               float64(fac.segments),
		"segstore.compactions":            float64(fac.compactions),
		"segstore.space_amp":              rp.spaceAmp,

		"sumcache.hit_ratio": ratio(float64(fac.cacheHits), float64(fac.cacheHits+fac.cacheMisses)),
		"sumcache.hits":      float64(fac.cacheHits),
		"sumcache.misses":    float64(fac.cacheMisses),
		"sumcache.evictions": float64(fac.cacheEvicted),

		// Both passes push the same slides, so the totals compare directly.
		"facade.overhead_ratio": ratio(float64(fac.push.primary.sum()), float64(total["core.pushbatch"]+total["archive.window"])),

		"gen.late_p95_ms":        fac.late.percentileMs(95),
		"gen.backlog_max_slides": float64(fac.backlogMax),

		"runtime.gc_cycles":         float64(fac.gcCycles),
		"runtime.gc_pause_total_ms": fac.gcPauseMs,
		"runtime.allocs_per_op":     ratio(float64(fac.mallocs), float64(len(fac.push.primary)+len(fac.match.primary))),

		"trace.overhead_ratio": ratio(float64(layWall), float64(facWall)),
	}
	return m
}

// scaleTo is the total time n operations would take at the sample's mean.
func scaleTo(s samples, n int) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return time.Duration(float64(s.sum()) / float64(len(s)) * float64(n))
}
