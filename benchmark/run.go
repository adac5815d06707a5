package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamsum"
)

// system is what a pass drives: the public facade (the untraced pass) or
// the same composition rebuilt from the layers with a span around each call
// (the layer pass). The driver below cannot tell them apart, so both passes
// do exactly the same operations on the same inputs.
type system interface {
	PushBatch(pts []streamsum.Point, tss []int64) ([]*streamsum.WindowResult, error)
	Match(streamsum.MatchOptions) ([]streamsum.Match, streamsum.MatchStats, error)
	Subscribe(streamsum.SubscribeOptions) (*streamsum.Subscription, error)
	PatternBase() *streamsum.PatternBase
	SubscriptionStats() streamsum.SubStats
	Close() error
	// startTiming is called once set-up is done, before the first phase.
	startTiming()
	// afterMatch runs after each timed query, outside its timing; it
	// reports the output checks it made, by kind, and how many failed.
	afterMatch(opts streamsum.MatchOptions, got []streamsum.Match) (kind string, checks, failed int)
}

// facade is the untraced system: the engine as a user holds it.
type facade struct{ *streamsum.Engine }

func (facade) startTiming() {}

func (facade) afterMatch(streamsum.MatchOptions, []streamsum.Match) (string, int, int) {
	return "", 0, 0
}

func newFacade(o streamsum.Options) (system, error) {
	e, err := streamsum.New(o)
	if err != nil {
		return nil, err
	}
	return facade{e}, nil
}

// runConfig is one pass over one workload.
type runConfig struct {
	w    *workload // one episode's worth: already scaled to the episode's length
	seed int64
	// episodes is how often the workload is set up and run, each time on a
	// seed of its own derived from seed (episodeSeed) and a fresh system,
	// with the samples pooled: a run then averages over several draws of
	// the stream, which is what keeps its metrics steady from seed to seed.
	episodes  int
	scratch   string // where disk workloads keep their store
	newSystem func(streamsum.Options) (system, error)
	// beforeClose and afterClose let the layer pass replay single layers
	// over the run's history while the base is open and over its store
	// directory once it is closed.
	beforeClose func(*run) error
	afterClose  func(*run) error
}

// timings are the samples of one metric family, kept apart by whether the
// workload's own phases or its probe fixture produced them: a family is
// reported from the workload's own phases when they produce it at all.
type timings struct{ primary, probe samples }

func (t *timings) add(d time.Duration) { t.primary = append(t.primary, d) }

func (t *timings) reported() samples {
	if len(t.primary) > 0 {
		return t.primary
	}
	return t.probe
}

// tally counts operations and output checks. The ingest goroutine and a
// concurrent analyst both report into it.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	checks    map[string]int // executed output checks by kind
	failures  []string       // the first few failures, for the report
}

func (t *tally) op(err error, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failLocked(fmt.Sprintf("%s: %v", what, err))
	}
}

// check records n executed checks of one kind, failed of which failed.
func (t *tally) check(kind string, n, failed int, detail string) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	t.checks[kind] += n
	for i := 0; i < failed; i++ {
		t.failLocked(fmt.Sprintf("check (%s): %s", kind, detail))
	}
}

// merge adds another pass's counts (once that pass has ended).
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, n := range o.checks {
		t.checks[k] += n
	}
	t.failures = append(t.failures, o.failures...)
}

func (t *tally) failLocked(msg string) {
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, msg)
	}
}

// passResult is everything one pass measured from outside the system, over
// all its episodes: samples are pooled, counts added up, and what is taken
// once per episode is kept per episode: set-up time, reported as the
// median, and live heap, reported as the largest (where an episode happens
// to end between two compactions decides whether the decoded-summary cache
// has just been emptied, a swing of 3.5 MB that a peak does not see).
type passResult struct {
	setupS []float64 // per episode

	window timings // per slide: issue (open loop: due) to return
	push   timings // per slide: the PushBatch call alone (throughput)
	match  timings // per query
	alert  timings // per delivered event: issue (due) of the closing slide to receipt
	tuples int     // tuples per slide

	heapLiveMB []float64 // per episode
	digest     string
	tally      tally

	subPairs   uint64    // (subscription, new entry) pairs refined in monitored phases
	subEvents  uint64    // events they delivered
	receipts   []receipt // every delivered event
	late       samples   // open loop: how late each slide was issued
	backlogMax int

	// Deltas over the phases for the layer metrics that need no spans.
	gcCycles     uint32
	gcPauseMs    float64
	mallocs      uint64
	cacheHits    uint64
	cacheMisses  uint64
	cacheEvicted uint64
	compactions  uint64
	segments     int
	tierEnd      tierTotals // summed over the episodes' final histories
}

type tierTotals struct{ entries, bytes, memBytes int }

// bytesPerCluster is what an archived cluster costs in the final histories.
func (p *passResult) bytesPerCluster() float64 {
	return ratio(float64(p.tierEnd.bytes), float64(p.tierEnd.entries))
}

// endToEndValues maps the pass's samples to the end-to-end metrics.
func (p *passResult) endToEndValues() map[string]float64 {
	window, push, match, alert := p.window.reported(), p.push.reported(), p.match.reported(), p.alert.reported()
	return map[string]float64{
		"setup_s":             median(p.setupS),
		"ingest_tuples_per_s": perSecond(len(push)*p.tuples, push.sum()),
		"window_p50_ms":       window.percentileMs(50),
		"window_p95_ms":       window.percentileMs(95),
		"match_p50_ms":        match.percentileMs(50),
		"match_p95_ms":        match.percentileMs(95),
		"match_queries_per_s": perSecond(len(match), match.sum()),
		"alert_p50_ms":        alert.percentileMs(50),
		"alert_p95_ms":        alert.percentileMs(95),
		"bytes_per_cluster":   p.bytesPerCluster(),
		"heap_live_mb":        slices.Max(p.heapLiveMB),
	}
}

// checkSamples fails one check per end-to-end timing whose sample does not
// support the p95 it is reported at.
func (p *passResult) checkSamples() {
	for kind, n := range p.sampleCounts() {
		short := 0
		if tailPercentile(n) < 95 {
			short = 1
		}
		p.tally.check("samples", 1, short, fmt.Sprintf("%s timing rests on %d samples, too few for p95", kind, n))
	}
}

// sampleCounts are the sample sizes behind the end-to-end timings.
func (p *passResult) sampleCounts() map[string]int {
	return map[string]int{
		"window": len(p.window.reported()),
		"match":  len(p.match.reported()),
		"alert":  len(p.alert.reported()),
	}
}

// A subscriber is one standing subscription with its passive receiver.
type subscriber struct {
	sub    *streamsum.Subscription
	target *streamsum.Summary
	got    []receipt // written by the receiver only; read once it has exited
}

type receipt struct {
	window  int64
	entryID int64
	dist    float64
	at      time.Time
}

// run is the state of one episode of a pass.
type run struct {
	cfg  runConfig
	seed int64 // the episode's own
	res  *passResult
	sys  system

	opts     streamsum.Options
	storeDir string
	slides   [][]streamsum.Point // the stream, one slice per slide, released as it leaves the window
	next     int                 // index of the next slide
	slide    int
	win      int
	heldOut  []*streamsum.Summary

	subs      []*subscriber
	receivers sync.WaitGroup
	subBefore streamsum.SubStats

	archived  int64               // entries archived so far = the next archive id
	windowRef map[int64]time.Time // window -> issue (due) time of the slide that closed it
	digest    hash.Hash           // the pass's, shared by its episodes

	timedWindows     int
	monitoredWindows int
	windowChecks     []windowCheck
	alertChecks      []alertCheck
}

// episodeSeed is the seed of episode e of a run. Episode 0 runs on the run's
// own seed, so the layer pass (one episode) sees the inputs of the untraced
// pass's first.
func episodeSeed(seed int64, e int) int64 { return seed + int64(e)*1_000_003 }

// runPass runs cfg.episodes episodes of the workload — set-up (timed), the
// timed phases, the output checks, tear-down — and then its probe fixture.
func runPass(cfg runConfig) (*passResult, error) {
	res := &passResult{tuples: int(cfg.w.options("").Slide)}
	res.tally.checks = make(map[string]int)
	digest := sha256.New()
	for e := 0; e < cfg.episodes; e++ {
		r := &run{cfg: cfg, seed: episodeSeed(cfg.seed, e), res: res, digest: digest}
		if err := r.episode(); err != nil {
			return nil, fmt.Errorf("episode %d: %w", e, err)
		}
	}
	res.digest = hex.EncodeToString(digest.Sum(nil))
	if fx := cfg.w.fixture; fx != nil {
		if err := res.probeWith(fx, cfg); err != nil {
			return nil, fmt.Errorf("probe fixture: %w", err)
		}
	}
	return res, nil
}

func (r *run) episode() error {
	defer r.removeStore()
	start := time.Now()
	if err := r.setUp(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.res.setupS = append(r.res.setupS, time.Since(start).Seconds())
	if err := r.phases(); err != nil {
		return err
	}
	return r.finish()
}

// probeWith runs the fixture workload and adopts its read-path samples as
// this pass's probes, with its operations, checks and outputs.
func (p *passResult) probeWith(fx *workload, cfg runConfig) error {
	res, err := runPass(runConfig{w: fx, seed: cfg.seed, episodes: cfg.episodes, scratch: cfg.scratch, newSystem: cfg.newSystem})
	if err != nil {
		return err
	}
	p.window.probe, p.push.probe = res.window.primary, res.push.primary
	p.match.probe, p.alert.probe = res.match.primary, res.alert.primary
	if p.subPairs == 0 {
		p.subPairs, p.subEvents = res.subPairs, res.subEvents
	}
	p.digest += "+" + res.digest
	p.tally.merge(&res.tally)
	return nil
}

// setUp generates the inputs, builds the system, pushes the untimed warm-up
// and prefill slides and, when the workload monitors from its first phase,
// registers the standing subscriptions.
func (r *run) setUp() error {
	w := r.cfg.w
	if w.disk {
		dir, err := os.MkdirTemp(r.cfg.scratch, "store-")
		if err != nil {
			return err
		}
		r.storeDir = dir
	}
	r.opts = w.options(r.storeDir)
	r.slide, r.win = int(r.opts.Slide), int(r.opts.Win)
	// One more window's worth follows the ingested stream: the later
	// stretch that held-out query targets come from. The stream is cut
	// into one slice per slide so that each can be released on its own.
	data := w.stream(r.seed, w.ingestSlides()*r.slide+r.win)
	r.slides = make([][]streamsum.Point, w.ingestSlides())
	for i := range r.slides {
		r.slides[i] = append([]streamsum.Point(nil), data.Points[i*r.slide:(i+1)*r.slide]...)
	}
	r.windowRef = make(map[int64]time.Time)

	sys, err := r.cfg.newSystem(r.opts)
	if err != nil {
		return err
	}
	r.sys = sys
	for i := 0; i < w.warm+w.prefill; i++ {
		ws, err := sys.PushBatch(r.nextSlide(), nil)
		if err != nil {
			return err
		}
		r.noteWindows(ws, time.Time{}, nil, false)
	}
	if w.heldOutShare > 0 {
		if err := r.summarizeHeldOut(data.Points[len(data.Points)-r.win:]); err != nil {
			return err
		}
	}
	if len(w.phases) > 0 && w.phases[0].monitored {
		return r.subscribe()
	}
	return nil
}

// maxHeldOut bounds the held-out target set.
const maxHeldOut = 128

// summarizeHeldOut clusters a stretch of the stream that is never ingested
// into targets the base has not seen.
func (r *run) summarizeHeldOut(stretch []streamsum.Point) error {
	cls, err := streamsum.SummarizeStatic(stretch, r.opts.ThetaR, r.opts.ThetaC)
	if err != nil {
		return err
	}
	for _, c := range cls {
		if len(r.heldOut) < maxHeldOut && c.Summary.TotalPopulation() >= r.opts.Archive.MinPopulation {
			// The builder's summary carries its construction slack; the
			// clone is as compact as an extracted one.
			r.heldOut = append(r.heldOut, c.Summary.Clone())
		}
	}
	return nil
}

func (r *run) removeStore() {
	if r.storeDir != "" {
		os.RemoveAll(r.storeDir)
		r.storeDir = ""
	}
}

// nextSlide returns the next slide of the stream.
func (r *run) nextSlide() []streamsum.Point {
	r.next++
	return r.slides[r.next-1]
}

// noteWindows does the bookkeeping for the windows one PushBatch emitted,
// outside its timing: the result digest, the count of archived entries,
// the reference time alerts are measured from, and which windows to check
// later. ph is nil during set-up; last marks a phase's final slide, whose
// window is always checked so that short runs still execute every check.
func (r *run) noteWindows(ws []*streamsum.WindowResult, ref time.Time, ph *phase, last bool) {
	for _, w := range ws {
		var buf [8]byte
		put := func(v int64) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			r.digest.Write(buf[:])
		}
		put(w.Window)
		put(int64(len(w.Clusters)))
		for _, c := range w.Clusters {
			put(int64(len(c.Members)))
			for _, m := range c.Members {
				put(m)
			}
		}
		// Archive ids are consecutive, so the entries this window added are
		// the ones from the last id seen up to the first that is missing.
		first, snap := r.archived, r.sys.PatternBase().Snapshot()
		var admitted []*streamsum.Summary
		for e := snap.Get(r.archived); e != nil; e = snap.Get(r.archived) {
			admitted = append(admitted, e.Summary)
			r.archived++
		}
		if ph == nil {
			continue
		}
		r.timedWindows++
		if r.timedWindows%checkWindowEvery == 0 || last {
			wc := windowCheck{result: w, first: w.Window * int64(r.slide)}
			for i := 0; i < r.win/r.slide; i++ {
				wc.tuples = append(wc.tuples, r.slides[int(w.Window)+i]...)
			}
			r.windowChecks = append(r.windowChecks, wc)
		}
		if ph.monitored {
			r.windowRef[w.Window] = ref
			r.monitoredWindows++
			if r.monitoredWindows%checkAlertEvery == 0 || last {
				r.alertChecks = append(r.alertChecks, alertCheck{window: w.Window, firstID: first, admitted: admitted})
			}
		}
	}
	// The slide that has just left every future window is released, so
	// that heap_live_mb measures the system and not the generated input.
	if old := r.next - 1 - r.win/r.slide; old >= 0 {
		r.slides[old] = nil
	}
}

// phases runs the workload's timed phases in table order and takes the
// runtime and cache deltas the layer metrics use around them.
func (r *run) phases() error {
	w := r.cfg.w
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.sys.startTiming()
	tierBefore := r.sys.PatternBase().TierStats()
	for i := range w.phases {
		ph := &w.phases[i]
		var err error
		if ph.slides > 0 {
			err = r.ingestPhase(ph)
		} else {
			err = r.analystPhase(ph)
		}
		if err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	tierAfter := r.sys.PatternBase().TierStats()
	r.res.gcCycles += after.NumGC - before.NumGC
	r.res.gcPauseMs += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	r.res.mallocs += after.Mallocs - before.Mallocs
	r.res.cacheHits += tierAfter.CacheHits - tierBefore.CacheHits
	r.res.cacheMisses += tierAfter.CacheMisses - tierBefore.CacheMisses
	r.res.cacheEvicted += tierAfter.CacheEvicted - tierBefore.CacheEvicted
	r.res.compactions += tierAfter.Compactions - tierBefore.Compactions
	r.res.segments = tierAfter.Segments
	return nil
}

// ingestPhase pushes the phase's slides, closed loop or on the open-loop
// schedule, with the subscriptions and the concurrent analyst the phase
// asks for.
func (r *run) ingestPhase(ph *phase) error {
	if ph.monitored && r.subs == nil {
		if err := r.subscribe(); err != nil {
			return err
		}
	}
	var stop atomic.Bool
	analystDone := make(chan error, 1)
	if ph.analyst {
		plan, err := newQueryPlan(r.cfg.w, r.seed, r.sys.PatternBase(), r.heldOut)
		if err != nil {
			return err
		}
		go func() {
			for !stop.Load() {
				r.oneQuery(plan.next(), nil)
			}
			analystDone <- nil
		}()
	}
	var sched *schedule
	if ph.rate > 0 {
		sched = newSchedule(wallClock{}, ph.rate)
	}
	for i := 0; i < ph.slides; i++ {
		pts := r.nextSlide()
		var ref time.Time
		if sched != nil {
			ref = sched.wait(i)
		}
		issue := time.Now()
		if sched == nil {
			ref = issue
		}
		ws, err := r.sys.PushBatch(pts, nil)
		done := time.Now()
		r.res.push.add(done.Sub(issue))
		r.res.window.add(done.Sub(ref))
		r.res.tally.op(err, "PushBatch")
		if err == nil && len(ws) != 1 {
			r.res.tally.check("windows", 1, 1, fmt.Sprintf("slide closed %d windows, want 1", len(ws)))
		}
		r.noteWindows(ws, ref, ph, i == ph.slides-1)
	}
	if sched != nil {
		r.res.late = append(r.res.late, sched.late...)
		r.res.backlogMax = max(r.res.backlogMax, sched.backlogMax)
		behind, over := sched.backlogAt(time.Now(), ph.slides), 0
		if behind > 2 {
			over = 1
		}
		r.res.tally.check("backlog", 1, over, fmt.Sprintf("open loop ended %d slides behind", behind))
	}
	if ph.analyst {
		stop.Store(true)
		<-analystDone
	}
	if ph.monitored {
		r.unsubscribe()
	}
	return nil
}

// analystPhase issues the phase's queries one after another. Their results
// are deterministic, so they enter the result digest.
func (r *run) analystPhase(ph *phase) error {
	plan, err := newQueryPlan(r.cfg.w, r.seed, r.sys.PatternBase(), r.heldOut)
	if err != nil {
		return err
	}
	for i := 0; i < ph.queries; i++ {
		r.oneQuery(plan.next(), r.digest)
	}
	return nil
}

// oneQuery times one Match call and checks its result (check b).
func (r *run) oneQuery(q query, digest hash.Hash) {
	start := time.Now()
	got, _, err := r.sys.Match(q.opts)
	d := time.Since(start)
	r.res.match.add(d)
	r.res.tally.op(err, "Match")
	if err != nil {
		return
	}
	if msg := checkMatchResult(q, got); msg != "" {
		r.res.tally.check("b", 1, 1, msg)
	} else {
		r.res.tally.check("b", 1, 0, "")
	}
	if kind, n, failed := r.sys.afterMatch(q.opts, got); n > 0 {
		r.res.tally.check(kind, n, failed, "staged replay differs from match.Run")
	}
	if digest != nil {
		var buf [8]byte
		for _, m := range got {
			binary.LittleEndian.PutUint64(buf[:], uint64(m.ID))
			digest.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Distance))
			digest.Write(buf[:])
		}
	}
}

// subscribe registers the workload's standing subscriptions over a sample
// of the summaries archived so far and starts one passive receiver each.
func (r *run) subscribe() error {
	w := r.cfg.w
	targets, err := archivedSample(r.sys.PatternBase(), rngFor(r.seed, "subscriptions"), w.subs)
	if err != nil {
		return err
	}
	r.subBefore = r.sys.SubscriptionStats()
	for i := 0; i < w.subs; i++ {
		target := targets[i%len(targets)].Summary
		s, err := r.sys.Subscribe(streamsum.SubscribeOptions{Target: target, Threshold: w.subThreshold, Weights: w.subWeights()})
		if err != nil {
			return err
		}
		sb := &subscriber{sub: s, target: target}
		r.subs = append(r.subs, sb)
		r.receivers.Add(1)
		go func() {
			defer r.receivers.Done()
			for ev := range s.Events() {
				sb.got = append(sb.got, receipt{
					window:  ev.Entry.Summary.Window,
					entryID: ev.EntryID,
					dist:    ev.Distance,
					at:      time.Now(),
				})
			}
		}()
	}
	return nil
}

// unsubscribe ends a monitored phase: it waits until every enqueued event
// has reached its receiver, cancels the subscriptions, holds the events
// received against the number the registry says it delivered, makes check
// (d), and turns the receipts into alert samples.
func (r *run) unsubscribe() {
	for _, sb := range r.subs {
		sb.sub.Sync()
		sb.sub.Cancel()
	}
	r.receivers.Wait()
	now := r.sys.SubscriptionStats()
	expected := int(now.Events - r.subBefore.Events)
	r.res.subPairs += now.Refined - r.subBefore.Refined
	r.res.subEvents += uint64(expected)
	got := 0
	for _, sb := range r.subs {
		got += len(sb.got)
		for _, rc := range sb.got {
			if ref, ok := r.windowRef[rc.window]; ok {
				r.res.alert.add(rc.at.Sub(ref))
			}
		}
		r.res.receipts = append(r.res.receipts, sb.got...)
	}
	r.res.tally.check("deliveries", expected, abs(expected-got),
		fmt.Sprintf("%d events received, registry delivered %d", got, expected))
	r.checkAlerts()
	r.subs, r.alertChecks = nil, nil
}

// finish takes the end-of-run measurements, runs the remaining output
// checks and closes the system.
func (r *run) finish() error {
	base := r.sys.PatternBase()
	if err := base.DrainDemotions(); err != nil {
		return fmt.Errorf("demotion: %w", err)
	}
	ts := base.TierStats()
	r.res.tierEnd.entries += ts.MemEntries + ts.DemotingEntries + ts.SegEntries
	r.res.tierEnd.bytes += ts.MemBytes + ts.DemotingBytes + ts.SegBytes
	r.res.tierEnd.memBytes += ts.MemBytes

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.res.heapLiveMB = append(r.res.heapLiveMB, float64(ms.HeapAlloc)/(1<<20))

	r.checkWindows()
	r.checkStaged()

	if r.cfg.beforeClose != nil {
		if err := r.cfg.beforeClose(r); err != nil {
			return err
		}
	}
	err := r.sys.Close()
	r.res.tally.op(err, "Close")
	if err == nil && r.cfg.w.disk {
		r.checkReopen()
	}
	if r.cfg.afterClose != nil {
		if err := r.cfg.afterClose(r); err != nil {
			return err
		}
	}
	return nil
}

// archivedSample draws k distinct archived entries, summaries loaded, from
// the base as it stands.
func archivedSample(base *streamsum.PatternBase, rng *rand.Rand, k int) ([]*streamsum.ArchiveEntry, error) {
	snap := base.Snapshot()
	var ids []int64
	snap.All(func(e *streamsum.ArchiveEntry) bool {
		ids = append(ids, e.ID)
		return true
	})
	if len(ids) == 0 {
		return nil, fmt.Errorf("no archived summaries to draw targets from")
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []*streamsum.ArchiveEntry
	for _, i := range rng.Perm(len(ids))[:min(k, len(ids))] {
		e := snap.Get(ids[i])
		if e == nil || e.Summary == nil {
			return nil, fmt.Errorf("archived summary %d cannot be loaded", ids[i])
		}
		out = append(out, e)
	}
	return out, nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
