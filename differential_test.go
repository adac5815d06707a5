package streamsum

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamsum/internal/archive"
	"streamsum/internal/core"
	"streamsum/internal/dbscan"
	"streamsum/internal/extran"
	"streamsum/internal/gen"
	"streamsum/internal/grid"
	"streamsum/internal/match"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
	"streamsum/internal/stream"
	"streamsum/internal/window"
)

// Both extractors must implement the interface the facade drives them
// through, batch ingestion included.
var (
	_ stream.Processor = (*core.Extractor)(nil)
	_ stream.Processor = (*extran.Extractor)(nil)
)

// The differential harness checks the repo's core invariant on generated
// inputs. A seed draws a case (diffCase): a stream and every setting that
// must not change a result. The reference is a C-SGS engine driven by
// Push at Parallelism 1 over a RAM base; against it the harness checks
//
//  1. windows: PushBatch at the drawn settings emits byte-identical
//     windows; the reference's clusters equal dbscan.RunCellAttached of
//     each window's tuples, and one Extra-N run's equal dbscan.Run's
//     (members and cores);
//  2. match results: identical ids, distance bits, summaries and Stats
//     (FilterShards aside, which counts the tier's segments), and equal
//     to an unpruned scan of the reference's base;
//  3. subscriptions: identical event streams and SubStats, each stream
//     equal to the unpruned selection over the entries archived after
//     the subscription;
//  4. novelty archiving: both bases hold exactly what a per-summary
//     probe loop over a plain base admits;
//  5. the store: the memory tier within its bound after DrainDemotions,
//     every entry readable back, mmap or pread as drawn.
//
// TestDifferential runs the covering seeds, then drawn seeds until its
// time box is spent; FuzzDifferential mutates the seed. A failure is
// shrunk (shorter stream prefix, lower dimension) and printed with a
// one-line reproduction.

var differentialReplay = flag.String("differential.replay", "",
	"run TestDifferential on one case only: SEED, or SEED/N/DIM as a failure prints it")

// diffBox bounds TestDifferential: the covering seeds always run, then
// drawn seeds until the box is spent.
const diffBox = 7 * time.Second

// diffCovering lists seeds whose cases together take every value of every
// axis diffAxes reports; TestDifferential checks that before running them.
// Seed 10 (STT, dim 1, θr/4 lattice) adds matches on both probe kinds'
// boundaries: a single-cell cluster, whose zero connectivity is both
// bounds of its own feature box, and an MBR that only touches the
// target's.
var diffCovering = []int64{1, 1699, 195, 1233, 1562, 83, 1073, 1877, 10}

// diffCase is one drawn configuration. N and Dim are what shrinking
// lowers; everything else stays as Seed drew it.
type diffCase struct {
	Seed        int64
	N           int // stream prefix length
	Dim         int
	Gen         string // "gmti", "stt" or "clusters"
	ThetaR      float64
	ThetaC      int
	TimeBased   bool
	Win, Slide  int64
	Offset      string // "" , "zero" (cells on both sides of 0) or "limit" (next to the edge grid.Geometry.Check accepts)
	Snap        bool   // coordinates on a θr/4 lattice, so pairs sit at exactly θr
	Sparse      bool   // every other slide is noise scattered over many cells
	Parallelism int
	Batch       int
	Store       string // "ram", or a store read through "mmap" or "pread"
	StoreBytes  int    // StoreMaxMemBytes and StoreSegmentBytes of a store
	Novelty     float64
}

func drawCase(seed int64) diffCase {
	rng := rand.New(rand.NewSource(seed))
	pick := rng.Intn
	c := diffCase{Seed: seed, N: 400 + pick(1600), Dim: 1 + pick(grid.MaxDim)}
	c.Gen = [...]string{"gmti", "stt", "clusters"}[pick(3)]
	c.ThetaR = diffScale(c.Gen) * [...]float64{0.75, 1, 1.25}[pick(3)]
	c.ThetaC = 3 + pick(4)
	c.TimeBased = pick(2) == 1
	if c.TimeBased {
		c.Slide = int64(8 + pick(25)) // ticks; about two tuples per tick
	} else {
		c.Slide = int64(30 + pick(120))
	}
	c.Win = c.Slide * int64(1+pick(3))
	if pick(2) == 0 {
		c.Win += 1 + rng.Int63n(c.Slide-1) // not a multiple of the slide
	}
	c.Offset = [...]string{"", "zero", "limit"}[pick(3)]
	c.Snap = pick(2) == 1
	c.Sparse = pick(3) == 0
	c.Parallelism = [...]int{1, 2, 8}[pick(3)]
	c.Batch = [...]int{1, 7, int(c.Slide), int(c.Slide)*3/2 + 1, c.N}[pick(5)]
	c.Store = [...]string{"ram", "mmap", "pread"}[pick(3)]
	c.StoreBytes = (2 + pick(6)) << 10
	c.Novelty = [...]float64{0, 0.2, 0.4}[pick(3)]
	return c
}

// diffAxes names the value each axis takes in c, for the covering check.
func diffAxes(c diffCase) []string {
	batch := "other"
	switch c.Batch {
	case 1:
		batch = "1"
	case int(c.Slide):
		batch = "slide"
	case c.N:
		batch = "stream"
	}
	return []string{
		fmt.Sprint("dim=", c.Dim), "gen=" + c.Gen,
		fmt.Sprint("thetaR=", c.ThetaR/diffScale(c.Gen)), fmt.Sprint("thetaC=", c.ThetaC),
		fmt.Sprint("time=", c.TimeBased), fmt.Sprint("winMultiple=", c.Win%c.Slide == 0),
		"offset=" + c.Offset, fmt.Sprint("snap=", c.Snap), fmt.Sprint("sparse=", c.Sparse),
		fmt.Sprint("parallelism=", c.Parallelism), "batch=" + batch,
		"store=" + c.Store, fmt.Sprint("novelty=", c.Novelty),
	}
}

// diffScale is a generator's θr unit: STT bursts are a few hundredths
// wide in price and volume, GMTI convoys and gen.Clusters shapes about 1.
func diffScale(g string) float64 {
	if g == "stt" {
		return 1.0 / 16
	}
	return 1
}

// diffStream generates c's stream: the drawn generator's points projected
// to c.Dim, sparse slides, offset and lattice applied, then cut to the
// first c.N tuples, with their timestamps and window positions (the
// tuple id, or the timestamp of a time window). The full drawn length is
// generated every time, so a shorter N is a prefix of the same stream.
func diffStream(c diffCase) (pts []Point, tss, pos []int64) {
	full := drawCase(c.Seed).N
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	var native []Point
	switch c.Gen {
	case "gmti":
		native = gen.GMTI(gen.GMTIConfig{Seed: c.Seed}, full).Points
	case "stt":
		native = gen.STT(gen.STTConfig{Seed: c.Seed}, full).Points
	default:
		cls := gen.Clusters(gen.ClustersConfig{Dim: min(max(c.Dim, 2), 4), MinPoints: 60, MaxPoints: 180, Region: 30, Seed: c.Seed}, full/60+1)
		for _, cl := range cls {
			native = append(native, cl.Points...)
		}
		native = native[:full]
	}
	tss, pos = make([]int64, full), make([]int64, full)
	for i, tick := 0, int64(0); i < full; i++ {
		if rng.Intn(2) == 0 {
			tick += int64(rng.Intn(3))
		}
		tss[i], pos[i] = tick, int64(i)
		if c.TimeBased {
			pos[i] = tick
		}
	}
	nd := len(native[0])
	lo, hi := slices.Clone(native[0]), slices.Clone(native[0])
	for _, p := range native {
		for d, x := range p {
			lo[d], hi[d] = min(lo[d], x), max(hi[d], x)
		}
	}
	pts = make([]Point, full)
	for i, p := range native {
		if c.Sparse && pos[i]/c.Slide%2 == 1 {
			p = make(Point, nd)
			for d := range p {
				p[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
			}
		}
		q := make(Point, c.Dim)
		for d := range q {
			if d < nd {
				q[d] = p[d]
			} else {
				q[d] = p[d%nd] / 4 // a copy shrunk 4 times keeps clusters dense
			}
		}
		pts[i] = q
	}
	if c.Offset != "" {
		geo, _ := grid.NewGeometry(c.Dim, c.ThetaR)
		edge := float64(math.MaxInt32-geo.Reach()-2) * geo.Side()
		for d := 0; d < c.Dim; d++ {
			dlo, dhi := pts[0][d], pts[0][d]
			for _, p := range pts {
				dlo, dhi = min(dlo, p[d]), max(dhi, p[d])
			}
			shift := -(dlo + dhi) / 2
			if c.Offset == "limit" {
				shift = edge - dhi
				if rng.Intn(2) == 0 {
					shift = -edge - dlo
				}
			}
			for _, p := range pts {
				p[d] += shift
			}
		}
	}
	if c.Snap {
		q := c.ThetaR / 4
		for _, p := range pts {
			for d := range p {
				p[d] = math.Round(p[d]/q) * q
			}
		}
	}
	return pts[:c.N], tss[:c.N], pos[:c.N]
}

// diffTally counts what a case exercised, so the covering run can show
// it was not vacuous.
type diffTally struct {
	clusters, matches, events, pruned, subPruned, rejected, diskEntries int

	// Matches on the boundary of their query's filter probe (onProbeEdge),
	// per probe kind: what catches a scan whose range test excludes its
	// boundary.
	locEdge, featEdge int

	segments      int  // the most segments one store had
	sparseSegment bool // a batch segment held more cells than a cell has neighbour offsets
}

func (a *diffTally) add(b diffTally) {
	a.clusters += b.clusters
	a.matches += b.matches
	a.events += b.events
	a.diskEntries += b.diskEntries
	a.pruned += b.pruned
	a.subPruned += b.subPruned
	a.rejected += b.rejected
	a.locEdge += b.locEdge
	a.featEdge += b.featEdge
	a.segments = max(a.segments, b.segments)
	a.sparseSegment = a.sparseSegment || b.sparseSegment
}

// diffHit is one match or event: id, distance bits and summary bytes.
type diffHit struct {
	id   int64
	seq  uint64
	bits uint64
	sum  string
}

// diffSub is one standing query and what it received.
type diffSub struct {
	target *Summary
	thresh float64
	w      *Weights
	at     int   // tuple index it subscribes before
	from   int64 // first archive id it can see
	s      *Subscription
	hits   []diffHit
	done   chan struct{}
}

func (s *diffSub) subscribe(t *testing.T, eng *Engine) {
	var err error
	s.from = int64(eng.PatternBase().Len())
	s.s, err = eng.Subscribe(SubscribeOptions{Target: s.target, Threshold: s.thresh, Weights: s.w})
	if err != nil {
		t.Fatal(err)
	}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		for ev := range s.s.Events() {
			s.hits = append(s.hits, diffHit{ev.EntryID, ev.Seq, math.Float64bits(ev.Distance), string(sgs.Marshal(ev.Entry.Summary))})
		}
	}()
}

func (s *diffSub) finish() {
	s.s.Sync()
	s.s.Cancel()
	<-s.done
}

// diffRun is one engine's pass over the stream.
type diffRun struct {
	eng     *Engine
	windows []*WindowResult
	subs    []*diffSub
}

// diffIngest feeds pts to a new engine, by Push when batch is 0 and by
// PushBatch otherwise; subscriptions register before their tuple.
func diffIngest(t *testing.T, opts Options, pts []Point, tss []int64, batch int, subs []diffSub) (*diffRun, error) {
	eng, err := New(opts)
	if err != nil {
		return nil, err
	}
	r := &diffRun{eng: eng}
	for i := range subs {
		r.subs = append(r.subs, &diffSub{target: subs[i].target, thresh: subs[i].thresh, w: subs[i].w, at: subs[i].at})
	}
	step := max(batch, 1)
	for lo := 0; lo < len(pts); lo += step {
		for _, s := range r.subs {
			if s.at == lo {
				s.subscribe(t, eng)
			}
		}
		var ws []*WindowResult
		if batch == 0 {
			ws, err = eng.Push(pts[lo], tss[lo])
		} else {
			hi := min(lo+batch, len(pts))
			ws, err = eng.PushBatch(pts[lo:hi], tss[lo:hi])
		}
		if err != nil {
			return r, err
		}
		r.windows = append(r.windows, ws...)
	}
	w, err := eng.Flush()
	r.windows = append(r.windows, w)
	for _, s := range r.subs {
		if s.s != nil {
			s.finish()
		}
	}
	return r, err
}

// unprunedHits is the selection no pruning stage takes part in: the MBR
// test of a position-sensitive metric, the feature gate and the exact
// grid-cell distance, in entry order.
func unprunedHits(target *Summary, w *Weights, thresh float64, entries []*ArchiveEntry) []diffHit {
	ws := EqualWeights()
	if w != nil {
		ws = *w
	}
	tf, tmbr := target.Features().Vector(), target.MBR()
	var out []diffHit
	for _, e := range entries {
		if ws.PositionSensitive && !tmbr.Intersects(e.MBR) || match.FeatureDistance(tf, e.Features.Vector(), ws) > thresh {
			continue
		}
		if d := match.RefineDistance(target, e.Summary, ws, match.DefaultAlignBudget); d <= thresh {
			out = append(out, diffHit{id: e.ID, bits: math.Float64bits(d), sum: string(sgs.Marshal(e.Summary))})
		}
	}
	return out
}

// onProbeEdge reports whether e lies on the boundary of the filter probe
// a query for target under w at thresh makes (match.FilterProbe): its MBR
// meets the target's in a face or corner only, or one of its features
// equals a bound of the feature box. A range test that excludes its
// boundary drops such an entry, which the unpruned scan keeps.
func onProbeEdge(target *Summary, w *Weights, thresh float64, e *ArchiveEntry) (location, edge bool) {
	ws := EqualWeights()
	if w != nil {
		ws = *w
	}
	p := match.FilterProbe(target.Features().Vector(), target.MBR(), ws, thresh)
	if p.Location {
		for d := range p.MBR.Min {
			if e.MBR.Max[d] == p.MBR.Min[d] || e.MBR.Min[d] == p.MBR.Max[d] {
				return true, true
			}
		}
		return true, false
	}
	v := e.Features.Vector()
	for d := range v {
		if v[d] == p.Lo[d] || v[d] == p.Hi[d] {
			return false, true
		}
	}
	return false, false
}

func matchHits(ms []Match) []diffHit {
	out := make([]diffHit, len(ms))
	for i, m := range ms {
		out[i] = diffHit{id: m.ID, bits: math.Float64bits(m.Distance), sum: string(sgs.Marshal(m.Entry.Summary))}
	}
	return out
}

// baseEntries lists a base's entries in id order with their summaries
// loaded.
func baseEntries(b *PatternBase) ([]*ArchiveEntry, error) {
	var out []*ArchiveEntry
	var err error
	b.Snapshot().All(func(e *ArchiveEntry) bool {
		var s *Summary
		if s, err = e.LoadSummary(); err != nil {
			return false
		}
		out = append(out, e.WithSummary(s))
		return true
	})
	return out, err
}

// runCase checks one case and returns the first discrepancy.
func runCase(t *testing.T, c diffCase) (diffTally, error) {
	var tally diffTally
	pts, tss, pos := diffStream(c)
	opts := Options{
		Dim: c.Dim, ThetaR: c.ThetaR, ThetaC: c.ThetaC, Win: c.Win, Slide: c.Slide,
		TimeBased: c.TimeBased, ArchiveNovelty: c.Novelty, Parallelism: 1,
		Archive: &ArchiveOptions{},
	}

	// Standing queries: clusters of the stream's first window, watched
	// from the start and from the middle batch boundary on.
	var subs []diffSub
	static, err := SummarizeStatic(pts[:min(len(pts), int(c.Slide))], c.ThetaR, c.ThetaC)
	if err != nil {
		return tally, err
	}
	ps := EqualWeights()
	ps.PositionSensitive = true
	for i, sc := range static[:min(len(static), 3)] {
		s := diffSub{target: sc.Summary, thresh: 0.3 + 0.15*float64(i)}
		if i == 1 {
			s.w = &ps
		}
		if i == 2 {
			s.at = len(pts) / 2 / max(c.Batch, 1) * max(c.Batch, 1)
		}
		subs = append(subs, s)
	}

	ref, err := diffIngest(t, opts, pts, tss, 0, subs)
	if ref != nil {
		defer ref.eng.Close()
	}
	if err != nil {
		return tally, fmt.Errorf("reference: %w", err)
	}

	topts := opts
	topts.Parallelism = c.Parallelism
	if c.Store != "ram" {
		prev := segstore.SetMmapEnabled(c.Store == "mmap")
		defer segstore.SetMmapEnabled(prev)
		topts.StorePath, topts.StoreMaxMemBytes = t.TempDir(), c.StoreBytes
		topts.Archive = &ArchiveOptions{StoreSegmentBytes: c.StoreBytes}
	}
	got, err := diffIngest(t, topts, pts, tss, c.Batch, subs)
	if got != nil {
		defer got.eng.Close()
	}
	if err != nil {
		return tally, fmt.Errorf("PushBatch: %w", err)
	}

	// 1. Windows.
	wb, _ := json.Marshal(ref.windows)
	gb, _ := json.Marshal(got.windows)
	if !bytes.Equal(wb, gb) {
		return tally, fmt.Errorf("PushBatch windows differ from Push windows")
	}
	fopts := opts
	fopts.Archive, fopts.ArchiveNovelty, fopts.FullOnly, fopts.Parallelism = nil, 0, true, c.Parallelism
	extra, err := diffIngest(t, fopts, pts, tss, c.Batch, nil)
	if err != nil {
		return tally, fmt.Errorf("Extra-N: %w", err)
	}
	if len(extra.windows) != len(ref.windows) {
		return tally, fmt.Errorf("Extra-N emitted %d windows, C-SGS %d", len(extra.windows), len(ref.windows))
	}
	spec := window.Spec{Win: c.Win, Slide: c.Slide}
	if c.TimeBased {
		spec.Kind = window.TimeBased
	}
	geo, _ := grid.NewGeometry(c.Dim, c.ThetaR)
	for i, w := range ref.windows {
		var wpts []Point
		var ids []int64
		for id, p := range pts {
			if spec.Covers(w.Window, pos[id]) {
				wpts, ids = append(wpts, p), append(ids, int64(id))
			}
		}
		prm := dbscan.Params{ThetaR: c.ThetaR, ThetaC: c.ThetaC}
		cell, err := dbscan.RunCellAttached(wpts, ids, prm, geo)
		if err != nil {
			return tally, err
		}
		def, err := dbscan.Run(wpts, ids, prm)
		if err != nil {
			return tally, err
		}
		if err := sameClusters(w, cell); err != nil {
			return tally, fmt.Errorf("C-SGS window %d against dbscan.RunCellAttached: %w", w.Window, err)
		}
		if ew := extra.windows[i]; ew.Window != w.Window {
			return tally, fmt.Errorf("Extra-N window %d where C-SGS emitted %d", ew.Window, w.Window)
		} else if err := sameClusters(ew, def); err != nil {
			return tally, fmt.Errorf("Extra-N window %d against dbscan.Run: %w", w.Window, err)
		}
		tally.clusters += len(w.Clusters)
	}
	tally.sparseSegment = sparseSegment(c, geo, pts, pos)

	// 4. Novelty: the per-summary probe loop over a plain base.
	refEntries, err := baseEntries(ref.eng.PatternBase())
	if err != nil {
		return tally, err
	}
	gotEntries, err := baseEntries(got.eng.PatternBase())
	if err != nil {
		return tally, fmt.Errorf("store read-back: %w", err)
	}
	loop, err := noveltyLoop(c.Dim, c.Novelty, ref.windows)
	if err != nil {
		return tally, err
	}
	offered := 0
	for _, w := range ref.windows {
		offered += len(w.Clusters)
	}
	tally.rejected = offered - len(loop)
	for name, es := range map[string][]*ArchiveEntry{"reference": refEntries, "PushBatch": gotEntries} {
		if len(es) != len(loop) {
			return tally, fmt.Errorf("%s base holds %d entries, the archiving loop %d", name, len(es), len(loop))
		}
		for i, e := range es {
			if !bytes.Equal(sgs.Marshal(e.Summary), loop[i]) {
				return tally, fmt.Errorf("%s base entry %d differs from the archiving loop's", name, e.ID)
			}
		}
	}

	// 5. The store.
	if c.Store != "ram" {
		if err := got.eng.PatternBase().DrainDemotions(); err != nil {
			return tally, err
		}
		ts := got.eng.PatternBase().TierStats()
		// Only the entry admitted last may stay resident past the bound.
		if ts.MemBytes > c.StoreBytes && ts.MemEntries > 1 {
			return tally, fmt.Errorf("memory tier holds %d entries in %d bytes, bound %d", ts.MemEntries, ts.MemBytes, c.StoreBytes)
		}
		if ts.MemEntries+ts.SegEntries != len(loop) {
			return tally, fmt.Errorf("tiers hold %d + %d entries, want %d", ts.MemEntries, ts.SegEntries, len(loop))
		}
		if mapped := ts.Segments; c.Store == "pread" {
			mapped = 0
		} else if ts.SegmentsMapped != mapped {
			return tally, fmt.Errorf("%d of %d segments mapped under %s", ts.SegmentsMapped, ts.Segments, c.Store)
		}
		tally.diskEntries, tally.segments = ts.SegEntries, ts.Segments
	}

	// 2. Match results.
	for qi := 0; qi < 3 && len(refEntries) > 0; qi++ {
		target := refEntries[(qi*len(refEntries))/3].Summary
		for _, w := range []*Weights{nil, &ps} {
			for _, limit := range []int{0, 3} {
				mo := MatchOptions{Target: target, Threshold: [...]float64{0.2, 0.4, 1}[qi], Weights: w, Limit: limit}
				rm, rst, err := ref.eng.Match(mo)
				if err != nil {
					return tally, err
				}
				gm, gst, err := got.eng.Match(mo)
				if err != nil {
					return tally, err
				}
				want := unprunedHits(target, w, mo.Threshold, refEntries)
				sort.SliceStable(want, func(i, j int) bool { return math.Float64frombits(want[i].bits) < math.Float64frombits(want[j].bits) })
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
				desc := fmt.Sprintf("query %d (threshold %g, weights %v, limit %d)", qi, mo.Threshold, w, limit)
				if r := matchHits(rm); !slices.Equal(r, want) {
					return tally, fmt.Errorf("%s: reference results %v, unpruned scan %v", desc, hitIDs(r), hitIDs(want))
				}
				if g := matchHits(gm); !slices.Equal(g, want) {
					return tally, fmt.Errorf("%s: PushBatch engine results %v, reference %v", desc, hitIDs(g), hitIDs(want))
				}
				rst.FilterShards, gst.FilterShards = 0, 0
				if rst != gst {
					return tally, fmt.Errorf("%s: Stats %+v, reference %+v", desc, gst, rst)
				}
				tally.matches += len(rm)
				tally.pruned += rst.Pruned
				for _, m := range rm {
					switch loc, edge := onProbeEdge(target, w, mo.Threshold, m.Entry); {
					case edge && loc:
						tally.locEdge++
					case edge:
						tally.featEdge++
					}
				}
			}
		}
	}

	// 3. Subscriptions.
	rst := ref.eng.SubscriptionStats()
	if gst := got.eng.SubscriptionStats(); !sameSubStats(rst, gst) {
		return tally, fmt.Errorf("SubStats %+v, reference %+v", gst, rst)
	}
	tally.subPruned = int(rst.Pruned)
	for i, rs := range ref.subs {
		gs := got.subs[i]
		if !slices.Equal(gs.hits, rs.hits) {
			return tally, fmt.Errorf("subscription %d: events %v, reference %v", i, hitIDs(gs.hits), hitIDs(rs.hits))
		}
		var after []*ArchiveEntry
		for _, e := range refEntries {
			if e.ID >= rs.from {
				after = append(after, e)
			}
		}
		unseq := slices.Clone(rs.hits)
		for j := range unseq {
			if j > 0 && unseq[j].seq < rs.hits[j-1].seq {
				return tally, fmt.Errorf("subscription %d: window sequence went backwards at event %d", i, j)
			}
			unseq[j].seq = 0
		}
		if want := unprunedHits(rs.target, rs.w, rs.thresh, after); !slices.Equal(unseq, want) {
			return tally, fmt.Errorf("subscription %d (from id %d): events %v, unpruned selection %v", i, rs.from, hitIDs(rs.hits), hitIDs(want))
		}
		tally.events += len(rs.hits)
	}
	return tally, nil
}

func hitIDs(hs []diffHit) []int64 {
	ids := make([]int64, len(hs))
	for i, h := range hs {
		ids[i] = h.id
	}
	return ids
}

func sameSubStats(a, b SubStats) bool {
	return a.Windows == b.Windows && a.Entries == b.Entries && a.Candidates == b.Candidates &&
		a.Refined == b.Refined && a.Pruned == b.Pruned && a.Events == b.Events
}

// sameClusters compares a window's clusters with an oracle's: members and
// cores, clusters ordered by their smallest core.
func sameClusters(w *WindowResult, want *dbscan.Result) error {
	cls := slices.Clone(w.Clusters)
	sort.Slice(cls, func(i, j int) bool { return cls[i].Cores[0] < cls[j].Cores[0] })
	if len(cls) != len(want.Clusters) {
		return fmt.Errorf("%d clusters, oracle %d", len(cls), len(want.Clusters))
	}
	for i, c := range cls {
		if !slices.Equal(c.Members, want.Clusters[i].Members) || !slices.Equal(c.Cores, want.Clusters[i].Cores) {
			return fmt.Errorf("cluster %d: members %v cores %v, oracle %v cores %v",
				i, c.Members, c.Cores, want.Clusters[i].Members, want.Clusters[i].Cores)
		}
	}
	return nil
}

// sparseSegment reports whether some batch segment (the tuples of one
// PushBatch call within one slide) occupies more cells than a cell has
// neighbour offsets, (2·reach+1)^dim.
func sparseSegment(c diffCase, geo *grid.Geometry, pts []Point, pos []int64) bool {
	offsets := math.Pow(float64(2*geo.Reach()+1), float64(c.Dim))
	cells := map[grid.Coord]bool{}
	for i, p := range pts {
		if i%max(c.Batch, 1) == 0 || pos[i]/c.Slide != pos[i-1]/c.Slide {
			clear(cells)
		}
		cells[geo.CoordOf(p)] = true
		if float64(len(cells)) > offsets {
			return true
		}
	}
	return false
}

// noveltyLoop is novelty archiving as the definition states it: each
// emitted summary, in order, is archived unless a match.Run over the
// plain base archived so far finds it within the novelty threshold, and
// that probe must agree with a scan that prunes nothing. It returns the
// archived entries' encodings.
func noveltyLoop(dim int, novelty float64, windows []*WindowResult) ([][]byte, error) {
	base, err := archive.New(archive.Config{Dim: dim})
	if err != nil {
		return nil, err
	}
	for _, w := range windows {
		for _, cl := range w.Clusters {
			s := cl.Summary
			if novelty > 0 && base.Len() > 0 {
				ms, _, err := match.Run(base.Snapshot(), match.Query{Target: s, Threshold: novelty, Limit: 1})
				if err != nil {
					return nil, err
				}
				var all []*ArchiveEntry
				base.All(func(e *ArchiveEntry) bool { all = append(all, e); return true })
				if known := len(unprunedHits(s, nil, novelty, all)) > 0; known != (len(ms) > 0) {
					return nil, fmt.Errorf("novelty probe found %d matches, an unpruned scan says known = %v", len(ms), known)
				} else if known {
					continue
				}
			}
			if _, _, err := base.Put(s); err != nil {
				return nil, err
			}
		}
	}
	var out [][]byte
	base.All(func(e *ArchiveEntry) bool { out = append(out, sgs.Marshal(e.Summary)); return true })
	return out, nil
}

// checkCase runs c and, on a discrepancy, shrinks it and fails t with the
// case and a one-line reproduction.
func checkCase(t *testing.T, c diffCase) diffTally {
	t.Helper()
	tally, err := runCase(t, c)
	if err == nil {
		return tally
	}
	small, serr := c, err
	fails := func(n, dim int) bool {
		s := small
		s.N, s.Dim = n, dim
		if _, err := runCase(t, s); err != nil {
			small, serr = s, err
			return true
		}
		return false
	}
	bisect := func() {
		lo := 0 // a prefix this long passes; small.N fails
		for small.N-lo > 1 {
			if mid := (lo + small.N) / 2; !fails(mid, small.Dim) {
				lo = mid
			}
		}
	}
	bisect()
	for small.Dim > 1 && fails(small.N, small.Dim-1) {
		// fails keeps the lower dimension in small
	}
	bisect()
	t.Fatalf("differential case failed: %v\ncase: %+v\nshrunk to n=%d dim=%d: %v\nreproduce: go test -run '^TestDifferential$' . -differential.replay=%d/%d/%d",
		err, c, small.N, small.Dim, serr, c.Seed, small.N, small.Dim)
	return tally
}

// parseReplay reads SEED or SEED/N/DIM.
func parseReplay(s string) (diffCase, error) {
	f := strings.Split(s, "/")
	var v []int64
	for _, x := range f {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return diffCase{}, fmt.Errorf("-differential.replay=%q: %v", s, err)
		}
		v = append(v, n)
	}
	c := drawCase(v[0])
	switch len(v) {
	case 1:
	case 3:
		c.N, c.Dim = int(v[1]), int(v[2])
	default:
		return c, fmt.Errorf("-differential.replay=%q: want SEED or SEED/N/DIM", s)
	}
	return c, nil
}

// TestDifferential is the harness's tier-1 run: a replayed case when
// -differential.replay is set; otherwise every covering seed, checked to
// cover every axis value and, together, to exercise matches, events,
// disk entries, pruning, novelty rejections and a sparse segment; then
// drawn seeds until diffBox is spent.
func TestDifferential(t *testing.T) {
	start := time.Now()
	if *differentialReplay != "" {
		c, err := parseReplay(*differentialReplay)
		if err != nil {
			t.Fatal(err)
		}
		checkCase(t, c)
		return
	}
	seen := map[string]bool{}
	for _, seed := range diffCovering {
		for _, a := range diffAxes(drawCase(seed)) {
			seen[a] = true
		}
	}
	for seed := int64(0); seed < 2000; seed++ {
		for _, a := range diffAxes(drawCase(seed)) {
			if !seen[a] {
				t.Fatalf("covering seeds miss axis value %s (seed %d draws it)", a, seed)
			}
		}
	}
	var total diffTally
	for _, seed := range diffCovering {
		total.add(checkCase(t, drawCase(seed)))
	}
	t.Logf("covering seeds: %+v in %v", total, time.Since(start))
	switch {
	case total.clusters == 0, total.matches == 0, total.events == 0, total.diskEntries == 0,
		total.pruned == 0, total.subPruned == 0, total.rejected == 0, total.segments < 2, !total.sparseSegment,
		total.locEdge == 0, total.featEdge == 0:
		t.Fatalf("covering seeds are vacuous somewhere: %+v", total)
	}
	seed := time.Now().UnixNano()
	n := 0
	for ; time.Since(start) < diffBox; n++ {
		checkCase(t, drawCase(seed+int64(n)))
	}
	t.Logf("drawn seeds %d..%d", seed, seed+int64(n)-1)
}

// FuzzDifferential mutates the seed. TestDifferential runs the covering
// seeds, so the corpus adds none.
func FuzzDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCase(t, drawCase(seed))
	})
}
