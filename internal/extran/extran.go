package extran

import (
	"fmt"
	"sort"
	"time"

	"streamsum/internal/conntab"
	"streamsum/internal/core"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/window"
)

// Config is identical to the C-SGS extractor's configuration. Extra-N
// runs sequentially, so Workers has no effect here.
type Config = core.Config

// object mirrors core.object but carries per-view membership instead of
// cell references.
type object struct {
	id       int64
	p        geom.Point
	last     int64
	coreLast int64
	tracker  window.CoreTracker
	nbrs     []*object
}

// view is the predicted cluster structure of one future window: a
// union-find forest over the objects predicted to be core in it. The
// parent table is an open-addressed inline map (conntab.IDMap) — the
// per-view map traffic is Extra-N's distinguishing cost, so its layout is
// the baseline's cache-friendliness lever, mirroring what conntab.Table
// does for C-SGS's connection tables.
type view struct {
	parent conntab.IDMap
}

func newView() *view { return &view{} }

// find returns x's component root, compressing the path it walked.
func (v *view) find(x int64) int64 {
	r := x
	for {
		p, ok := v.parent.Get(r)
		if !ok || p == r {
			break
		}
		r = p
	}
	for x != r {
		p, _ := v.parent.Get(x)
		v.parent.Set(x, r)
		x = p
	}
	return r
}

func (v *view) union(a, b int64) {
	ra, rb := v.find(a), v.find(b)
	if ra != rb {
		v.parent.Set(ra, rb)
	}
}

// Extractor is the Extra-N pattern extractor. Not safe for concurrent use.
type Extractor struct {
	cfg     Config
	geo     *grid.Geometry
	ix      *grid.PointIndex
	cur     int64
	lastPos int64
	nextID  int64
	nextCID int64

	objs   map[int64]*object
	views  map[int64]*view     // window index -> predicted membership
	expiry map[int64][]*object // window n -> objects with last == n
}

// New returns an Extra-N extractor for the given query.
func New(cfg Config) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo, err := grid.NewGeometry(cfg.Dim, cfg.ThetaR)
	if err != nil {
		return nil, err
	}
	return &Extractor{
		cfg:     cfg,
		geo:     geo,
		ix:      grid.NewPointIndex(geo),
		lastPos: -1,
		objs:    make(map[int64]*object),
		views:   make(map[int64]*view),
		expiry:  make(map[int64][]*object),
	}, nil
}

// Stats reports live meta-data sizes: objects, open views, and total
// per-view membership entries (the view-dependent memory term).
func (e *Extractor) Stats() (objects, views, viewEntries int) {
	objects = len(e.objs)
	views = len(e.views)
	for _, v := range e.views {
		viewEntries += v.parent.Len()
	}
	return
}

// Push feeds one tuple; identical contract to the C-SGS extractor's Push.
func (e *Extractor) Push(p geom.Point, ts int64) (int64, []*core.WindowResult, error) {
	if len(p) != e.cfg.Dim {
		return 0, nil, errDim(len(p), e.cfg.Dim)
	}
	if err := e.geo.Check(p); err != nil {
		return 0, nil, fmt.Errorf("extran: %w", err)
	}
	id := e.nextID
	pos := id
	if e.cfg.Window.Kind == window.TimeBased {
		pos = ts
	}
	if pos < e.lastPos {
		return 0, nil, errOrder(pos, e.lastPos)
	}
	e.nextID++
	e.lastPos = pos
	core.MetricTuples.Inc()
	var out []*core.WindowResult
	for pos >= e.cfg.Window.End(e.cur) {
		out = append(out, e.emit())
	}
	if e.cfg.Window.LastWindow(pos) < e.cur {
		return id, out, nil
	}
	e.insert(id, p, pos)
	return id, out, nil
}

// PushBatch feeds a batch of tuples with semantics identical to calling
// Push for each tuple in order — it is that loop. tss supplies per-tuple
// timestamps for time-based windows and may be nil (all-zero timestamps,
// like Push(p, 0)); a non-nil tss must have one entry per tuple. An error
// aborts the batch at the offending tuple and returns the windows the
// earlier tuples completed.
func (e *Extractor) PushBatch(pts []geom.Point, tss []int64) ([]*core.WindowResult, error) {
	if tss != nil && len(tss) != len(pts) {
		return nil, errTSLen(len(tss), len(pts))
	}
	core.MetricBatches.Inc()
	var out []*core.WindowResult
	for i, p := range pts {
		var ts int64
		if tss != nil {
			ts = tss[i]
		}
		_, emitted, err := e.Push(p, ts)
		out = append(out, emitted...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Flush force-emits the current window.
func (e *Extractor) Flush() *core.WindowResult { return e.emit() }

// insert wires one tuple into the window state after its one range query
// search: object table, index, trackers and the per-view union-find
// forests.
func (e *Extractor) insert(id int64, p geom.Point, pos int64) {
	o := &object{
		id:       id,
		p:        p,
		last:     e.cfg.Window.LastWindow(pos),
		coreLast: window.Never,
		tracker:  window.NewCoreTracker(e.cfg.ThetaC),
	}
	e.objs[id] = o
	e.expiry[o.last] = append(e.expiry[o.last], o)

	type grown struct {
		q   *object
		old int64
	}
	var affected []grown
	e.ix.RangeQuery(p, func(ent grid.Entry) bool {
		q := e.objs[ent.ID]
		o.nbrs = append(o.nbrs, q)
		q.nbrs = append(q.nbrs, o)
		o.tracker.Add(q.last)
		if q.tracker.Add(o.last) {
			if nl := q.tracker.CoreLast(q.last); nl > q.coreLast {
				affected = append(affected, grown{q, q.coreLast})
				q.coreLast = nl
			}
		}
		return true
	})
	e.ix.Insert(id, p)
	o.coreLast = o.tracker.CoreLast(o.last)

	// Per-view membership maintenance: the view-count-dependent work that
	// distinguishes Extra-N. Union the new object with each core neighbor
	// in every view where both are predicted core; re-run for prolonged
	// neighbors (unions are idempotent).
	e.unionViews(o, e.cur)
	for _, g := range affected {
		from := g.old + 1
		if from < e.cur {
			from = e.cur
		}
		e.unionViews(g.q, from)
	}
}

// unionViews joins a with each of its core neighbors in all views from
// `from` through the end of their joint core careers.
func (e *Extractor) unionViews(a *object, from int64) {
	if a.coreLast < from {
		return
	}
	live := 0
	for _, b := range a.nbrs {
		if b.last < e.cur {
			continue
		}
		a.nbrs[live] = b
		live++
		hi := min64(a.coreLast, b.coreLast)
		for v := from; v <= hi; v++ {
			e.view(v).union(a.id, b.id)
		}
	}
	a.nbrs = a.nbrs[:live]
}

func (e *Extractor) view(n int64) *view {
	v := e.views[n]
	if v == nil {
		v = newView()
		e.views[n] = v
	}
	return v
}

// emit outputs the clusters of the current window in full representation.
func (e *Extractor) emit() *core.WindowResult {
	start := time.Now()
	n := e.cur
	res := &core.WindowResult{Window: n}
	v := e.view(n)

	// Group live core objects by their view-n component; collect the
	// non-core objects for edge attachment.
	groups := make(map[int64][]*object)
	var roots []int64
	var nonCore []*object
	for _, o := range e.objs {
		if o.coreLast < n {
			if len(o.nbrs) > 0 {
				nonCore = append(nonCore, o)
			}
			continue
		}
		r := v.find(o.id)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], o)
	}
	// Deterministic cluster order: by smallest core id.
	minID := make(map[int64]int64, len(groups))
	for r, g := range groups {
		m := g[0].id
		for _, o := range g {
			if o.id < m {
				m = o.id
			}
		}
		minID[r] = m
	}
	sort.Slice(roots, func(i, j int) bool { return minID[roots[i]] < minID[roots[j]] })

	// Core members, with ids in cluster order. An empty window keeps
	// res.Clusters nil, preserving the serialized shape of cluster-less
	// windows ("Clusters":null, not []).
	rootIdx := make(map[int64]int, len(roots))
	for i, r := range roots {
		rootIdx[r] = i
		g := groups[r]
		cl := &core.Cluster{ID: e.nextCID}
		e.nextCID++
		cl.Members = make([]int64, 0, len(g))
		cl.Cores = make([]int64, 0, len(g))
		for _, o := range g {
			cl.Members = append(cl.Members, o.id)
			cl.Cores = append(cl.Cores, o.id)
		}
		res.Clusters = append(res.Clusters, cl)
	}

	// Edge attachment (Definition 3.1): a non-core object joins every
	// cluster one of its live core neighbors belongs to; its neighbor list
	// is compacted on the way.
	for _, o := range nonCore {
		var cis []int
		live := 0
		for _, b := range o.nbrs {
			if b.last < e.cur {
				continue
			}
			o.nbrs[live] = b
			live++
			if b.coreLast < n {
				continue
			}
			ci := rootIdx[v.find(b.id)]
			dup := false
			for _, x := range cis {
				if x == ci {
					dup = true
					break
				}
			}
			if !dup {
				cis = append(cis, ci)
				res.Clusters[ci].Members = append(res.Clusters[ci].Members, o.id)
			}
		}
		o.nbrs = o.nbrs[:live]
	}

	// Canonical member order.
	for _, c := range res.Clusters {
		sort.Slice(c.Members, func(a, b int) bool { return c.Members[a] < c.Members[b] })
		sort.Slice(c.Cores, func(a, b int) bool { return c.Cores[a] < c.Cores[b] })
	}

	// Expiration: drop the view that just closed and the expired tuples.
	delete(e.views, n)
	for _, o := range e.expiry[n] {
		e.ix.Remove(o.id, o.p)
		delete(e.objs, o.id)
		o.nbrs = nil
	}
	delete(e.expiry, n)
	e.cur = n + 1
	core.MetricEmitSeconds.Observe(time.Since(start))
	core.MetricWindows.Inc()
	core.MetricClusters.Add(uint64(len(res.Clusters)))
	return res
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

type dimError struct{ got, want int }

func errDim(got, want int) error { return &dimError{got, want} }
func (e *dimError) Error() string {
	return fmt.Sprintf("extran: tuple dimension %d != query dimension %d", e.got, e.want)
}

type orderError struct{ pos, last int64 }

func errOrder(pos, last int64) error { return &orderError{pos, last} }
func (e *orderError) Error() string {
	return fmt.Sprintf("extran: out-of-order position %d after %d", e.pos, e.last)
}

type tsLenError struct{ got, want int }

func errTSLen(got, want int) error { return &tsLenError{got, want} }
func (e *tsLenError) Error() string {
	return fmt.Sprintf("extran: PushBatch got %d timestamps for %d tuples", e.got, e.want)
}
