package core

import (
	"fmt"
	"time"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/par"
	"streamsum/internal/trace"
	"streamsum/internal/window"
)

// This file implements the batched ingest path: PushBatch feeds a whole
// slide's worth of tuples through a phased pipeline that fans the
// read-heavy work across cores while keeping every state mutation
// single-writer and the output window-for-window identical to Push.
//
// A batch is cut into segments at window boundaries (emit() runs
// sequentially between segments). Within one segment:
//
// Phase 1 (parallel, read-only): per tuple, the range query search — the
// dominant CPU cost of C-SGS per the paper's cost analysis — runs over
// the frozen window state; neighbors *within* the segment are found
// through a temporary per-segment cell map. Because a new object's career
// depends only on the immutable last-windows of its neighbors
// (Observation 5.4), the phase also builds the object's complete neighbor
// list and CoreTracker and computes its final core career, all on private
// state.
//
// Phase 2 (sequential): cell membership, reverse neighbor wiring, and the
// career growth of *existing* objects (their trackers are shared, so the
// θc-order-statistic updates replay in arrival order, exactly as the
// sequential path performs them).
//
// Phase 3 (sequential): one refresh per touched object — each new object
// plus each existing object whose career grew — using final careers.
//
// Why deferring refresh is exact: cell core-status and connection
// lifespans are pure max-accumulations over career values (Lemmas
// 5.1–5.2), and careers only ever grow. The sequential path's eager
// refreshes contribute a monotone sequence of values to each maximum
// whose last (largest) contribution uses exactly the final careers this
// phase sees; intermediate contributions are subsumed. No output stage
// can observe the difference because emit() only runs between segments,
// after phase 3.

// batchEntry is one admitted tuple of an emission-free segment, with its
// pre-assigned id and position.
type batchEntry struct {
	id  int64
	p   geom.Point
	pos int64
}

// segCell is one occupied cell of a segment. The per-cell work — finding
// the occupied existing cells to scan and the segment tuples in
// CanNeighbor cells — is computed once (in parallel across cells) and
// shared by every tuple of the cell, keeping coordinate-keyed map probing
// out of the per-tuple loop.
type segCell struct {
	coord grid.Coord
	idxs  []int32 // segment tuple indices located in this cell (ascending)
	scan  []*cell // occupied existing cells reachable from this cell
	cands []int32 // segment tuple indices in CanNeighbor cells (incl. own)
}

// PushBatch feeds a batch of tuples with semantics identical to calling
// Push for each tuple in order, returning the results of all windows the
// batch completed. tss supplies per-tuple timestamps for time-based
// windows and may be nil for count-based ones (a nil tss under time-based
// windows reads as all-zero timestamps, like Push(p, 0)).
//
// The batch is cut into emission-free segments at window boundaries (emit
// runs between segments) and each segment goes through insertSegment as
// one unit, whose neighbor-discovery phase fans out across Config.Workers
// goroutines. Errors (dimension mismatch, out-of-order position) abort
// the batch at the offending tuple, with every earlier tuple fully
// applied — again matching a sequential Push loop that stops at the
// first error.
func (e *Extractor) PushBatch(pts []geom.Point, tss []int64) ([]*WindowResult, error) {
	if tss != nil && len(tss) != len(pts) {
		return nil, fmt.Errorf("core: PushBatch got %d timestamps for %d tuples", len(tss), len(pts))
	}
	e.tr = trace.Default.Start(trace.Ingest, "ingest.batch")
	defer func() { e.tr = nil }()
	out, err := e.pushBatch(pts, tss)
	root := e.tr.Root()
	root.SetInt("tuples", int64(len(pts)))
	root.SetInt("windows", int64(len(out)))
	if err != nil {
		root.SetStr("error", err.Error())
	}
	e.tr.Finish()
	return out, err
}

func (e *Extractor) pushBatch(pts []geom.Point, tss []int64) ([]*WindowResult, error) {
	MetricBatches.Inc()
	MetricTuples.Add(uint64(len(pts)))
	var out []*WindowResult
	seg := make([]batchEntry, 0, len(pts))
	flush := func() {
		if len(seg) > 0 {
			e.insertSegment(seg)
			seg = seg[:0]
		}
	}
	for i, p := range pts {
		if len(p) != e.cfg.Dim {
			flush()
			return out, fmt.Errorf("core: tuple dimension %d != query dimension %d", len(p), e.cfg.Dim)
		}
		id := e.nextID
		e.nextID++
		pos := id
		if e.cfg.Window.Kind == window.TimeBased {
			pos = 0 // nil tss reads as all-zero timestamps, like Push(p, 0)
			if tss != nil {
				pos = tss[i]
			}
		}
		if pos < e.lastPos {
			flush()
			return out, fmt.Errorf("core: out-of-order position %d after %d", pos, e.lastPos)
		}
		e.lastPos = pos
		if pos >= e.cfg.Window.End(e.cur) {
			flush()
			for pos >= e.cfg.Window.End(e.cur) {
				out = append(out, e.emit())
			}
		}
		if e.cfg.Window.LastWindow(pos) < e.cur {
			// Entire lifespan lies in already-emitted windows (possible only
			// after a mid-stream Flush); dropped, same as Push.
			continue
		}
		seg = append(seg, batchEntry{id: id, p: p, pos: pos})
	}
	flush()
	return out, nil
}

// insertSegment inserts one emission-free run of tuples through the
// three-phase pipeline described in the file comment.
func (e *Extractor) insertSegment(seg []batchEntry) {
	n := len(seg)
	workers := par.DefaultWorkers(e.cfg.Workers)
	if n < 2 || workers == 1 {
		// The sequential fallback has no discovery/apply split; its whole
		// insert loop is shared-state work, recorded under apply.
		sp := e.tr.Start("apply")
		start := time.Now()
		for _, t := range seg {
			e.insert(t.id, t.p, t.pos)
		}
		metricApplySeconds.Observe(time.Since(start))
		sp.SetInt("tuples", int64(n))
		sp.End()
		return
	}
	e.segSeq++
	discoverySpan := e.tr.Start("discovery")
	discoveryStart := time.Now()

	// Phase 0: materialize the segment's objects (phase 1 reads them
	// cross-tuple for intra-segment careers) and group the segment by
	// occupied cell, in first-touch order. Index lists are ascending.
	objs := make([]*object, n)
	existing := make([][]*object, n)
	tupCell := make([]int32, n)
	var cells []segCell
	var coords []grid.Coord
	cellIdx := make(map[grid.Coord]int32, n)
	for k, t := range seg {
		objs[k] = &object{
			id:       t.id,
			p:        t.p,
			last:     e.cfg.Window.LastWindow(t.pos),
			coreLast: window.Never,
			tracker:  window.NewCoreTracker(e.cfg.ThetaC),
		}
		coord := e.geo.CoordOf(t.p)
		ci, ok := cellIdx[coord]
		if !ok {
			ci = int32(len(cells))
			cellIdx[coord] = ci
			cells = append(cells, segCell{coord: coord})
			coords = append(coords, coord)
		}
		cells[ci].idxs = append(cells[ci].idxs, int32(k))
		tupCell[k] = ci
	}

	// Phase 1a (parallel over cells): resolve each occupied segment cell's
	// existing-state scan set and intra-segment candidate set once.
	par.For(workers, len(cells), func(i int) {
		sc := &cells[i]
		e.scanCells(sc.coord, func(c *cell) {
			sc.scan = append(sc.scan, c)
		})
		for _, j := range e.geo.NeighborIndices(coords, cellIdx, i) {
			sc.cands = append(sc.cands, cells[j].idxs...)
		}
	})

	// Phase 1b (parallel over tuples): the range query searches over the
	// frozen state + private career/neighbor-list construction.
	r2 := e.cfg.ThetaR * e.cfg.ThetaR
	par.For(workers, n, func(k int) {
		o := objs[k]
		p := seg[k].p
		sc := &cells[tupCell[k]]
		var ex []*object
		for _, c := range sc.scan {
			for _, q := range c.objs {
				if geom.DistSq(p, q.p) <= r2 {
					ex = append(ex, q)
				}
			}
		}
		existing[k] = ex
		var local []int32
		for _, m := range sc.cands {
			if int(m) != k && geom.DistSq(p, seg[m].p) <= r2 {
				local = append(local, m)
			}
		}
		o.nbrs = make([]*object, 0, len(ex)+len(local))
		for _, q := range ex {
			o.nbrs = append(o.nbrs, q)
			o.tracker.Add(q.last)
		}
		for _, m := range local {
			q := objs[m]
			o.nbrs = append(o.nbrs, q)
			o.tracker.Add(q.last)
		}
		o.coreLast = o.tracker.CoreLast(o.last)
	})
	metricDiscoverySeconds.Observe(time.Since(discoveryStart))
	discoverySpan.SetInt("tuples", int64(n))
	discoverySpan.SetInt("cells", int64(len(cells)))
	discoverySpan.End()
	applySpan := e.tr.Start("apply")
	applyStart := time.Now()

	// Phase 2 (sequential): cell membership and shared-state career
	// updates, in arrival order.
	var grown []*object
	for k := range seg {
		o := objs[k]
		coord := cells[tupCell[k]].coord
		c := e.cells[coord]
		if c == nil {
			c = &cell{coord: coord, coreLast: window.Never}
			e.cells[coord] = c
			for _, off := range e.geo.NeighborOffsets() {
				if off.IsZero() {
					continue
				}
				if nc, ok := e.cells[coord.Add(off)]; ok {
					c.nbrCells = append(c.nbrCells, nc)
					nc.nbrCells = append(nc.nbrCells, c)
				}
			}
		}
		o.cell = c
		o.cellIdx = len(c.objs)
		c.objs = append(c.objs, o)
		e.objCount++
		e.expiry[o.last] = append(e.expiry[o.last], o)

		// Intra-segment pairs were fully handled in phase 1 (both sides'
		// trackers and neighbor lists); only pre-existing neighbors carry
		// shared trackers that must grow in arrival order.
		for _, q := range existing[k] {
			q.nbrs = append(q.nbrs, o)
			if q.tracker.Add(o.last) {
				if nl := q.tracker.CoreLast(q.last); nl > q.coreLast {
					q.coreLast = nl
					if q.grownSeg != e.segSeq {
						q.grownSeg = e.segSeq
						grown = append(grown, q)
					}
				}
			}
		}
	}

	// Phase 3 (sequential): propagate final careers to cell statuses and
	// connections, once per touched object.
	for _, o := range objs {
		e.refresh(o)
	}
	for _, q := range grown {
		e.refresh(q)
	}
	metricApplySeconds.Observe(time.Since(applyStart))
	applySpan.SetInt("tuples", int64(n))
	applySpan.SetInt("grown", int64(len(grown)))
	applySpan.End()
}
