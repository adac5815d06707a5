package core

import (
	"fmt"
	"slices"
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
// Phase 0 (sequential): group the segment's tuples by cell, in first-touch
// order, look each cell up in the window state once, and index the
// segment's own cells by block (grid.Blocks).
//
// Phase 1a (parallel over cells, read-only): each cell queries the
// segment's blocks for the segment cells around it, which resolve the
// segment tuples in CanNeighbor cells. Each cell the window state does not
// hold yet also queries the window state's blocks once, which records the
// occupied cells to scan and the links the cell gets when phase 2 creates
// it.
//
// Phase 1b (parallel over tuples, read-only): per tuple, the range query
// search — the dominant CPU cost of C-SGS per the paper's cost analysis —
// runs over the frozen window state, and neighbors *within* the segment
// come from the cell's candidates. Because a new object's career depends
// only on the immutable last-windows of its neighbors (Observation 5.4),
// the phase also builds the object's complete neighbor list (one
// allocation, at its exact size) and CoreTracker and computes its final
// core career, all on private state.
//
// Phase 2 (sequential): cell creation from the links phase 1a recorded,
// ring placement, cell membership, reverse neighbor wiring, and the career
// growth of *existing* objects (their trackers are shared, so the
// θc-order-statistic updates replay in arrival order, exactly as the
// sequential path performs them).
//
// Phase 3 (sequential): one refresh per touched object — each new object
// plus each existing object whose career grew — using final careers.
//
// Why phase 1a's links are exact: Push creates a cell with one block query,
// linking the cells around it that exist at that moment, in coordinate
// order. Here those are the window state's cells plus the segment cells
// created before it, which are the fresh segment cells with a smaller
// first-touch index; no cell is created or deleted between phases 1a and
// 2, so merging the two queries by coordinate yields the same cells in the
// same order.
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
// the occupied cells to scan and the segment tuples in CanNeighbor cells —
// is computed once (in parallel across cells) and shared by every tuple of
// the cell, keeping block queries out of the per-tuple loop.
type segCell struct {
	coord grid.Coord
	// c is the materialized cell: found in phase 0, or created in phase 2
	// for a fresh cell (nil until then).
	c     *cell
	idxs  []int32 // segment tuple indices located in this cell (ascending)
	cands []int32 // segment tuple indices in CanNeighbor cells (incl. own)
	// links and segLinks are a fresh cell's neighbors at creation: the
	// window state's occupied neighbor cells, and the segment cells created
	// before it.
	links    []*cell
	segLinks []segLink
}

// segLink is a neighbor cell of a fresh segment cell that the segment
// itself creates first: segment cell j, which goes before links[at] in the
// new cell's coordinate-ordered link list.
type segLink struct {
	at, j int32
}

// discoveryRun is the number of consecutive tuples one phase-1b work item
// covers; they share one neighbor-list buffer.
const discoveryRun = 32

// PushBatch feeds a batch of tuples with semantics identical to calling
// Push for each tuple in order, returning the results of all windows the
// batch completed. tss supplies per-tuple timestamps for time-based
// windows and may be nil for count-based ones (a nil tss under time-based
// windows reads as all-zero timestamps, like Push(p, 0)).
//
// The batch is cut into emission-free segments at window boundaries (emit
// runs between segments) and each segment goes through insertSegment as
// one unit, whose neighbor-discovery phase fans out across Config.Workers
// goroutines. Errors (dimension mismatch, a point the grid cannot index,
// out-of-order position, a live id span too wide for 32-bit neighbor refs)
// abort the batch at the offending tuple, with every earlier tuple fully
// applied — again matching a sequential Push loop that stops at the first
// error.
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
		if err := e.checkPoint(p); err != nil {
			flush()
			return out, err
		}
		first := int64(-1)
		if len(seg) > 0 {
			first = seg[0].id
		}
		if err := e.checkSpan(e.nextID, first); err != nil {
			flush()
			return out, err
		}
		id := e.nextID
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
		e.nextID++
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
	// occupied cell, in first-touch order. Index lists are ascending. The
	// objects' trackers share one heap arena, θc values each.
	objs := make([]*object, n)
	nex := make([]int32, n) // existing neighbors: a prefix of each o.nbrs
	tupCell := make([]int32, n)
	thetaC := e.cfg.ThetaC
	heaps := make([]int64, n*thetaC)
	var cells []segCell
	clear(e.segCells)
	e.segBlocks.Reset()
	for k, t := range seg {
		objs[k] = &object{
			id:       t.id,
			p:        t.p,
			last:     e.cfg.Window.LastWindow(t.pos),
			coreLast: window.Never,
			tracker:  window.NewCoreTrackerIn(thetaC, heaps[k*thetaC:(k+1)*thetaC]),
		}
		coord := e.geo.CoordOf(t.p)
		ci, ok := e.segCells[coord]
		if !ok {
			ci = int32(len(cells))
			e.segCells[coord] = ci
			cells = append(cells, segCell{coord: coord, c: e.cells[coord]})
			e.segBlocks.Add(coord, ci)
		}
		cells[ci].idxs = append(cells[ci].idxs, int32(k))
		tupCell[k] = ci
	}

	// Phase 1a (parallel over runs of cells): resolve each cell's
	// intra-segment candidates, and find each fresh cell's neighbor cells
	// once. A run's cells share one buffer for their segment neighbors and
	// one scratch for their block queries.
	par.ForEach(workers, (len(cells)+discoveryRun-1)/discoveryRun, func(run int) {
		var near []int32
		var s nearScratch
		for i := run * discoveryRun; i < min(len(cells), (run+1)*discoveryRun); i++ {
			near = e.resolveSegCell(cells, i, near[:0], &s)
		}
	})

	// Phase 1b (parallel over runs of tuples): the range query searches
	// over the frozen state + private career/neighbor-list construction.
	// Each run of discoveryRun tuples collects neighbors in one reused
	// buffer, so o.nbrs is allocated once, at its exact size. The refs of
	// the existing neighbors come first in o.nbrs, and nex[k] is that
	// prefix's length: phase 2 appends only to pre-segment objects' lists,
	// and phase 3 compacts o.nbrs only after phase 2 is done.
	r2 := e.cfg.ThetaR * e.cfg.ThetaR
	par.ForEach(workers, (n+discoveryRun-1)/discoveryRun, func(run int) {
		var buf []*object
		for k := run * discoveryRun; k < min(n, (run+1)*discoveryRun); k++ {
			o := objs[k]
			p := seg[k].p
			sc := &cells[tupCell[k]]
			buf = e.discoverInto(p, sc.c, sc.links, buf[:0])
			nex[k] = int32(len(buf))
			for _, m := range sc.cands {
				if int(m) != k && geom.DistSq(p, seg[m].p) <= r2 {
					buf = append(buf, objs[m])
				}
			}
			o.nbrs = make([]uint32, len(buf))
			for i, q := range buf {
				o.nbrs[i] = uint32(q.id)
				o.tracker.Add(q.last)
			}
			o.coreLast = o.tracker.CoreLast(o.last)
		}
	})
	metricDiscoverySeconds.Observe(time.Since(discoveryStart))
	discoverySpan.SetInt("tuples", int64(n))
	discoverySpan.SetInt("cells", int64(len(cells)))
	discoverySpan.End()
	applySpan := e.tr.Start("apply")
	applyStart := time.Now()

	// Phase 2 (sequential): cell creation, ring placement, cell membership
	// and shared-state career updates, in arrival order. Each object is in
	// the ring before its ref reaches an existing neighbor's list.
	var grown []*object
	for k := range seg {
		o := objs[k]
		sc := &cells[tupCell[k]]
		if sc.c == nil {
			links := sc.links
			if len(sc.segLinks) > 0 {
				// Grow the list one append at a time, as Push's walk
				// does, so it gets the same capacity: an exact-size list
				// would double on the first reverse link a later cell
				// adds, and the list lives as long as the cell.
				links = nil
				at := int32(0)
				for _, l := range sc.segLinks {
					for ; at < l.at; at++ {
						links = append(links, sc.links[at])
					}
					links = append(links, cells[l.j].c)
				}
				for ; at < int32(len(sc.links)); at++ {
					links = append(links, sc.links[at])
				}
			}
			sc.c = e.materialize(sc.coord, links)
		}
		c := sc.c
		o.cell = c
		o.cellIdx = len(c.objs)
		c.objs = append(c.objs, o)
		e.ring.put(o)

		// Intra-segment pairs were fully handled in phase 1 (both sides'
		// trackers and neighbor lists); only pre-existing neighbors carry
		// shared trackers that must grow in arrival order.
		for _, ref := range o.nbrs[:nex[k]] {
			q := e.ring.resolve(ref) // live: the segment expires nothing
			q.nbrs = append(q.nbrs, uint32(o.id))
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

// nearScratch is one phase-1a run's scratch for its block queries, on the
// segment's blocks and on the window state's.
type nearScratch struct {
	seg grid.NearScratch[int32]
	win grid.NearScratch[*cell]
}

// resolveSegCell is phase 1a for segment cell i: it fills the cell's
// intra-segment candidates and, for a fresh cell, its links. near is
// scratch for the cell's segment neighbors; the grown buffer is returned.
func (e *Extractor) resolveSegCell(cells []segCell, i int, near []int32, s *nearScratch) []int32 {
	sc := &cells[i]
	near = e.segBlocks.Near(sc.coord, near, &s.seg)
	if sc.c == nil {
		sc.links = e.blocks.Near(sc.coord, nil, &s.win)
		// The fresh segment cells created before this one, at their
		// places among the window state's cells (both in coordinate
		// order).
		at := 0
		for _, j := range near {
			if j > int32(i) || cells[j].c != nil {
				continue
			}
			for at < len(sc.links) && grid.Compare(sc.links[at].coord, cells[j].coord) < 0 {
				at++
			}
			sc.segLinks = append(sc.segLinks, segLink{at: int32(at), j: j})
		}
	}
	near = append(near, int32(i))
	slices.Sort(near)
	size := 0
	for _, j := range near {
		size += len(cells[j].idxs)
	}
	sc.cands = make([]int32, 0, size)
	for _, j := range near {
		sc.cands = append(sc.cands, cells[j].idxs...)
	}
	return near
}
