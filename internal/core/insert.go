package core

import (
	"streamsum/internal/conntab"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/window"
)

// The "Handling Insertions" stage of C-SGS (§5.4) is split into two halves
// so the batched ingest path (batch.go) can fan the first across cores:
//
//   - the block query for a fresh cell (Blocks.Near) and discoverInto —
//     the range query search: a pure read of the current window state
//     that collects the new object's neighbors. Safe to run concurrently
//     with other calls over frozen state.
//   - applyInsert — lifespan analysis and the status/connection updates on
//     the skeletal grid cells. Single-writer; mutates everything.
//
// Single-tuple insert is the trivial composition of the two.

// insert performs the full insertion stage for one tuple: one range query
// search, lifespan analysis of its own career and the careers it prolongs
// or promotes, and the corresponding status/connection updates.
func (e *Extractor) insert(id int64, p geom.Point, pos int64) {
	coord := e.geo.CoordOf(p)
	c := e.cells[coord]
	var links []*cell
	if c == nil {
		links = e.blocks.Near(coord, nil, &e.near)
	}
	e.cands = e.discoverInto(p, c, links, e.cands[:0])
	e.applyInsert(id, p, pos, coord, c, links, e.cands)
	clear(e.cands) // hold no expired object past its window
}

// discoverInto appends to buf every live object within θr of p — the
// single range query search of §5.3 ("we only run one rqs for each new
// object and never re-run rqs for existing objects"). c is p's
// materialized cell, whose own links name the occupied cells to visit; for
// an unmaterialized cell c is nil and links, from the block index
// (e.blocks.Near), name them.
// It reads but never writes the extractor state, so any number of
// discoverInto calls may run concurrently as long as no mutation
// (applyInsert, emit) overlaps — the contract the parallel discovery phase
// of PushBatch is built on.
func (e *Extractor) discoverInto(p geom.Point, c *cell, links []*cell, buf []*object) []*object {
	r2 := e.cfg.ThetaR * e.cfg.ThetaR
	if c != nil {
		buf = appendWithin(buf, c.objs, p, r2)
		links = c.nbrCells
	}
	for _, nc := range links {
		buf = appendWithin(buf, nc.objs, p, r2)
	}
	return buf
}

// appendWithin appends to buf the objects of objs within squared distance
// r2 of p.
func appendWithin(buf, objs []*object, p geom.Point, r2 float64) []*object {
	for _, q := range objs {
		if geom.DistSq(p, q.p) <= r2 {
			buf = append(buf, q)
		}
	}
	return buf
}

// materialize creates the cell at coord with the given links — the
// occupied cells within its neighbor offsets, in coordinate order — links
// each of them back to it, and adds it to the block index.
func (e *Extractor) materialize(coord grid.Coord, links []*cell) *cell {
	c := &cell{coord: coord, coreLast: window.Never, nbrCells: links}
	e.cells[coord] = c
	e.blocks.Add(coord, c)
	for _, nc := range links {
		nc.nbrCells = append(nc.nbrCells, c)
	}
	return c
}

// applyInsert wires one tuple with pre-discovered neighbors cands (whose
// refs become its neighbor list) into the window state: ring placement,
// cell membership, neighbor refs on both sides, career (re)computation, and
// propagation of every career growth to cell statuses and connections. c
// is the tuple's cell, or nil if it is not materialized yet, in which case
// links are its links from the block index. It must see cands exactly as a
// fresh range query over the current state would produce them (order is
// immaterial: all downstream lifespan updates are max-accumulations).
func (e *Extractor) applyInsert(id int64, p geom.Point, pos int64, coord grid.Coord, c *cell, links []*cell, cands []*object) *object {
	o := &object{
		id:       id,
		p:        p,
		last:     e.cfg.Window.LastWindow(pos),
		coreLast: window.Never,
		tracker:  window.NewCoreTracker(e.cfg.ThetaC),
	}

	if c == nil {
		c = e.materialize(coord, links)
	}
	o.cell = c
	o.cellIdx = len(c.objs)
	c.objs = append(c.objs, o)
	e.ring.put(o)

	// Record the neighborships on both sides (Observation 5.3: their
	// lifespans are the min of the two expiries, implicit in the refs).
	o.nbrs = make([]uint32, len(cands))
	var affected []*object
	for i, q := range cands {
		o.nbrs[i] = uint32(q.id)
		q.nbrs = append(q.nbrs, uint32(o.id))
		o.tracker.Add(q.last)
		// The arrival may promote q to core or prolong q's core career
		// (the "status promotion case 2"/"status prolong case 2" of
		// Figure 6).
		if q.tracker.Add(o.last) {
			if nl := q.tracker.CoreLast(q.last); nl > q.coreLast {
				q.coreLast = nl
				affected = append(affected, q)
			}
		}
	}
	o.coreLast = o.tracker.CoreLast(o.last)

	// Propagate career changes to cell statuses and connections. The new
	// object is always affected (its pairs carry fresh attachment info even
	// when it never becomes core).
	e.refresh(o)
	for _, q := range affected {
		e.refresh(q)
	}
	return o
}

// refresh re-derives, for every neighbor pair (a, b) incident to a, the
// cell-level lifespans that depend on a's (possibly just grown) career:
//
//   - cell(a)'s core-status lifespan (Lemma 5.1),
//   - the core-core connection lifespan between cell(a) and cell(b)
//     (Lemma 5.2),
//   - the attachment lifespans in both directions (an edge cell is
//     attached to a core cell while some object of it neighbors a live
//     core of that cell, Definition 4.3).
//
// Because careers only ever grow, refreshing on every growth event keeps
// the stored maxima exact; values below the current window are dead
// information and are skipped.
func (e *Extractor) refresh(a *object) {
	ca := a.cell
	if a.coreLast > ca.coreLast {
		ca.coreLast = a.coreLast
	}
	live := 0
	// Neighbor lists are built cell by cell, so consecutive entries
	// usually share a cell; memoizing the last neighbor cell's connection
	// entries turns the dominant Coord-keyed table probes into pointer
	// compares. Entries are still created exactly when a live lifespan
	// needs one, as before. The memoized pointers stay valid because a
	// table Upsert happens at most once per (cell pair, memo lifetime):
	// conntab entry pointers are only invalidated by a *later* Upsert on
	// the same table, and the memo is re-fetched whenever the neighbor
	// cell changes.
	var memoCell *cell
	var memoEA, memoEB *conntab.Entry
	for _, ref := range a.nbrs {
		b := e.ring.resolve(ref)
		if b == nil { // expired neighbor: prune lazily
			continue
		}
		a.nbrs[live] = ref
		live++
		cb := b.cell
		if cb == ca {
			continue // intra-cell pairs need no connection meta-data
		}
		if cb != memoCell {
			memoCell, memoEA, memoEB = cb, nil, nil
		}
		// Core-core connection (symmetric).
		if v := min64(a.coreLast, b.coreLast); v >= e.cur {
			if memoEA == nil {
				memoEA = ca.conn(cb.coord)
			}
			if v > memoEA.CoreLast {
				memoEA.CoreLast = v
			}
			if memoEB == nil {
				memoEB = cb.conn(ca.coord)
			}
			if v > memoEB.CoreLast {
				memoEB.CoreLast = v
			}
		}
		// a-core side attachment: b stays attached to cell(a) while b is
		// alive and a is core.
		if v := min64(a.coreLast, b.last); v >= e.cur {
			if memoEA == nil {
				memoEA = ca.conn(cb.coord)
			}
			if v > memoEA.AttachOut {
				memoEA.AttachOut = v
			}
		}
		// b-core side attachment.
		if v := min64(b.coreLast, a.last); v >= e.cur {
			if memoEB == nil {
				memoEB = cb.conn(ca.coord)
			}
			if v > memoEB.AttachOut {
				memoEB.AttachOut = v
			}
		}
	}
	a.nbrs = a.nbrs[:live]
}
