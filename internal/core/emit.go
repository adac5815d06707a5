package core

import (
	"slices"
	"time"

	"streamsum/internal/conntab"
	"streamsum/internal/grid"
	"streamsum/internal/par"
	"streamsum/internal/sgs"
)

// The output stage of §5.4, restructured as a two-phase pipeline so that
// per-cluster work — the part that dominates once ingestion is batched —
// fans out across cores:
//
// Phase 1 (parallel over cells): pruneConns rebuilds each cell's live
// connection snapshot; every prune touches only its own cell, so the cells
// partition the work race-free.
//
// Phase 2 (sequential): the DFS over the core cells and their live
// core-core connections identifies the connected cell groups — one group
// per cluster — and discovers the attached edge cells. This is the cheap,
// inherently order-dependent part: group order (and therefore cluster id
// assignment) comes from the coordinate-sorted core cells.
//
// Phase 3 (parallel over edge cells): each edge cell resolves, for every
// group that reaches it through a live attachment, which of its objects
// are attached members. An edge cell can be shared between clusters but
// belongs to exactly one work item, so the single pass that also compacts
// its objects' neighbor lists is race-free.
//
// Phase 4 (parallel over clusters): full-representation assembly (member
// collection + sorting) and SGS construction run per cluster over frozen
// state, writing into pre-assigned result slots with pre-assigned cluster
// ids.
//
// Every phase reads state frozen by the previous ones and writes either
// cell-local, object-local (via the owning cell), or cluster-local data,
// so the stage is race-clean under any worker count; and because all
// user-visible orderings are canonicalized (members sorted, summaries
// normalized, groups ordered by sorted core cells), the output is
// byte-identical to the sequential stage at every Workers setting.

// emit runs the output stage for the current window, then performs the
// (trivial, thanks to lifespan analysis) expiration stage and advances the
// window.
func (e *Extractor) emit() *WindowResult {
	sp := e.tr.Start("emit")
	start := time.Now()
	n := e.cur
	res := &WindowResult{Window: n}
	workers := par.DefaultWorkers(e.cfg.Workers)

	// --- Output stage -----------------------------------------------------
	// The skeletal grid cells are the vertices of a graph, their live
	// connections the edges; a DFS over the core cells yields one connected
	// group — one cluster — at a time.

	// Phase 1: prune connection tables and snapshot live connections, in
	// parallel across cells.
	cellList := make([]*cell, 0, len(e.cells))
	for _, c := range e.cells {
		cellList = append(cellList, c)
	}
	par.For(workers, len(cellList), func(i int) {
		e.pruneConns(cellList[i], n)
	})

	// Phase 2a: deterministic DFS seed order — live core cells sorted by
	// coordinate.
	var coreCells []*cell
	for _, c := range cellList {
		if c.coreLast >= n {
			coreCells = append(coreCells, c)
		}
	}
	slices.SortFunc(coreCells, func(a, b *cell) int {
		return grid.Compare(a.coord, b.coord)
	})

	comp := make(map[*cell]int, len(coreCells))
	var groups [][]*cell
	for _, start := range coreCells {
		if _, seen := comp[start]; seen {
			continue
		}
		gi := len(groups)
		var group []*cell
		stack := []*cell{start}
		comp[start] = gi
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			group = append(group, c)
			for _, lc := range c.live {
				if !lc.coreConn {
					continue
				}
				nc, ok := e.cells[lc.coord]
				if !ok || nc.coreLast < n {
					continue
				}
				if _, seen := comp[nc]; !seen {
					comp[nc] = gi
					stack = append(stack, nc)
				}
			}
		}
		groups = append(groups, group)
	}

	// Phase 2b: discover the attached edge cells — non-core cells reachable
	// through a live attachment from a core cell of some group — and which
	// groups reach each of them. Group indices accumulate in ascending
	// order because the outer loop runs in group order.
	edgeIdx := make(map[*cell]int)
	var edgeCells []*emitEdgeCell
	for gi, group := range groups {
		for _, c := range group {
			for _, lc := range c.live {
				if !lc.attachOut {
					continue
				}
				nc, ok := e.cells[lc.coord]
				if !ok || nc.coreLast >= n {
					continue // core cells were handled by the DFS
				}
				ei, seen := edgeIdx[nc]
				if !seen {
					ei = len(edgeCells)
					edgeIdx[nc] = ei
					edgeCells = append(edgeCells, &emitEdgeCell{cell: nc})
				}
				ec := edgeCells[ei]
				if len(ec.groups) == 0 || ec.groups[len(ec.groups)-1] != gi {
					ec.groups = append(ec.groups, gi)
				}
			}
		}
	}

	// Phase 3: resolve edge attachments, in parallel across edge cells.
	par.For(workers, len(edgeCells), func(i int) {
		e.resolveEdgeCell(edgeCells[i], n, comp)
	})

	// Per-group views of the resolved edge cells, in discovery order.
	groupEdges := make([][]clusterEdge, len(groups))
	for _, ec := range edgeCells {
		for k, gi := range ec.groups {
			if len(ec.members[k]) == 0 {
				continue
			}
			groupEdges[gi] = append(groupEdges[gi], clusterEdge{cell: ec.cell, members: ec.members[k]})
		}
	}

	// Phase 4: assemble clusters in parallel, with pre-assigned ids so the
	// sequence matches the sequential stage exactly. An empty window keeps
	// res.Clusters nil, preserving the serialized shape of cluster-less
	// windows ("Clusters":null, not []).
	if len(groups) > 0 {
		res.Clusters = make([]*Cluster, len(groups))
		baseID := e.nextCID
		e.nextCID += int64(len(groups))
		par.For(workers, len(groups), func(gi int) {
			res.Clusters[gi] = e.buildCluster(n, baseID+int64(gi), groups[gi], groupEdges[gi])
		})
	}

	// --- Expiration stage ---------------------------------------------------
	// All structural impact of expiry was pre-computed at insertion; the
	// only work left is dropping the raw tuples whose lifespan ends with
	// this window (§5.4 "Handling Expirations"). Last windows grow with
	// ids, so those tuples are the oldest in the ring. Their slots empty
	// before cur advances, so a ref resolves exactly while its object is
	// in a window not yet emitted.
	for o := e.ring.front(); o != nil && o.last == n; o = e.ring.front() {
		e.ring.pop()
		e.removeObject(o)
	}
	e.cur = n + 1
	MetricEmitSeconds.Observe(time.Since(start))
	MetricWindows.Inc()
	MetricClusters.Add(uint64(len(res.Clusters)))
	sp.SetInt("window", n)
	sp.SetInt("clusters", int64(len(res.Clusters)))
	sp.End()
	return res
}

// emitEdgeCell is one attached edge cell of the window being emitted, the
// groups reaching it through a live attachment (ascending), and — after
// resolution — the member objects each of those groups claims from it.
type emitEdgeCell struct {
	cell    *cell
	groups  []int
	members [][]int64 // parallel to groups
}

// clusterEdge is one edge cell's contribution to a single cluster.
type clusterEdge struct {
	cell    *cell
	members []int64
}

// resolveEdgeCell determines, for each object of an attached edge cell,
// which of the reaching groups it is an edge member of (Definition 3.1:
// some live core object of that group is its neighbor), compacting the
// object's neighbor list in the same pass. Per-object neighbor scans here
// are cheap: a non-core object has fewer than θc live neighbors by
// definition — the boundedness argument behind the paper's non-core-career
// neighbor lists. Each edge cell is resolved exactly once even when shared
// between clusters, so the neighbor-list compaction — the only mutation —
// stays single-writer under the parallel fan-out.
func (e *Extractor) resolveEdgeCell(ec *emitEdgeCell, n int64, comp map[*cell]int) {
	ec.members = make([][]int64, len(ec.groups))
	var gset []int // groups this object's core neighbors belong to
	for _, o := range ec.cell.objs {
		gset = gset[:0]
		live := 0
		for _, ref := range o.nbrs {
			b := e.ring.resolve(ref)
			if b == nil {
				continue
			}
			o.nbrs[live] = ref
			live++
			if b.coreLast < n {
				continue
			}
			if g, ok := comp[b.cell]; ok {
				dup := false
				for _, x := range gset {
					if x == g {
						dup = true
						break
					}
				}
				if !dup {
					gset = append(gset, g)
				}
			}
		}
		o.nbrs = o.nbrs[:live]
		for k, gi := range ec.groups {
			for _, g := range gset {
				if g == gi {
					ec.members[k] = append(ec.members[k], o.id)
					break
				}
			}
		}
	}
}

// buildCluster assembles one cluster (full + SGS representation) from its
// connected group of core cells and its resolved edge-cell contributions.
// It reads only frozen state and writes only the new cluster, so any
// number of buildCluster calls may run concurrently for distinct groups.
func (e *Extractor) buildCluster(n, id int64, group []*cell, edges []clusterEdge) *Cluster {
	cl := &Cluster{ID: id}

	// Core cells: every live object is a member (Lemma 4.1).
	for _, c := range group {
		for _, o := range c.objs {
			cl.Members = append(cl.Members, o.id)
			if o.coreLast >= n {
				cl.Cores = append(cl.Cores, o.id)
			}
		}
	}
	// Attached edge members resolved in phase 3. An edge cell can be shared
	// between clusters; its per-cluster population is the number of its
	// objects attached to this cluster.
	for _, ge := range edges {
		cl.Members = append(cl.Members, ge.members...)
	}

	slices.Sort(cl.Members)
	slices.Sort(cl.Cores)

	if !e.cfg.SkipSummaries {
		cl.Summary = e.buildSummary(n, group, edges, id)
	}
	return cl
}

// buildSummary assembles the SGS directly from the extractor's cell
// structures (Definition 4.4): two passes over the group's live
// connections, no intermediate builder maps — this is the "piggybacked"
// summarization whose marginal cost the paper bounds at 6%. The first
// pass counts the connections the summary keeps, so they all share one
// exact-size arena; the second fills it, handing each core cell a
// capacity-capped sub-slice.
func (e *Extractor) buildSummary(n int64, group []*cell, edges []clusterEdge, id int64) *sgs.Summary {
	s := &sgs.Summary{ID: id, Window: n, Dim: e.cfg.Dim, Side: e.geo.Side()}
	s.Cells = make([]sgs.Cell, 0, len(group)+len(edges))
	var isEdge map[*cell]bool
	if len(edges) > 0 {
		isEdge = make(map[*cell]bool, len(edges))
		for _, ge := range edges {
			isEdge[ge.cell] = true
		}
	}
	// A connection is kept when it links two core cells (symmetric: the
	// other core cell records the mirror entry from its own live list) or
	// attaches an edge cell of this cluster.
	keep := func(lc *liveConn) bool {
		nc, ok := e.cells[lc.coord]
		return ok && (lc.coreConn && nc.coreLast >= n || lc.attachOut && isEdge[nc])
	}
	total := 0
	for _, c := range group {
		for i := range c.live {
			if keep(&c.live[i]) {
				total++
			}
		}
	}
	arena := make([]grid.Coord, 0, total)
	for _, c := range group {
		sc := sgs.Cell{Coord: c.coord, Population: uint32(len(c.objs)), Status: sgs.CoreCell}
		lo := len(arena)
		for i := range c.live {
			if keep(&c.live[i]) {
				arena = append(arena, c.live[i].coord)
			}
		}
		if hi := len(arena); hi > lo {
			sc.Conns = arena[lo:hi:hi]
		}
		s.Cells = append(s.Cells, sc)
	}
	for _, ge := range edges {
		s.Cells = append(s.Cells, sgs.Cell{
			Coord:      ge.cell.coord,
			Population: uint32(len(ge.members)),
			Status:     sgs.EdgeCell,
		})
	}
	s.Normalize()
	return s
}

// pruneConns drops connection entries whose every lifespan ended before
// window n and snapshots the surviving ones into the cell's live slice.
// (The mirrored fields on the opposite cell are pruned when that cell is
// visited.) It touches only the given cell, which is what lets the output
// stage prune all cells in parallel.
func (e *Extractor) pruneConns(c *cell, n int64) {
	c.live = c.live[:0]
	c.conns.Prune(func(ce *conntab.Entry) bool {
		coreLive, attachLive := ce.CoreLast >= n, ce.AttachOut >= n
		if !coreLive && !attachLive {
			return false
		}
		c.live = append(c.live, liveConn{coord: ce.Coord, coreConn: coreLive, attachOut: attachLive})
		return true
	})
}

// removeObject drops an expired tuple from its cell. No lifespan updates
// are needed: every effect of this expiry was accounted for at insertion.
func (e *Extractor) removeObject(o *object) {
	c := o.cell
	last := len(c.objs) - 1
	moved := c.objs[last]
	c.objs[o.cellIdx] = moved
	moved.cellIdx = o.cellIdx
	c.objs[last] = nil
	c.objs = c.objs[:last]
	if len(c.objs) == 0 {
		for _, nc := range c.nbrCells {
			for i, x := range nc.nbrCells {
				if x == c {
					nc.nbrCells[i] = nc.nbrCells[len(nc.nbrCells)-1]
					nc.nbrCells = nc.nbrCells[:len(nc.nbrCells)-1]
					break
				}
			}
		}
		c.nbrCells = nil
		delete(e.cells, c.coord)
		e.blocks.Remove(c.coord)
	}
}
