package grid

import (
	"streamsum/internal/geom"
)

// Entry is a point stored in a PointIndex, identified by an opaque id.
type Entry struct {
	ID int64
	P  geom.Point
}

// pcell is one occupied cell with cached links to the occupied cells in
// its neighbor offsets. Maintaining the links costs one Blocks query per
// cell creation; range queries then visit only the linked cells.
type pcell struct {
	coord   Coord
	entries []Entry
	nbrs    []*pcell // occupied cells within neighbor offsets, excluding self
}

// PointIndex is a grid-backed spatial index supporting insertion, removal
// and θr range queries. It is the range-query-search substrate used by the
// non-integrated algorithms (static DBSCAN, Extra-N, RSP generation); C-SGS
// embeds the same cell structure directly in its skeletal grid cells.
//
// PointIndex is single-writer with a read-only concurrent query path; see
// the package documentation for the full concurrency contract.
type PointIndex struct {
	geo    *Geometry
	cells  map[Coord]*pcell
	blocks *Blocks[*pcell]
	near   NearScratch[*pcell] // Near's scratch on the single-writer path
	size   int
}

// NewPointIndex returns an empty index over the given geometry.
func NewPointIndex(geo *Geometry) *PointIndex {
	return &PointIndex{geo: geo, cells: make(map[Coord]*pcell), blocks: NewBlocks[*pcell](geo)}
}

// Geometry returns the geometry the index was built with.
func (ix *PointIndex) Geometry() *Geometry { return ix.geo }

// Len returns the number of stored points.
func (ix *PointIndex) Len() int { return ix.size }

func (ix *PointIndex) cellOf(c Coord, create bool) *pcell {
	pc := ix.cells[c]
	if pc != nil || !create {
		return pc
	}
	pc = &pcell{coord: c, nbrs: ix.blocks.Near(c, nil, &ix.near)}
	for _, nb := range pc.nbrs {
		nb.nbrs = append(nb.nbrs, pc)
	}
	ix.cells[c] = pc
	ix.blocks.Add(c, pc)
	return pc
}

func (ix *PointIndex) dropCell(pc *pcell) {
	for _, nb := range pc.nbrs {
		for i, x := range nb.nbrs {
			if x == pc {
				nb.nbrs[i] = nb.nbrs[len(nb.nbrs)-1]
				nb.nbrs = nb.nbrs[:len(nb.nbrs)-1]
				break
			}
		}
	}
	delete(ix.cells, pc.coord)
	ix.blocks.Remove(pc.coord)
}

// Insert adds a point under the given id. Duplicate ids are the caller's
// responsibility.
func (ix *PointIndex) Insert(id int64, p geom.Point) {
	pc := ix.cellOf(ix.geo.CoordOf(p), true)
	pc.entries = append(pc.entries, Entry{ID: id, P: p})
	ix.size++
}

// Remove deletes the entry with the given id located at p. It returns true
// if an entry was removed.
func (ix *PointIndex) Remove(id int64, p geom.Point) bool {
	pc := ix.cellOf(ix.geo.CoordOf(p), false)
	if pc == nil {
		return false
	}
	for i := range pc.entries {
		if pc.entries[i].ID == id {
			pc.entries[i] = pc.entries[len(pc.entries)-1]
			pc.entries = pc.entries[:len(pc.entries)-1]
			if len(pc.entries) == 0 {
				ix.dropCell(pc)
			}
			ix.size--
			return true
		}
	}
	return false
}

// RangeQuery visits every stored entry within distance θr (the geometry's
// radius, inclusive) of q, including an entry at exactly q's position.
// Iteration stops early if visit returns false.
func (ix *PointIndex) RangeQuery(q geom.Point, visit func(Entry) bool) {
	r2 := ix.geo.Radius() * ix.geo.Radius()
	scan := func(pc *pcell) bool {
		for _, e := range pc.entries {
			if geom.DistSq(q, e.P) <= r2 {
				if !visit(e) {
					return false
				}
			}
		}
		return true
	}
	center := ix.cellOf(ix.geo.CoordOf(q), false)
	if center == nil {
		// The query point's own cell is unoccupied, so it has no links;
		// find the occupied cells around it in the blocks (queries are
		// usually for stored points, so this path is rare).
		for _, pc := range ix.blocks.Near(ix.geo.CoordOf(q), nil, nil) {
			if !scan(pc) {
				return
			}
		}
		return
	}
	if !scan(center) {
		return
	}
	for _, nb := range center.nbrs {
		if !scan(nb) {
			return
		}
	}
}

// Neighbors returns the ids of all entries within θr of q, excluding the
// entry with id self (pass a negative id to exclude nothing).
func (ix *PointIndex) Neighbors(q geom.Point, self int64) []int64 {
	var out []int64
	ix.RangeQuery(q, func(e Entry) bool {
		if e.ID != self {
			out = append(out, e.ID)
		}
		return true
	})
	return out
}

// CountNeighbors returns NumNeigh(q, θr) per §3.1, excluding self.
func (ix *PointIndex) CountNeighbors(q geom.Point, self int64) int {
	n := 0
	ix.RangeQuery(q, func(e Entry) bool {
		if e.ID != self {
			n++
		}
		return true
	})
	return n
}

// Cells visits every non-empty cell coordinate.
func (ix *PointIndex) Cells(visit func(Coord, []Entry) bool) {
	for c, pc := range ix.cells {
		if !visit(c, pc.entries) {
			return
		}
	}
}
