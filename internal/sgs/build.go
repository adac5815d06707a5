package sgs

import (
	"fmt"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
)

// Builder assembles a Summary cell by cell, enforcing the connection rules
// of Definition 4.4 (core-core connections symmetric, attachments recorded
// on the core side only, edge cells never record connections).
type Builder struct {
	dim   int
	side  float64
	cells map[grid.Coord]*Cell
}

// NewBuilder returns a Builder for summaries with the given dimensionality
// and cell side length.
func NewBuilder(dim int, side float64) *Builder {
	return &Builder{dim: dim, side: side, cells: make(map[grid.Coord]*Cell)}
}

// AddCell registers a cell. Adding the same coordinate twice accumulates
// population and upgrades status to core if either registration is core.
func (b *Builder) AddCell(coord grid.Coord, population uint32, status Status) {
	c := b.cells[coord]
	if c == nil {
		b.cells[coord] = &Cell{Coord: coord, Population: population, Status: status}
		return
	}
	c.Population += population
	if status == CoreCell {
		c.Status = CoreCell
	}
}

// Connect records a connection between two previously added cells per
// Definition 4.4. Connecting two edge cells is an error ("two edge cells
// are neither connected nor attached"). Duplicate Connect calls are
// allowed and cheap: Build deduplicates once during normalization.
func (b *Builder) Connect(a, c grid.Coord) error {
	ca, cc := b.cells[a], b.cells[c]
	if ca == nil || cc == nil {
		return fmt.Errorf("sgs: connect %v-%v: cell not added", a, c)
	}
	if a == c {
		return fmt.Errorf("sgs: self connection on %v", a)
	}
	switch {
	case ca.Status == CoreCell && cc.Status == CoreCell:
		ca.Conns = append(ca.Conns, c)
		cc.Conns = append(cc.Conns, a)
	case ca.Status == CoreCell:
		ca.Conns = append(ca.Conns, c)
	case cc.Status == CoreCell:
		cc.Conns = append(cc.Conns, a)
	default:
		return fmt.Errorf("sgs: cannot connect two edge cells %v-%v", a, c)
	}
	return nil
}

// Build finalizes the summary.
func (b *Builder) Build(id, window int64) *Summary {
	s := &Summary{ID: id, Window: window, Dim: b.dim, Side: b.side}
	for _, c := range b.cells {
		s.Cells = append(s.Cells, *c)
	}
	s.Normalize()
	return s
}

// FromCluster builds the Basic SGS (Level 0) of one static cluster given
// its member points and which of them are core objects. It performs the
// neighborship analysis of Definitions 4.2–4.4 from scratch and is used to
// summarize clusters produced outside the integrated C-SGS pipeline (e.g.
// DBSCAN output, test fixtures, to-be-matched clusters supplied by an
// analyst).
func FromCluster(geo *grid.Geometry, pts []geom.Point, isCore []bool, id, window int64) (*Summary, error) {
	if len(pts) != len(isCore) {
		return nil, fmt.Errorf("sgs: pts/isCore length mismatch")
	}
	b := NewBuilder(geo.Dim(), geo.Side())
	ix := grid.NewPointIndex(geo)
	coords := make([]grid.Coord, len(pts))
	for i, p := range pts {
		if err := geo.Check(p); err != nil {
			return nil, fmt.Errorf("sgs: point %d: %w", i, err)
		}
		coords[i] = geo.CoordOf(p)
		ix.Insert(int64(i), p)
	}
	// Cell registration.
	cellHasCore := make(map[grid.Coord]bool)
	for i := range pts {
		if isCore[i] {
			cellHasCore[coords[i]] = true
		}
	}
	counted := make(map[grid.Coord]uint32)
	for i := range pts {
		counted[coords[i]]++
	}
	for coord, pop := range counted {
		st := EdgeCell
		if cellHasCore[coord] {
			st = CoreCell
		}
		b.AddCell(coord, pop, st)
	}
	// Connections: direct core-core connections and core-edge attachments
	// (Definition 4.3), discovered by one range query per core object.
	for i, p := range pts {
		if !isCore[i] {
			continue
		}
		var err error
		ix.RangeQuery(p, func(e grid.Entry) bool {
			j := int(e.ID)
			if j == i || coords[j] == coords[i] {
				return true
			}
			if isCore[j] || !cellHasCore[coords[j]] {
				// core-core direct connection, or attachment of an edge
				// cell (a cell with no core of its own) to this core cell.
				if e := b.Connect(coords[i], coords[j]); e != nil {
					err = e
					return false
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return b.Build(id, window), nil
}
