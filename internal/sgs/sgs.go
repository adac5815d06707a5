// Package sgs defines the Skeletal Grid Summarization data model
// (Definition 4.4): the summarized representation of one density-based
// cluster as a set of skeletal grid cells, each carrying location, side
// length, population, status (core/edge) and connections to neighboring
// skeletal cells.
//
// The package also implements the multi-resolution hierarchy of §6.1
// (hierarchical combination of cells with compression rate θ), the cluster
// features used by the pattern base indices (§7.1), and a compact binary
// codec whose per-cell footprint matches the paper's ~23-byte figure.
package sgs

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
)

// Status of a skeletal grid cell (Definition 4.2). Noise cells are used
// only during cluster computation and never appear in an SGS.
type Status uint8

const (
	// EdgeCell contains no core object but at least one edge object.
	EdgeCell Status = iota
	// CoreCell contains at least one core object.
	CoreCell
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case CoreCell:
		return "core"
	case EdgeCell:
		return "edge"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Cell is one skeletal grid cell (Definition 4.4). The five attributes of
// the paper map as follows: location[] = Coord (scaled by the summary's
// side length), side length = Summary.Side, population = Population,
// status = Status, connection[] = Conns.
//
// Conns lists the coordinates of skeletal cells this cell is connected to:
// for a core cell, the directly-connected core cells plus the edge cells
// attached to it; for an edge cell the list is empty ("for any edge cell,
// all connection indicators are false").
type Cell struct {
	Coord      grid.Coord
	Population uint32
	Status     Status
	Conns      []grid.Coord // sorted by CoordLess; nil for edge cells
}

// Connected reports whether the cell records a connection to coordinate c.
func (cl *Cell) Connected(c grid.Coord) bool {
	i := sort.Search(len(cl.Conns), func(i int) bool { return !CoordLess(cl.Conns[i], c) })
	return i < len(cl.Conns) && cl.Conns[i] == c
}

// Summary is the SGS of one cluster: a set of skeletal grid cells at one
// resolution level. Level 0 is the "Basic SGS" produced by the extractor
// (cell diagonal = θr); higher levels are produced by Compress.
type Summary struct {
	// ID is assigned by the extractor/archiver; unique per archived cluster.
	ID int64
	// Window is the index of the window the cluster was extracted from.
	Window int64
	// Dim is the dimensionality of the data space.
	Dim int
	// Side is the side length of every cell in this summary.
	Side float64
	// Level is the resolution level (0 = basic, finest).
	Level int
	// Cells holds the skeletal grid cells sorted by CoordLess.
	Cells []Cell
}

// CoordLess is the canonical (lexicographic) order on cell coordinates.
// grid.Compare is the same order as a three-way comparison.
func CoordLess(a, b grid.Coord) bool { return grid.Compare(a, b) < 0 }

// Normalize sorts cells and each cell's connection list into canonical
// order and removes duplicate connections. Builders call it once after
// construction; all other methods assume normalized input.
func (s *Summary) Normalize() {
	slices.SortFunc(s.Cells, func(a, b Cell) int { return grid.Compare(a.Coord, b.Coord) })
	for i := range s.Cells {
		c := &s.Cells[i]
		slices.SortFunc(c.Conns, grid.Compare)
		// Compact duplicates in place (Connect may blind-append).
		out := c.Conns[:0]
		for _, t := range c.Conns {
			if len(out) == 0 || t != out[len(out)-1] {
				out = append(out, t)
			}
		}
		c.Conns = out
	}
}

// Find returns the cell with the given coordinate, or nil.
func (s *Summary) Find(c grid.Coord) *Cell {
	i := sort.Search(len(s.Cells), func(i int) bool { return !CoordLess(s.Cells[i].Coord, c) })
	if i < len(s.Cells) && s.Cells[i].Coord == c {
		return &s.Cells[i]
	}
	return nil
}

// NumCells returns the number of skeletal grid cells ("volume" feature).
func (s *Summary) NumCells() int { return len(s.Cells) }

// NumCoreCells returns the number of core cells ("status count" feature).
func (s *Summary) NumCoreCells() int {
	n := 0
	for i := range s.Cells {
		if s.Cells[i].Status == CoreCell {
			n++
		}
	}
	return n
}

// TotalPopulation returns the number of member objects summarized
// (Lemma 4.4: cells do not overlap, so populations are exact and additive).
func (s *Summary) TotalPopulation() int {
	n := 0
	for i := range s.Cells {
		n += int(s.Cells[i].Population)
	}
	return n
}

// CellVolume returns the volume of one cell of this summary.
func (s *Summary) CellVolume() float64 {
	v := 1.0
	for i := 0; i < s.Dim; i++ {
		v *= s.Side
	}
	return v
}

// CellMin returns the minimum corner of a cell (the paper's location
// vector).
func (s *Summary) CellMin(c grid.Coord) geom.Point {
	p := make(geom.Point, s.Dim)
	for i := 0; i < s.Dim; i++ {
		p[i] = float64(c.C[i]) * s.Side
	}
	return p
}

// CellMBR returns the bounding box of one cell of this summary.
func (s *Summary) CellMBR(c grid.Coord) geom.MBR {
	lo := s.CellMin(c)
	hi := lo.Clone()
	for i := range hi {
		hi[i] += s.Side
	}
	return geom.MBR{Min: lo, Max: hi}
}

// MBR returns the minimum bounding rectangle of the summarized cluster —
// the locational feature of §7.1, which position-sensitive matching
// filters on.
func (s *Summary) MBR() geom.MBR {
	m := geom.EmptyMBR(s.Dim)
	for i := range s.Cells {
		m.Extend(s.CellMBR(s.Cells[i].Coord))
	}
	return m
}

// Features are the four non-locational features of §7.1, used by the
// filter phase's feature ranges and the cluster distance metric.
type Features struct {
	// Volume is the number of skeletal grid cells.
	Volume float64
	// StatusCount is the number of core cells.
	StatusCount float64
	// AvgDensity is the average object density over the summarized region:
	// total population divided by total covered volume (Lemma 4.4 makes
	// this exact).
	AvgDensity float64
	// AvgConnectivity is the mean number of recorded connections per cell.
	AvgConnectivity float64
}

// Features computes the non-locational features of the summary.
func (s *Summary) Features() Features {
	n := len(s.Cells)
	if n == 0 {
		return Features{}
	}
	conns := 0
	for i := range s.Cells {
		conns += len(s.Cells[i].Conns)
	}
	return Features{
		Volume:          float64(n),
		StatusCount:     float64(s.NumCoreCells()),
		AvgDensity:      float64(s.TotalPopulation()) / (float64(n) * s.CellVolume()),
		AvgConnectivity: float64(conns) / float64(n),
	}
}

// Vector returns the features as a fixed-order 4-vector (volume, status
// count, avg density, avg connectivity) for the feature grid index.
func (f Features) Vector() [4]float64 {
	return [4]float64{f.Volume, f.StatusCount, f.AvgDensity, f.AvgConnectivity}
}

// FeaturesFromVector is the inverse of Features.Vector, used when the
// features come back from an index that stores them in vector form
// (e.g. a segment footer) rather than from the summary itself.
func FeaturesFromVector(v [4]float64) Features {
	return Features{Volume: v[0], StatusCount: v[1], AvgDensity: v[2], AvgConnectivity: v[3]}
}

// maxSide bounds a summary's cell side so that the corners of any cell
// (an int32 cell index times the side) and the sums and differences of
// corners that MBR centers and alignments are computed from stay finite.
const maxSide = math.MaxFloat64 / (1 << 34)

// Validate checks structural invariants of a summary: a cell side in
// (0, maxSide], sorted unique cells, edge cells with no connections,
// connections referencing existing cells, and core-core connection
// symmetry. Builders and tests use it; Unmarshal checks the same
// invariants itself as it decodes.
func (s *Summary) Validate() error {
	if s.Dim < 1 || s.Dim > grid.MaxDim {
		return fmt.Errorf("sgs: bad dimension %d", s.Dim)
	}
	if !(s.Side > 0 && s.Side <= maxSide) {
		return fmt.Errorf("sgs: side %g out of range (0,%g]", s.Side, maxSide)
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		if i > 0 && !CoordLess(s.Cells[i-1].Coord, c.Coord) {
			return fmt.Errorf("sgs: cells not sorted/unique at %d (%v after %v)", i, c.Coord, s.Cells[i-1].Coord)
		}
		if c.Population == 0 {
			return fmt.Errorf("sgs: cell %v has zero population", c.Coord)
		}
		if c.Status == EdgeCell && len(c.Conns) > 0 {
			return fmt.Errorf("sgs: edge cell %v has connections", c.Coord)
		}
		for j, t := range c.Conns {
			if j > 0 && !CoordLess(c.Conns[j-1], t) {
				return fmt.Errorf("sgs: connections of %v not sorted/unique", c.Coord)
			}
			target := s.Find(t)
			if target == nil {
				return fmt.Errorf("sgs: cell %v connected to nonexistent cell %v", c.Coord, t)
			}
			if target.Status == CoreCell && !target.Connected(c.Coord) {
				return fmt.Errorf("sgs: core-core connection %v->%v not symmetric", c.Coord, t)
			}
		}
	}
	return nil
}

// ConnectedComponents partitions the cells into groups connected through
// recorded connections (treating core→edge attachments as links). A
// well-formed SGS of a single cluster has exactly one component.
func (s *Summary) ConnectedComponents() [][]grid.Coord {
	idx := make(map[grid.Coord]int, len(s.Cells))
	for i := range s.Cells {
		idx[s.Cells[i].Coord] = i
	}
	visited := make([]bool, len(s.Cells))
	var comps [][]grid.Coord
	for i := range s.Cells {
		if visited[i] {
			continue
		}
		var comp []grid.Coord
		stack := []int{i}
		visited[i] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, s.Cells[x].Coord)
			for _, t := range s.Cells[x].Conns {
				if j, ok := idx[t]; ok && !visited[j] {
					visited[j] = true
					stack = append(stack, j)
				}
			}
			// Edge cells store no connections; follow reverse links.
			if s.Cells[x].Status == EdgeCell {
				for j := range s.Cells {
					if !visited[j] && s.Cells[j].Connected(s.Cells[x].Coord) {
						visited[j] = true
						stack = append(stack, j)
					}
				}
			}
		}
		sort.Slice(comp, func(a, b int) bool { return CoordLess(comp[a], comp[b]) })
		comps = append(comps, comp)
	}
	return comps
}

// Clone returns a deep copy of the summary. All cells' connections share
// one exact-size arena, each cell holding a capacity-capped sub-slice, so
// a clone costs three allocations however many cells it has.
func (s *Summary) Clone() *Summary {
	c := *s
	c.Cells = make([]Cell, len(s.Cells))
	total := 0
	for i := range s.Cells {
		total += len(s.Cells[i].Conns)
	}
	arena := make([]grid.Coord, 0, total)
	for i := range s.Cells {
		c.Cells[i] = s.Cells[i]
		c.Cells[i].Conns = nil
		if conns := s.Cells[i].Conns; len(conns) > 0 {
			lo := len(arena)
			arena = append(arena, conns...)
			c.Cells[i].Conns = arena[lo:len(arena):len(arena)]
		}
	}
	return &c
}

// String gives a one-line description for diagnostics.
func (s *Summary) String() string {
	return fmt.Sprintf("SGS{id=%d win=%d L%d cells=%d core=%d pop=%d}",
		s.ID, s.Window, s.Level, s.NumCells(), s.NumCoreCells(), s.TotalPopulation())
}
