package grid

import (
	"fmt"
	"math"
	"sort"

	"streamsum/internal/geom"
)

// MaxDim is the largest supported dimensionality. Cell coordinates are
// fixed-size arrays so they can be used directly as map keys without
// allocation.
const MaxDim = 8

// Coord identifies one grid cell. It is comparable and usable as a map key.
type Coord struct {
	D uint8 // dimensionality actually used
	C [MaxDim]int32
}

// CoordOf builds a Coord from a slice of cell indices.
func CoordOf(idx ...int32) Coord {
	if len(idx) > MaxDim {
		panic(fmt.Sprintf("grid: %d dimensions exceeds MaxDim=%d", len(idx), MaxDim))
	}
	var c Coord
	c.D = uint8(len(idx))
	copy(c.C[:], idx)
	return c
}

// Add returns c translated by the offset o (component-wise).
func (c Coord) Add(o Coord) Coord {
	r := c
	for i := uint8(0); i < c.D; i++ {
		r.C[i] += o.C[i]
	}
	return r
}

// Sub returns the offset from o to c.
func (c Coord) Sub(o Coord) Coord {
	r := c
	for i := uint8(0); i < c.D; i++ {
		r.C[i] -= o.C[i]
	}
	return r
}

// IsZero reports whether every component is zero.
func (c Coord) IsZero() bool {
	for i := uint8(0); i < c.D; i++ {
		if c.C[i] != 0 {
			return false
		}
	}
	return true
}

// Slice returns the active components as an []int32.
func (c Coord) Slice() []int32 { return c.C[:c.D] }

// String renders the coordinate for diagnostics.
func (c Coord) String() string {
	s := "⟨"
	for i := uint8(0); i < c.D; i++ {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", c.C[i])
	}
	return s + "⟩"
}

// Geometry captures the grid parameters for one resolution level: the
// dimensionality, the cell side length, and the neighbor radius θr it
// serves. It precomputes the set of relative cell offsets that can contain
// points within θr of a point in the origin cell.
type Geometry struct {
	dim     int
	side    float64
	radius  float64
	offsets []Coord // includes the zero offset
}

// NewGeometry returns the finest-resolution geometry of the paper: the cell
// diagonal equals radius (θr), i.e. side = θr/√dim, so all objects within
// one cell are mutual neighbors (basis of Lemmas 4.1 and 4.2).
func NewGeometry(dim int, radius float64) (*Geometry, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("grid: radius must be positive, got %g", radius)
	}
	return NewGeometryWithSide(dim, radius, radius/math.Sqrt(float64(dim)))
}

// NewGeometryWithSide returns a geometry with an explicit cell side length.
// It is used by the multi-resolution hierarchy (side grows by the
// compression rate θ per level) and by grid-size ablation experiments.
func NewGeometryWithSide(dim int, radius, side float64) (*Geometry, error) {
	if dim < 1 || dim > MaxDim {
		return nil, fmt.Errorf("grid: dimension %d out of range [1,%d]", dim, MaxDim)
	}
	if side <= 0 || radius <= 0 {
		return nil, fmt.Errorf("grid: side and radius must be positive (side=%g radius=%g)", side, radius)
	}
	g := &Geometry{dim: dim, side: side, radius: radius}
	g.offsets = g.computeOffsets()
	return g, nil
}

// Dim returns the dimensionality.
func (g *Geometry) Dim() int { return g.dim }

// Side returns the cell side length.
func (g *Geometry) Side() float64 { return g.side }

// Radius returns the neighbor radius θr the geometry serves.
func (g *Geometry) Radius() float64 { return g.radius }

// Diagonal returns the cell diagonal length.
func (g *Geometry) Diagonal() float64 { return g.side * math.Sqrt(float64(g.dim)) }

// IntraCellNeighbors reports whether any two points in the same cell are
// guaranteed to be neighbors (diagonal <= radius). True for the paper's
// basic (finest) SGS geometry; false for coarser levels.
func (g *Geometry) IntraCellNeighbors() bool {
	// Allow for floating-point slack when side was derived from radius.
	return g.Diagonal() <= g.radius*(1+1e-12)
}

// CoordOf returns the coordinate of the cell containing p.
func (g *Geometry) CoordOf(p geom.Point) Coord {
	if len(p) != g.dim {
		panic(fmt.Sprintf("grid: point dim %d != geometry dim %d", len(p), g.dim))
	}
	var c Coord
	c.D = uint8(g.dim)
	for i := 0; i < g.dim; i++ {
		c.C[i] = int32(math.Floor(p[i] / g.side))
	}
	return c
}

// CellMin returns the minimum corner of cell c — the "location vector" of a
// skeletal grid cell (Definition 4.4).
func (g *Geometry) CellMin(c Coord) geom.Point {
	p := make(geom.Point, g.dim)
	for i := 0; i < g.dim; i++ {
		p[i] = float64(c.C[i]) * g.side
	}
	return p
}

// CellMBR returns the bounding box of cell c.
func (g *Geometry) CellMBR(c Coord) geom.MBR {
	lo := g.CellMin(c)
	hi := lo.Clone()
	for i := range hi {
		hi[i] += g.side
	}
	return geom.MBR{Min: lo, Max: hi}
}

// CellVolume returns the volume of a single cell.
func (g *Geometry) CellVolume() float64 {
	return math.Pow(g.side, float64(g.dim))
}

// MinDistBetween returns the minimum distance between any two points of
// cells a and b.
func (g *Geometry) MinDistBetween(a, b Coord) float64 {
	var s float64
	for i := 0; i < g.dim; i++ {
		gap := math.Abs(float64(a.C[i]-b.C[i])) - 1
		if gap > 0 {
			d := gap * g.side
			s += float64(d * d)
		}
	}
	return math.Sqrt(s)
}

// NeighborOffsets returns the relative coordinates (including the zero
// offset) of every cell that can contain a point within radius θr of some
// point in the origin cell. C-SGS visits exactly these cells during the one
// range query search it runs per arriving object.
func (g *Geometry) NeighborOffsets() []Coord { return g.offsets }

// CanNeighbor reports whether cells a and b can contain points within
// radius θr of each other. It is exactly the membership rule behind
// NeighborOffsets applied to an arbitrary coordinate pair, so
// CanNeighbor(c, c.Add(off)) is true iff off is in NeighborOffsets. The
// batched ingest path uses it to relate the occupied cells of a segment
// pairwise instead of probing every offset through a map.
func (g *Geometry) CanNeighbor(a, b Coord) bool {
	reach := g.Reach()
	var s float64
	for i := 0; i < g.dim; i++ {
		d := a.C[i] - b.C[i]
		if d < 0 {
			d = -d
		}
		if d > reach {
			return false
		}
		gap := float64(d) - 1
		if gap > 0 {
			dd := gap * g.side
			s += float64(dd * dd)
		}
	}
	return s <= g.radius*g.radius*(1+1e-12)
}

// Reach returns the maximum per-dimension cell offset that can contain
// neighbors.
func (g *Geometry) Reach() int32 {
	return int32(math.Ceil(g.radius / g.side))
}

// NeighborIndices returns, in ascending order, the indices j of the
// occupied cells whose coords[j] can contain points within radius θr of
// points in cell coords[i], including i itself. idx must be the inverse
// of coords (idx[coords[j]] == j for every j). The batched ingest
// pipelines use it to relate a segment's occupied cells: for few cells a
// pairwise CanNeighbor scan is cheapest, but past |NeighborOffsets| cells
// (sparse bursts) the offsets are probed through idx instead, bounding
// the per-cell cost at O(|offsets|) rather than O(cells).
func (g *Geometry) NeighborIndices(coords []Coord, idx map[Coord]int32, i int) []int32 {
	var nbr []int32
	if len(coords) <= len(g.offsets) {
		for j := range coords {
			if g.CanNeighbor(coords[i], coords[j]) {
				nbr = append(nbr, int32(j))
			}
		}
		return nbr
	}
	for _, off := range g.offsets {
		if j, ok := idx[coords[i].Add(off)]; ok {
			nbr = append(nbr, j)
		}
	}
	sort.Slice(nbr, func(a, b int) bool { return nbr[a] < nbr[b] })
	return nbr
}

func (g *Geometry) computeOffsets() []Coord {
	reach := g.Reach()
	var out []Coord
	cur := make([]int32, g.dim)
	var rec func(i int)
	rec = func(i int) {
		if i == g.dim {
			// Minimum squared distance between origin cell and offset cell.
			var s float64
			for _, v := range cur {
				gap := math.Abs(float64(v)) - 1
				if gap > 0 {
					d := gap * g.side
					s += float64(d * d)
				}
			}
			if s <= g.radius*g.radius*(1+1e-12) {
				out = append(out, CoordOf(cur...))
			}
			return
		}
		for v := -reach; v <= reach; v++ {
			cur[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
