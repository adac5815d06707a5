package grid

import "slices"

// Blocks indexes a set of occupied cells for one query: which of them lie
// within a cell's neighbor offsets. Cells are grouped into blocks of
// (2·Reach()+1)^dim cells, each coordinate floor-divided by 2·Reach()+1, so
// the box c ± Reach() of any cell c overlaps at most two blocks per
// dimension: a query scans the occupied cells of at most 2^dim blocks
// instead of probing all (2·Reach()+1)^dim offsets, most of which are
// empty in sparse or high-dimensional data.
//
// Coordinates must lie within [MinInt32+Reach(), MaxInt32−Reach()], the
// range Geometry.Check admits, so c ± Reach() never wraps.
//
// Blocks is single-writer: Near performs no mutation of the index, so any
// number of goroutines may call it concurrently, each with its own
// NearScratch, provided no Add or Remove overlaps with them.
type Blocks[V any] struct {
	geo   *Geometry
	reach int64
	side  int64 // block side in cells: 2·reach+1
	m     map[Coord][]blockCell[V]
	free  [][]blockCell[V] // emptied block lists Reset keeps for Add
}

type blockCell[V any] struct {
	coord Coord
	v     V
}

// NewBlocks returns an empty block index over the given geometry.
func NewBlocks[V any](geo *Geometry) *Blocks[V] {
	r := int64(geo.Reach())
	return &Blocks[V]{geo: geo, reach: r, side: 2*r + 1, m: make(map[Coord][]blockCell[V])}
}

// floorDiv is a/b rounded toward negative infinity, for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

func (b *Blocks[V]) blockOf(c Coord) Coord {
	k := Coord{D: c.D}
	for i := uint8(0); i < c.D; i++ {
		k.C[i] = int32(floorDiv(int64(c.C[i]), b.side))
	}
	return k
}

// Add records the occupied cell c with value v. c must not be present.
func (b *Blocks[V]) Add(c Coord, v V) {
	k := b.blockOf(c)
	if n := len(b.free); n > 0 {
		if _, ok := b.m[k]; !ok {
			b.m[k] = append(b.free[n-1], blockCell[V]{coord: c, v: v})
			b.free = b.free[:n-1]
			return
		}
	}
	b.m[k] = append(b.m[k], blockCell[V]{coord: c, v: v})
}

// Reset removes every cell and keeps the storage, so that refilling the
// index allocates only where it outgrows an earlier fill.
func (b *Blocks[V]) Reset() {
	for _, l := range b.m {
		clear(l) // drop the references the values may hold
		b.free = append(b.free, l[:0])
	}
	clear(b.m)
}

// Remove deletes the cell c and reports whether it was present.
func (b *Blocks[V]) Remove(c Coord) bool {
	k := b.blockOf(c)
	l := b.m[k]
	for i := range l {
		if l[i].coord != c {
			continue
		}
		last := len(l) - 1
		l[i] = l[last]
		l[last] = blockCell[V]{} // drop the reference the value may hold
		if last == 0 {
			delete(b.m, k)
		} else {
			b.m[k] = l[:last]
		}
		return true
	}
	return false
}

// NearScratch is working storage for Near. A caller that keeps one and
// passes it to every call stops allocating once it has grown to the
// largest neighborhood met. It is not safe for concurrent use: concurrent
// Near calls take one scratch each.
type NearScratch[V any] struct {
	hits []blockCell[V]
}

// Near appends to dst the values of the occupied cells other than c that
// can hold points within θr of a point in c (CanNeighbor), in coordinate
// order (Compare). For a cell c, coordinate order is the order of the
// offsets c+off: ascending off, first dimension most significant. s holds
// the hits while they are sorted; a nil s costs an allocation per call.
func (b *Blocks[V]) Near(c Coord, dst []V, s *NearScratch[V]) []V {
	// The block of c − reach in every dimension, and the dimensions in
	// which c + reach falls into the next block.
	lo := Coord{D: c.D}
	var split [MaxDim]uint8
	ns := 0
	for i := uint8(0); i < c.D; i++ {
		x := int64(c.C[i])
		l := floorDiv(x-b.reach, b.side)
		lo.C[i] = int32(l)
		if floorDiv(x+b.reach, b.side) != l {
			split[ns] = i
			ns++
		}
	}
	if s == nil {
		s = new(NearScratch[V])
	}
	hits := s.hits[:0]
	for mask := 0; mask < 1<<ns; mask++ {
		k := lo
		for j := 0; j < ns; j++ {
			if mask>>j&1 == 1 {
				k.C[split[j]]++
			}
		}
		for _, bc := range b.m[k] {
			if bc.coord != c && b.geo.CanNeighbor(c, bc.coord) {
				hits = append(hits, bc)
			}
		}
	}
	slices.SortFunc(hits, func(x, y blockCell[V]) int { return Compare(x.coord, y.coord) })
	for _, h := range hits {
		dst = append(dst, h.v)
	}
	clear(hits) // drop the references the values may hold
	s.hits = hits[:0]
	return dst
}
