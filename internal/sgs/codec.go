package sgs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"streamsum/internal/grid"
)

// Binary codec for SGS summaries.
//
// The paper stores a 4-dimensional skeletal grid cell in 23 bytes
// (position 16 B, status 1 B, density 4 B, connections 2 B). Our format
// reaches comparable (usually better) density via delta-coded cell
// coordinates (cells are sorted, so successive coordinates are near each
// other), varint populations, and a connection bitmask over the 3^dim-1
// immediately adjacent offsets plus an explicit list for the rare
// "far" connections (cells up to ⌈√dim⌉ apart can host neighboring
// objects, which the paper's fixed 16-bit vector cannot represent).
//
// Layout:
//
//	magic "SGS1" | dim u8 | level u8 | side f64 | id i64 | window i64 |
//	numCells uvarint | cells...
//
// Each cell:
//
//	coordDelta dim×varint (delta from previous cell's coordinate)
//	flags u8 (bit0 = core, bit1 = has far conns, bit2 = has near mask)
//	population uvarint
//	[near connection bitmask, ceil((3^dim-1)/8) bytes]   if bit2
//	[farCount uvarint, then per conn dim×varint delta from cell coord] if bit1
//
// Canonical order. Marshal writes cells in grid.Compare order, and each
// cell's connections as mask bits, whose index order (nearOffset) is the
// grid.Compare order of their targets, plus a far list in target order.
// Unmarshal requires that order instead of sorting:
//
//   - the cells strictly increase;
//   - a cell's connection targets, the mask bits in index order merged
//     with the far list, strictly increase: the far list is sorted and
//     duplicate-free, no far offset repeats a mask bit, and no target
//     wraps round the int32 range.
//
// It rejects, with ErrCorrupt, every encoding out of this order and every
// summary that breaks Validate's invariants.

var magic = [4]byte{'S', 'G', 'S', '1'}

// headerLen is the size of the fixed header: magic, dim, level, side, id
// and window.
const headerLen = 4 + 1 + 1 + 8 + 8 + 8

// ErrCorrupt is returned when decoding fails structurally.
var ErrCorrupt = errors.New("sgs: corrupt encoding")

// nearCount returns the number of nonzero offsets in {-1,0,1}^dim, the
// bits of a cell's near-connection mask.
func nearCount(dim int) int {
	n := 1
	for i := 0; i < dim; i++ {
		n *= 3
	}
	return n - 1
}

// nearOffset returns the offset with bitmask index ni: the ni-th nonzero
// offset in {-1,0,1}^dim, lexicographic by component. It is the inverse
// of nearIndex.
func nearOffset(dim, ni int) grid.Coord {
	idx := ni
	if idx >= nearCount(dim)/2 {
		idx++ // step over the zero offset in the middle
	}
	var off grid.Coord
	off.D = uint8(dim)
	for i := dim - 1; i >= 0; i-- {
		off.C[i] = int32(idx%3) - 1
		idx /= 3
	}
	return off
}

// nearIndex maps an offset to its bitmask index, or -1 if not a near
// offset.
func nearIndex(off grid.Coord) int {
	idx := 0
	for i := uint8(0); i < off.D; i++ {
		v := off.C[i]
		if v < -1 || v > 1 {
			return -1
		}
		idx = idx*3 + int(v+1)
	}
	// idx enumerates {-1,0,1}^dim lexicographically including zero, which
	// sits exactly in the middle; entries after it shift down by one.
	zero := 0
	for i := uint8(0); i < off.D; i++ {
		zero = zero*3 + 1
	}
	switch {
	case idx == zero:
		return -1
	case idx > zero:
		return idx - 1
	default:
		return idx
	}
}

// Marshal encodes the summary.
func Marshal(s *Summary) []byte {
	buf := make([]byte, 0, 32+len(s.Cells)*16)
	buf = append(buf, magic[:]...)
	buf = append(buf, byte(s.Dim), byte(s.Level))
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(s.Side))
	buf = append(buf, f8[:]...)
	binary.LittleEndian.PutUint64(f8[:], uint64(s.ID))
	buf = append(buf, f8[:]...)
	binary.LittleEndian.PutUint64(f8[:], uint64(s.Window))
	buf = append(buf, f8[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(s.Cells)))

	mask := make([]byte, (nearCount(s.Dim)+7)/8)
	var far []grid.Coord
	var prev grid.Coord
	prev.D = uint8(s.Dim)
	for i := range s.Cells {
		c := &s.Cells[i]
		for j := 0; j < s.Dim; j++ {
			buf = binary.AppendVarint(buf, int64(c.Coord.C[j]-prev.C[j]))
		}
		prev = c.Coord

		clear(mask)
		far = far[:0]
		hasNear := false
		for _, t := range c.Conns {
			off := t.Sub(c.Coord)
			if ni := nearIndex(off); ni >= 0 {
				mask[ni/8] |= 1 << (ni % 8)
				hasNear = true
			} else {
				far = append(far, off)
			}
		}
		var flags byte
		if c.Status == CoreCell {
			flags |= 1
		}
		if len(far) > 0 {
			flags |= 2
		}
		if hasNear {
			flags |= 4
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(c.Population))
		if hasNear {
			buf = append(buf, mask...)
		}
		if len(far) > 0 {
			buf = binary.AppendUvarint(buf, uint64(len(far)))
			for _, off := range far {
				for j := 0; j < s.Dim; j++ {
					buf = binary.AppendVarint(buf, int64(off.C[j]))
				}
			}
		}
	}
	return buf
}

// EncodedSize returns the size in bytes Marshal would produce, without
// encoding.
func EncodedSize(s *Summary) int {
	n := headerLen + uvarintLen(uint64(len(s.Cells)))
	maskBytes := (nearCount(s.Dim) + 7) / 8
	var prev grid.Coord
	for i := range s.Cells {
		c := &s.Cells[i]
		for j := 0; j < s.Dim; j++ {
			n += varintLen(int64(c.Coord.C[j] - prev.C[j]))
		}
		prev = c.Coord
		n += 1 + uvarintLen(uint64(c.Population))
		hasNear, far, farBytes := false, 0, 0
		for _, t := range c.Conns {
			off := t.Sub(c.Coord)
			if nearIndex(off) >= 0 {
				hasNear = true
				continue
			}
			far++
			for j := 0; j < s.Dim; j++ {
				farBytes += varintLen(int64(off.C[j]))
			}
		}
		if hasNear {
			n += maskBytes
		}
		if far > 0 {
			n += uvarintLen(uint64(far)) + farBytes
		}
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's encoding of x.
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// nearTables holds, per dimension, the near offsets in bitmask index
// order, built on first use.
var nearTables [grid.MaxDim + 1]struct {
	once sync.Once
	offs []grid.Coord
}

// nearTable returns nearOffset(dim, ni) for every mask index ni.
func nearTable(dim int) []grid.Coord {
	t := &nearTables[dim]
	t.once.Do(func() {
		t.offs = make([]grid.Coord, nearCount(dim))
		for ni := range t.offs {
			t.offs[ni] = nearOffset(dim, ni)
		}
	})
	return t.offs
}

// corrupt returns a decode error wrapping ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// layout is what the structure pass learns about an encoding before
// anything is allocated.
type layout struct {
	dim, level  int
	side        float64
	id, window  int64
	cells       int
	conns       int // connections over all cells
	body        int // offset of the first cell
	maskBytes   int
	lastMaskBit byte // the bits of a mask's last byte that index offsets
}

// scan checks the structure of an encoding: the header, that every cell
// reads whole with a nonzero population that fits 32 bits, that edge cells
// carry no connections, and that no byte trails. It counts cells and
// connections; it allocates nothing.
func scan(b []byte) (layout, error) {
	var l layout
	if len(b) < 4 || [4]byte(b[:4]) != magic {
		return l, corrupt("bad magic")
	}
	if len(b) < headerLen {
		return l, corrupt("truncated header")
	}
	l.dim, l.level = int(b[4]), int(b[5])
	if l.dim < 1 || l.dim > grid.MaxDim {
		return l, corrupt("dimension %d", l.dim)
	}
	l.side = math.Float64frombits(binary.LittleEndian.Uint64(b[6:]))
	if !(l.side > 0 && l.side <= maxSide) {
		return l, corrupt("side %g out of range (0,%g]", l.side, maxSide)
	}
	l.id = int64(binary.LittleEndian.Uint64(b[14:]))
	l.window = int64(binary.LittleEndian.Uint64(b[22:]))
	n, k := binary.Uvarint(b[headerLen:])
	if k <= 0 {
		return l, corrupt("truncated cell count")
	}
	if n > uint64(len(b)) { // cheap sanity bound: >= 1 byte per cell
		return l, corrupt("cell count %d too large", n)
	}
	l.cells, l.body = int(n), headerLen+k
	near := nearCount(l.dim)
	l.maskBytes = (near + 7) / 8
	l.lastMaskBit = 0xff
	if near%8 != 0 {
		l.lastMaskBit = 1<<(near%8) - 1
	}

	pos := l.body
	for i := 0; i < l.cells; i++ {
		for j := 0; j < l.dim; j++ {
			if pos = skipVarint(b, pos); pos < 0 {
				return l, corrupt("cell %d truncated", i)
			}
		}
		if pos >= len(b) {
			return l, corrupt("cell %d truncated", i)
		}
		flags := b[pos]
		pos++
		pop, k := binary.Uvarint(b[pos:])
		if k <= 0 {
			return l, corrupt("cell %d truncated", i)
		}
		pos += k
		switch {
		case pop == 0:
			return l, corrupt("cell %d has zero population", i)
		case pop > math.MaxUint32:
			return l, corrupt("cell %d population overflow", i)
		}
		conns := 0
		if flags&4 != 0 {
			if pos+l.maskBytes > len(b) {
				return l, corrupt("cell %d truncated", i)
			}
			conns = l.nearConns(b[pos : pos+l.maskBytes])
			pos += l.maskBytes
		}
		if flags&2 != 0 {
			fc, k := binary.Uvarint(b[pos:])
			if k <= 0 {
				return l, corrupt("cell %d truncated", i)
			}
			if fc > uint64(len(b)) {
				return l, corrupt("cell %d far conn count %d", i, fc)
			}
			pos += k
			for v := 0; v < int(fc)*l.dim; v++ {
				if pos = skipVarint(b, pos); pos < 0 {
					return l, corrupt("cell %d truncated", i)
				}
			}
			conns += int(fc)
		}
		if flags&1 == 0 && conns > 0 {
			return l, corrupt("edge cell %d has connections", i)
		}
		l.conns += conns
	}
	if pos != len(b) {
		return l, corrupt("%d trailing bytes", len(b)-pos)
	}
	return l, nil
}

// nearConns counts the connections a near mask holds; bits past the last
// offset are padding.
func (l *layout) nearConns(mask []byte) int {
	n := 0
	for _, m := range mask[:len(mask)-1] {
		n += bits.OnesCount8(m)
	}
	return n + bits.OnesCount8(mask[len(mask)-1]&l.lastMaskBit)
}

// skipVarint returns the offset after the varint at pos, or -1 if none
// reads there.
func skipVarint(b []byte, pos int) int {
	_, k := binary.Uvarint(b[pos:])
	if k <= 0 {
		return -1
	}
	return pos + k
}

// Unmarshal decodes a summary produced by Marshal. It accepts exactly the
// encodings in canonical order (see the layout above) of summaries that
// pass Validate, and wraps ErrCorrupt in every rejection. A structure pass
// reads the bytes first, so the summary is allocated at its exact size
// (the Summary, its cells and one connection arena) and a corrupt cell
// count cannot force a large allocation.
func Unmarshal(b []byte) (*Summary, error) {
	l, err := scan(b)
	if err != nil {
		return nil, err
	}
	s := &Summary{Dim: l.dim, Level: l.level, Side: l.side, ID: l.id, Window: l.window}
	s.Cells = make([]Cell, l.cells)
	var arena []grid.Coord
	if l.conns > 0 {
		arena = make([]grid.Coord, l.conns)
	}
	offs := nearTable(l.dim)
	// A cell's far targets, before the merge; a cell with more than fit
	// costs one allocation more.
	var farBuf [32]grid.Coord
	pos, at := l.body, 0
	var prev grid.Coord
	for i := range s.Cells {
		c := &s.Cells[i]
		c.Coord = prev
		for j := 0; j < l.dim; j++ {
			v, k := binary.Varint(b[pos:])
			pos += k
			c.Coord.C[j] += int32(v)
		}
		c.Coord.D = uint8(l.dim)
		if i > 0 && compareCoords(&prev, &c.Coord) >= 0 {
			return nil, corrupt("cell %v after %v: cells not in canonical order", c.Coord, prev)
		}
		prev = c.Coord
		flags := b[pos]
		pos++
		pop, k := binary.Uvarint(b[pos:])
		pos += k
		c.Population = uint32(pop)
		if flags&1 != 0 {
			c.Status = CoreCell
		}
		var mask []byte
		nn := 0
		if flags&4 != 0 {
			mask = b[pos : pos+l.maskBytes]
			pos += l.maskBytes
			nn = l.nearConns(mask)
		}
		nf := 0
		if flags&2 != 0 {
			fc, k := binary.Uvarint(b[pos:])
			pos += k
			nf = int(fc)
		}
		slot := arena[at : at+nn+nf : at+nn+nf]
		at += len(slot)
		if len(slot) == 0 {
			continue
		}
		c.Conns = slot
		putNear(slot[:nn], &c.Coord, mask, offs)
		if atLimit(&c.Coord) && !increasing(slot[:nn]) {
			return nil, corrupt("near connections of %v wrap the int32 range", c.Coord)
		}
		if nf == 0 {
			continue
		}
		far := farBuf[:0]
		if nf > len(farBuf) {
			far = make([]grid.Coord, 0, nf)
		}
		for range nf {
			t := c.Coord
			for j := 0; j < l.dim; j++ {
				v, k := binary.Varint(b[pos:])
				pos += k
				t.C[j] += int32(v)
			}
			far = append(far, t)
		}
		if !increasing(far) || !mergeFar(slot, nn, far) {
			return nil, corrupt("connections of %v not in canonical order", c.Coord)
		}
	}
	if err := link(s.Cells); err != nil {
		return nil, err
	}
	return s, nil
}

// putNear writes the targets of mask's bits from at, in index order,
// into dst, which holds exactly as many.
func putNear(dst []grid.Coord, at *grid.Coord, mask []byte, offs []grid.Coord) {
	k := 0
	for bi, m := range mask {
		for ; m != 0; m &= m - 1 {
			ni := bi*8 + bits.TrailingZeros8(m)
			if ni >= len(offs) {
				return // padding
			}
			t := &dst[k]
			*t = *at
			for j := range at.D {
				t.C[j] += offs[ni].C[j]
			}
			k++
		}
	}
}

// atLimit reports whether a component of c is at an int32 limit, the only
// place a near target can wrap out of the mask's order.
func atLimit(c *grid.Coord) bool {
	for _, v := range c.C[:c.D] {
		if v == math.MaxInt32 || v == math.MinInt32 {
			return true
		}
	}
	return false
}

// increasing reports whether cs strictly increases.
func increasing(cs []grid.Coord) bool {
	for i := 1; i < len(cs); i++ {
		if compareCoords(&cs[i-1], &cs[i]) >= 0 {
			return false
		}
	}
	return true
}

// mergeFar merges the increasing far targets into slot, whose first nn
// entries hold the increasing near targets, and reports whether no far
// target repeats a near one. It merges from the back, so only the near
// targets above the smallest far one move.
func mergeFar(slot []grid.Coord, nn int, far []grid.Coord) bool {
	i, w := nn-1, len(slot)-1
	for f := len(far) - 1; f >= 0; f-- {
		for ; i >= 0; i-- {
			c := compareCoords(&slot[i], &far[f])
			if c == 0 {
				return false
			}
			if c < 0 {
				break
			}
			slot[w] = slot[i]
			w--
		}
		slot[w] = far[f]
		w--
	}
	return true
}

// link resolves every connection to its target cell and checks that each
// core–core connection is recorded on both sides. Cells and connections
// are in canonical order, so one forward search per cell finds its
// targets, and the cells whose lists a target's list is searched for
// arrive in increasing order, so a cursor per cell, which only moves
// forward, finds them: the whole check is linear in the connections, up
// to the searches' galloping. The cursors of a few hundred cells live on
// the stack.
func link(cells []Cell) error {
	var curBuf [256]int32
	cur := curBuf[:0]
	if len(cells) > len(curBuf) {
		cur = make([]int32, len(cells))
	} else {
		cur = curBuf[:len(cells)]
	}
	first := 0 // where the previous cell's first target was found
	for i := range cells {
		c := &cells[i]
		if len(c.Conns) == 0 {
			continue
		}
		// Neighbouring cells have neighbouring first targets: search from
		// the previous cell's unless it is already past this one's.
		k := first
		if compareCoords(&cells[k].Coord, &c.Conns[0]) > 0 {
			k = 0
		}
		for ti := range c.Conns {
			t := &c.Conns[ti]
			var found bool
			if k, found = seek(cells, k, t); !found {
				return corrupt("cell %v connected to nonexistent cell %v", c.Coord, *t)
			}
			if ti == 0 {
				first = k
			}
			if target := &cells[k]; target.Status == CoreCell {
				back, p := target.Conns, int(cur[k])
				for p < len(back) {
					if d := compareCoords(&back[p], &c.Coord); d >= 0 {
						if d > 0 {
							p = len(back)
						}
						break
					}
					p++
				}
				if p == len(back) {
					return corrupt("core-core connection %v->%v not symmetric", c.Coord, *t)
				}
				cur[k] = int32(p)
			}
			k++
		}
	}
	return nil
}

// seek returns the index of the first cell at or after lo whose
// coordinate is not below t, and whether that cell is t. It gallops from
// lo, so a target just past the previous one costs one comparison.
func seek(cells []Cell, lo int, t *grid.Coord) (int, bool) {
	hi, step := lo, 1
	for hi < len(cells) {
		d := compareCoords(&cells[hi].Coord, t)
		if d >= 0 {
			if hi == lo {
				return hi, d == 0
			}
			break
		}
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(cells))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if compareCoords(&cells[m].Coord, t) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(cells) && compareCoords(&cells[lo].Coord, t) == 0
}

// compareCoords is grid.Compare for two coordinates of one dimension,
// taken by pointer so that the hot loops copy no coordinates.
func compareCoords(a, b *grid.Coord) int {
	for i := range a.D {
		if a.C[i] != b.C[i] {
			if a.C[i] < b.C[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
