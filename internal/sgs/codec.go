package sgs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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

var magic = [4]byte{'S', 'G', 'S', '1'}

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

// EncodedSize returns the size in bytes Marshal would produce.
func EncodedSize(s *Summary) int { return len(Marshal(s)) }

type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || r.pos+n > len(r.b) {
		r.err = ErrCorrupt
		return nil
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.pos += n
	return v
}

// Unmarshal decodes a summary produced by Marshal and validates it.
func Unmarshal(b []byte) (*Summary, error) {
	r := &reader{b: b}
	m := r.bytes(4)
	if r.err != nil || [4]byte(m) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	hdr := r.bytes(2)
	if r.err != nil {
		return nil, r.err
	}
	dim, level := int(hdr[0]), int(hdr[1])
	if dim < 1 || dim > grid.MaxDim {
		return nil, fmt.Errorf("%w: dimension %d", ErrCorrupt, dim)
	}
	sideBits := r.bytes(8)
	idB := r.bytes(8)
	winB := r.bytes(8)
	if r.err != nil {
		return nil, r.err
	}
	s := &Summary{
		Dim:    dim,
		Level:  level,
		Side:   math.Float64frombits(binary.LittleEndian.Uint64(sideBits)),
		ID:     int64(binary.LittleEndian.Uint64(idB)),
		Window: int64(binary.LittleEndian.Uint64(winB)),
	}
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if n > uint64(len(b)) { // cheap sanity bound: >= 1 byte per cell
		return nil, fmt.Errorf("%w: cell count %d too large", ErrCorrupt, n)
	}
	near := nearCount(dim)
	maskBytes := (near + 7) / 8
	var prev grid.Coord
	prev.D = uint8(dim)
	s.Cells = make([]Cell, 0, n)
	for i := uint64(0); i < n; i++ {
		var coord grid.Coord
		coord.D = uint8(dim)
		for j := 0; j < dim; j++ {
			coord.C[j] = prev.C[j] + int32(r.varint())
		}
		prev = coord
		flagsB := r.bytes(1)
		if r.err != nil {
			return nil, r.err
		}
		flags := flagsB[0]
		pop := r.uvarint()
		if pop > math.MaxUint32 {
			return nil, fmt.Errorf("%w: population overflow", ErrCorrupt)
		}
		c := Cell{Coord: coord, Population: uint32(pop)}
		if flags&1 != 0 {
			c.Status = CoreCell
		}
		if flags&4 != 0 {
			mask := r.bytes(maskBytes)
			if r.err != nil {
				return nil, r.err
			}
			for ni := 0; ni < near; ni++ {
				if mask[ni/8]&(1<<(ni%8)) != 0 {
					c.Conns = append(c.Conns, coord.Add(nearOffset(dim, ni)))
				}
			}
		}
		if flags&2 != 0 {
			fc := r.uvarint()
			if fc > uint64(len(b)) {
				return nil, fmt.Errorf("%w: far conn count", ErrCorrupt)
			}
			for k := uint64(0); k < fc; k++ {
				var off grid.Coord
				off.D = uint8(dim)
				for j := 0; j < dim; j++ {
					off.C[j] = int32(r.varint())
				}
				c.Conns = append(c.Conns, coord.Add(off))
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		s.Cells = append(s.Cells, c)
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-r.pos)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
