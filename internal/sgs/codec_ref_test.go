package sgs

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
)

// refReader is the byte reader of the reference decoder.
type refReader struct {
	b   []byte
	pos int
	err error
}

func (r *refReader) bytes(n int) []byte {
	if r.err != nil || r.pos+n > len(r.b) {
		r.err = ErrCorrupt
		return nil
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *refReader) uvarint() uint64 {
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

func (r *refReader) varint() int64 {
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

// refRawDecode is the first step of the reference decoder: it reads cells
// as they come and appends each cell's far connections after its near
// ones, checking structure only. nearLen[i] is how many of
// cell i's connections came from its mask.
func refRawDecode(b []byte) (s *Summary, nearLen []int, err error) {
	r := &refReader{b: b}
	m := r.bytes(4)
	if r.err != nil || [4]byte(m) != magic {
		return nil, nil, ErrCorrupt
	}
	hdr := r.bytes(2)
	if r.err != nil {
		return nil, nil, r.err
	}
	dim, level := int(hdr[0]), int(hdr[1])
	if dim < 1 || dim > grid.MaxDim {
		return nil, nil, ErrCorrupt
	}
	sideBits := r.bytes(8)
	idB := r.bytes(8)
	winB := r.bytes(8)
	if r.err != nil {
		return nil, nil, r.err
	}
	s = &Summary{
		Dim:    dim,
		Level:  level,
		Side:   math.Float64frombits(binary.LittleEndian.Uint64(sideBits)),
		ID:     int64(binary.LittleEndian.Uint64(idB)),
		Window: int64(binary.LittleEndian.Uint64(winB)),
	}
	n := r.uvarint()
	if r.err != nil {
		return nil, nil, r.err
	}
	if n > uint64(len(b)) {
		return nil, nil, ErrCorrupt
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
			return nil, nil, r.err
		}
		flags := flagsB[0]
		pop := r.uvarint()
		if pop > math.MaxUint32 {
			return nil, nil, ErrCorrupt
		}
		c := Cell{Coord: coord, Population: uint32(pop)}
		if flags&1 != 0 {
			c.Status = CoreCell
		}
		if flags&4 != 0 {
			mask := r.bytes(maskBytes)
			if r.err != nil {
				return nil, nil, r.err
			}
			for ni := 0; ni < near; ni++ {
				if mask[ni/8]&(1<<(ni%8)) != 0 {
					c.Conns = append(c.Conns, coord.Add(nearOffset(dim, ni)))
				}
			}
		}
		nl := len(c.Conns)
		if flags&2 != 0 {
			fc := r.uvarint()
			if fc > uint64(len(b)) {
				return nil, nil, ErrCorrupt
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
			return nil, nil, r.err
		}
		s.Cells = append(s.Cells, c)
		nearLen = append(nearLen, nl)
	}
	if r.pos != len(b) {
		return nil, nil, ErrCorrupt
	}
	return s, nearLen, nil
}

// refUnmarshal is the reference decoder: the raw decode, then Normalize,
// then Validate.
func refUnmarshal(b []byte) (*Summary, error) {
	s, _, err := refRawDecode(b)
	if err != nil {
		return nil, err
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// canonical reports whether a raw decode is in the order Unmarshal
// requires: cells strictly increase, and within each cell the near
// targets (mask order) and the far targets (list order) each strictly
// increase and no far target repeats a near one.
func canonical(s *Summary, nearLen []int) bool {
	increasing := func(cs []grid.Coord) bool {
		for i := 1; i < len(cs); i++ {
			if grid.Compare(cs[i-1], cs[i]) >= 0 {
				return false
			}
		}
		return true
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		if i > 0 && grid.Compare(s.Cells[i-1].Coord, c.Coord) >= 0 {
			return false
		}
		near, far := c.Conns[:nearLen[i]], c.Conns[nearLen[i]:]
		if !increasing(near) || !increasing(far) {
			return false
		}
		for _, f := range far {
			for _, t := range near {
				if f == t {
					return false
				}
			}
		}
	}
	return true
}

// FuzzUnmarshalReference checks the one-pass decoder against the
// reference: it accepts exactly the inputs the reference accepts whose raw
// decode is canonical, and then returns the same summary. The seed
// corpus runs in every plain `go test`; mutate with
// go test -run '^FuzzUnmarshalReference$' -fuzz '^FuzzUnmarshalReference$' -fuzztime 20s ./internal/sgs/
func FuzzUnmarshalReference(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for dim := 1; dim <= grid.MaxDim; dim++ {
		f.Add(Marshal(genSummary(f, rng, dim, 12)))
	}
	for _, tc := range rejectionCases(f) {
		f.Add(tc.blob)
	}
	f.Add(Marshal(&Summary{Dim: 3, Side: 1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Unmarshal(b)
		want, nearLen, refErr := refRawDecode(b)
		canon := false
		if refErr == nil {
			canon = canonical(want, nearLen)
			want.Normalize()
			refErr = want.Validate()
		}
		if accept := refErr == nil && canon; (err == nil) != accept {
			t.Fatalf("Unmarshal error %v; reference error %v, canonical %v", err, refErr, canon)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoders disagree:\n got %+v\nwant %+v", got, want)
		}
	})
}

// genSummary builds the summary of a random cluster of n points in dim
// dimensions. The radius spans two cell sides, so cells two apart connect
// and the summary holds far connections beside near ones.
func genSummary(t testing.TB, rng *rand.Rand, dim, n int) *Summary {
	t.Helper()
	geo, err := grid.NewGeometryWithSide(dim, 1.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, n)
	core := make([]bool, n)
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for d := range pts[i] {
			pts[i][d] = float64(rng.Intn(400)-200) / 100
		}
		core[i] = rng.Intn(4) != 0
	}
	s, err := FromCluster(geo, pts, core, rng.Int63(), rng.Int63n(1000))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hasFar reports whether some connection of s is stored in a far list.
func hasFar(s *Summary) bool {
	for i := range s.Cells {
		for _, t := range s.Cells[i].Conns {
			if nearIndex(t.Sub(s.Cells[i].Coord)) < 0 {
				return true
			}
		}
	}
	return false
}
