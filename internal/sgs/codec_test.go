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

// rawBlob hand-builds encodings, so that tests can write what Marshal
// never does.
type rawBlob struct{ b []byte }

// newBlob starts an encoding with the given header and cell count.
func newBlob(dim int, side float64, cells uint64) *rawBlob {
	b := append([]byte(nil), magic[:]...)
	b = append(b, byte(dim), 0)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(side))
	b = binary.LittleEndian.AppendUint64(b, 5) // id
	b = binary.LittleEndian.AppendUint64(b, 9) // window
	return &rawBlob{binary.AppendUvarint(b, cells)}
}

// v appends varints: coordinate deltas and far offsets.
func (r *rawBlob) v(xs ...int64) *rawBlob {
	for _, x := range xs {
		r.b = binary.AppendVarint(r.b, x)
	}
	return r
}

// u appends uvarints: populations and far counts.
func (r *rawBlob) u(xs ...uint64) *rawBlob {
	for _, x := range xs {
		r.b = binary.AppendUvarint(r.b, x)
	}
	return r
}

// raw appends bytes: flags and masks.
func (r *rawBlob) raw(bs ...byte) *rawBlob { r.b = append(r.b, bs...); return r }

// Cell flags and dim-2 mask bits (nearOffset order: (-1,-1) (-1,0) (-1,1)
// (0,-1) (0,1) (1,-1) (1,0) (1,1)).
const (
	fCore, fFar, fNear = 1, 2, 4
	bitDown, bitUp     = 1 << 3, 1 << 4 // offsets (0,-1) and (0,1)
)

type rejectionCase struct {
	name string
	blob []byte
	// refAccepts marks the encodings the reference decoder (refUnmarshal)
	// repairs and accepts, which Unmarshal rejects as non-canonical.
	refAccepts bool
}

// rejectionCases holds one encoding per class of input Unmarshal rejects.
func rejectionCases(t testing.TB) []rejectionCase {
	t.Helper()
	// Two core cells (0,0) and (0,1), connected both ways: valid.
	pair := newBlob(2, 1, 2).v(0, 0).raw(fCore|fNear).u(3).raw(bitUp).
		v(0, 1).raw(fCore | fNear).u(2).raw(bitDown).b
	if _, err := Unmarshal(pair); err != nil {
		t.Fatalf("valid pair rejected: %v", err)
	}
	bad := func(at int, x byte) []byte {
		b := append([]byte(nil), pair...)
		b[at] = x
		return b
	}
	farPair := func(offs ...int64) []byte {
		r := newBlob(2, 1, 2).v(0, 0).raw(fCore | fFar).u(1).u(uint64(len(offs) / 2)).v(offs...)
		return r.v(0, 2).raw(fCore|fFar).u(1).u(1).v(0, -2).b
	}
	return []rejectionCase{
		{name: "empty", blob: nil},
		{name: "truncated magic", blob: pair[:3]},
		{name: "bad magic", blob: bad(0, 'X')},
		{name: "truncated header", blob: pair[:20]},
		{name: "truncated body", blob: pair[:len(pair)-2]},
		{name: "trailing bytes", blob: append(append([]byte(nil), pair...), 0, 0)},
		{name: "bad dimension", blob: bad(4, 99)},
		{name: "zero side", blob: newBlob(2, 0, 0).b},
		{name: "NaN side", blob: newBlob(2, math.NaN(), 0).b},
		{name: "huge side", blob: newBlob(2, math.MaxFloat64, 0).b},
		{name: "cell count too large", blob: newBlob(2, 1, 1<<40).b},
		{name: "far count too large", blob: newBlob(2, 1, 1).v(0, 0).raw(fCore | fFar).u(1).u(1 << 40).b},
		{name: "population overflow", blob: newBlob(2, 1, 1).v(0, 0).raw(fCore).u(1 << 32).b},
		{name: "zero population", blob: newBlob(2, 1, 1).v(0, 0).raw(fCore).u(0).b},
		{name: "duplicate cells", blob: newBlob(2, 1, 2).v(0, 0).raw(fCore).u(1).v(0, 0).raw(fCore).u(1).b},
		{name: "edge cell with connections", blob: newBlob(2, 1, 2).v(0, 0).raw(fNear).u(3).raw(bitUp).
			v(0, 1).raw(fCore | fNear).u(2).raw(bitDown).b},
		{name: "dangling connection", blob: newBlob(2, 1, 1).v(0, 0).raw(fCore | fNear).u(3).raw(bitUp).b},
		{name: "asymmetric core-core link", blob: newBlob(2, 1, 2).v(0, 0).raw(fCore|fNear).u(3).raw(bitUp).
			v(0, 1).raw(fCore).u(2).b},
		{name: "unsorted cells", refAccepts: true, blob: newBlob(2, 1, 2).v(0, 1).raw(fCore|fNear).u(2).raw(bitDown).
			v(0, -1).raw(fCore | fNear).u(3).raw(bitUp).b},
		{name: "unsorted far list", refAccepts: true, blob: newBlob(2, 1, 3).
			v(0, 0).raw(fCore|fFar).u(1).u(2).v(0, 3, 0, 2).
			v(0, 2).raw(fCore|fFar).u(1).u(1).v(0, -2).
			v(0, 1).raw(fCore|fFar).u(1).u(1).v(0, -3).b},
		{name: "duplicate far offset", refAccepts: true, blob: farPair(0, 2, 0, 2)},
		{name: "far offset repeats a mask bit", refAccepts: true, blob: newBlob(2, 1, 2).
			v(0, 0).raw(fCore|fFar|fNear).u(3).raw(bitUp).u(1).v(0, 1).
			v(0, 1).raw(fCore | fNear).u(2).raw(bitDown).b},
		// dim 1, cells at MinInt32, MinInt32+1 and MaxInt32: the first
		// cell's near targets, -1 then +1, wrap to MaxInt32 then
		// MinInt32+1, out of order.
		{name: "near target wraps int32", refAccepts: true, blob: newBlob(1, 1, 3).
			v(math.MinInt32).raw(fCore | fNear).u(1).raw(0b11).
			v(1).raw(fCore | fNear).u(1).raw(0b01).
			v(-2).raw(fCore | fNear).u(1).raw(0b10).b},
	}
}

// TestUnmarshalRejectsCorruption: every class of rejected input fails
// with an error wrapping ErrCorrupt, including the non-canonical
// encodings the reference decoder repairs.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	for _, tc := range rejectionCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Unmarshal(tc.blob)
			if err == nil {
				t.Fatalf("accepted: %v", s)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %q does not wrap ErrCorrupt", err)
			}
			if _, refErr := refUnmarshal(tc.blob); (refErr == nil) != tc.refAccepts {
				t.Fatalf("reference decoder error %v, want accepted %v", refErr, tc.refAccepts)
			}
		})
	}
}

// TestCodecRoundTrip: EncodedSize counts exactly the bytes Marshal
// writes, and decoding gives back the summary, for DBSCAN clusters and for
// generated summaries, compressed and not, in every dimension, including
// cells whose near and far connections interleave and must be merged.
func TestCodecRoundTrip(t *testing.T) {
	var sums []*Summary
	for seed := int64(20); seed < 30; seed++ {
		s := randomSummary(t, seed)
		s.ID, s.Window = seed*100, seed
		sums = append(sums, s)
	}
	rng := rand.New(rand.NewSource(21))
	for dim := 1; dim <= grid.MaxDim; dim++ {
		for k := 0; k < 8; k++ {
			s := genSummary(t, rng, dim, 4+rng.Intn(40))
			sums = append(sums, s)
			if c, err := s.Compress(2); err == nil {
				sums = append(sums, c)
			}
		}
	}
	far, merged := 0, 0
	for _, s := range sums {
		b := Marshal(s)
		if got := EncodedSize(s); got != len(b) {
			t.Fatalf("%v: EncodedSize %d, Marshal writes %d", s, got, len(b))
		}
		d, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !reflect.DeepEqual(d, s) {
			t.Fatalf("round trip differs:\n got %+v\nwant %+v", d, s)
		}
		if hasFar(s) {
			far++
		}
		merged += interleaved(s)
	}
	if far == 0 || merged == 0 {
		t.Fatalf("%d summaries with far connections, %d cells that merge them; want some of each", far, merged)
	}
}

// TestEncodedSizeAllocs: sizing a summary allocates nothing.
func TestEncodedSizeAllocs(t *testing.T) {
	s := genSummary(t, rand.New(rand.NewSource(4)), 3, 30)
	if got := testing.AllocsPerRun(50, func() { EncodedSize(s) }); got != 0 {
		t.Fatalf("EncodedSize: %v allocations, want 0", got)
	}
}

// interleaved counts the cells of s with a far connection that sorts
// before one of its near connections, which the decoder must merge.
func interleaved(s *Summary) int {
	n := 0
	for i := range s.Cells {
		c := &s.Cells[i]
		seenFar := false
		for _, t := range c.Conns {
			isNear := nearIndex(t.Sub(c.Coord)) >= 0
			if isNear && seenFar {
				n++
				break
			}
			seenFar = seenFar || !isNear
		}
	}
	return n
}

// shapedSummary is a cluster summary of the shape a workload archives:
// GMTI's dim-2 clusters of about 14 cells, or STT's dim-4 clusters of
// about 30 cells.
func shapedSummary(t testing.TB, dim int) *Summary {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(dim)))
	geo, err := grid.NewGeometry(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, spread := 40, 0.6
	if dim > 2 {
		n, spread = 60, 0.4
	}
	pts := make([]geom.Point, n)
	core := make([]bool, n)
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for d := range pts[i] {
			pts[i][d] = rng.NormFloat64() * spread
		}
		core[i] = rng.Intn(5) != 0
	}
	s, err := FromCluster(geo, pts, core, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestUnmarshalAllocs: a decode is the summary, its cells and one
// connection arena.
func TestUnmarshalAllocs(t *testing.T) {
	s := shapedSummary(t, 2)
	b := Marshal(s)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(b); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Fatalf("Unmarshal of %d cells: %v allocations, want at most 3", s.NumCells(), got)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	for _, shape := range []struct {
		name string
		dim  int
	}{{"GMTI", 2}, {"STT", 4}} {
		s := shapedSummary(b, shape.dim)
		blob := Marshal(s)
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(s.NumCells()), "cells")
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
