package sgs

import (
	"math"
	"slices"
	"testing"

	"streamsum/internal/grid"
)

func cellsAt(dim int, coords ...[]int32) *Summary {
	s := &Summary{Dim: dim, Side: 1}
	for _, c := range coords {
		s.Cells = append(s.Cells, Cell{Coord: grid.CoordOf(c...), Population: 1})
	}
	s.Normalize()
	return s
}

// TestProfileCounts: a profile holds each axis's extent and the number
// of cells at every coordinate of it, and is the same for every whole-cell
// translate of the summary, the int32 limits included.
func TestProfileCounts(t *testing.T) {
	s := cellsAt(2, []int32{-1, 4}, []int32{0, 4}, []int32{0, 5}, []int32{2, 7})
	p := NewProfile(s)
	if p == nil {
		t.Fatal("no profile")
	}
	if p.Lo[0] != -1 || p.Hi[0] != 2 || p.Lo[1] != 4 || p.Hi[1] != 7 {
		t.Fatalf("extent %v–%v", p.Lo, p.Hi)
	}
	if got := p.Axis(0); !slices.Equal(got, []uint32{1, 2, 0, 1}) {
		t.Fatalf("axis 0 counts %v", got)
	}
	if got := p.Axis(1); !slices.Equal(got, []uint32{2, 1, 0, 1}) {
		t.Fatalf("axis 1 counts %v", got)
	}
	for _, off := range []int32{math.MaxInt32 - 7, math.MinInt32 + 1} {
		moved := cellsAt(2)
		for _, c := range s.Cells {
			moved.Cells = append(moved.Cells, Cell{Coord: grid.CoordOf(c.Coord.C[0]+off, c.Coord.C[1]+off), Population: 1})
		}
		moved.Normalize()
		q := NewProfile(moved)
		if q == nil || q.Lo[0] != p.Lo[0]+off || q.Hi[1] != p.Hi[1]+off ||
			!slices.Equal(q.Axis(0), p.Axis(0)) || !slices.Equal(q.Axis(1), p.Axis(1)) {
			t.Fatalf("translate by %d: profile %+v, want %+v shifted", off, q, p)
		}
	}
}

// TestProfileCaps: a summary gets no profile when it is empty, when an
// axis spans 2^16 coordinates or more (a wrapped box spans nearly 2^32),
// or when the profile would hold more than 16 counts per cell.
func TestProfileCaps(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *Summary
		ok   bool
	}{
		{"empty", cellsAt(2), false},
		{"single", cellsAt(8, make([]int32, 8)), true},
		{"sparse", cellsAt(1, []int32{0}, []int32{1<<16 - 2}, []int32{1 << 15}), false},
		{"span 2^16", cellsAt(1, []int32{5}, []int32{5 + 1<<16 - 1}), false},
		{"wrapped", cellsAt(1, []int32{math.MaxInt32}, []int32{math.MinInt32}), false},
		{"16 per cell", cellsAt(1, []int32{0}, []int32{31}), true},
		{"17 per cell", cellsAt(1, []int32{0}, []int32{33}), false},
		{"dense", cellsAt(3, []int32{0, 0, 0}, []int32{1, 1, 1}, []int32{2, 0, 1}), true},
	} {
		if got := NewProfile(c.s) != nil; got != c.ok {
			t.Errorf("%s: profile %v, want %v", c.name, got, c.ok)
		}
	}
	// At the axis cap, with cells enough to pay for the counts: 2^16−1
	// coordinates get a profile, 2^16 do not.
	var coords [][]int32
	for k := int32(0); k < 1<<12; k++ {
		coords = append(coords, []int32{16 * k})
	}
	if p := NewProfile(cellsAt(1, append(coords, []int32{1<<16 - 2})...)); p == nil || len(p.Axis(0)) != 1<<16-1 {
		t.Fatal("no profile at 2^16-1 coordinates with cells enough")
	}
	if NewProfile(cellsAt(1, append(coords, []int32{1<<16 - 1})...)) != nil {
		t.Fatal("a profile over 2^16 coordinates")
	}
}
