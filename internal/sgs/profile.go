package sgs

import "streamsum/internal/grid"

// Profile is a summary's per-axis cell-count profile: along each axis, the
// extent of its cells and the number of cells at each coordinate of that
// extent. It does not change when the summary is translated by whole
// cells, so two profiles bound how many cells any translation can bring
// into coincidence without looking at a single cell (internal/match uses
// it to dismiss pairs before its vote).
//
// A profile is immutable once built and safe to share.
type Profile struct {
	// Lo and Hi are the lowest and highest cell coordinate on each axis;
	// components past the summary's dimensionality are zero.
	Lo, Hi [grid.MaxDim]int32
	// counts holds axis 0's counts, then axis 1's, and so on: axis d has
	// Hi[d]−Lo[d]+1 of them, and its k-th counts the cells at Lo[d]+k.
	counts []uint32
}

// Profile size caps: a summary gets no profile when some axis spans more
// than maxProfileAxis coordinates, or when its profile would hold more
// than maxProfilePerCell counts per cell. The second keeps a profile's
// heap well below that of the cells it describes (≥ 64 B per cell), even
// for a sparse summary whose few cells lie far apart.
const (
	maxProfileAxis    = 1<<16 - 1
	maxProfilePerCell = 16
)

// NewProfile returns s's profile, or nil when s has no cells or exceeds
// the profile size caps.
func NewProfile(s *Summary) *Profile {
	if len(s.Cells) == 0 {
		return nil
	}
	p := &Profile{Lo: s.Cells[0].Coord.C, Hi: s.Cells[0].Coord.C}
	for i := 1; i < len(s.Cells); i++ {
		c := &s.Cells[i].Coord.C
		for d := 0; d < s.Dim; d++ {
			p.Lo[d] = min(p.Lo[d], c[d])
			p.Hi[d] = max(p.Hi[d], c[d])
		}
	}
	total := 0
	for d := 0; d < s.Dim; d++ {
		span := int64(p.Hi[d]) - int64(p.Lo[d]) + 1
		if span > maxProfileAxis {
			return nil
		}
		total += int(span)
	}
	if total > maxProfilePerCell*len(s.Cells) {
		return nil
	}
	p.counts = make([]uint32, total)
	for i := range s.Cells {
		c := &s.Cells[i].Coord.C
		off := 0
		for d := 0; d < s.Dim; d++ {
			// Both int32, at most maxProfileAxis apart: the difference
			// fits.
			p.counts[off+int(c[d]-p.Lo[d])]++
			off += int(p.Hi[d]-p.Lo[d]) + 1
		}
	}
	return p
}

// Axis returns the counts along axis d: its k-th entry is the number of
// cells at coordinate Lo[d]+k. The slice is shared; callers must not
// modify it.
func (p *Profile) Axis(d int) []uint32 {
	off := 0
	for e := 0; e < d; e++ {
		off += int(p.Hi[e]-p.Lo[e]) + 1
	}
	return p.counts[off : off+int(p.Hi[d]-p.Lo[d])+1]
}
