package geom

import (
	"fmt"
	"math"
)

// MBR is a minimum bounding rectangle (hyper-rectangle) in d dimensions.
// Min and Max are inclusive corner points. A zero-value MBR (nil corners)
// is "empty" and behaves as the identity for Extend operations.
type MBR struct {
	Min Point
	Max Point
}

// EmptyMBR returns an empty MBR of the given dimensionality, ready to be
// extended. Min starts at +Inf, Max at -Inf.
func EmptyMBR(dim int) MBR {
	m := MBR{Min: make(Point, dim), Max: make(Point, dim)}
	for i := 0; i < dim; i++ {
		m.Min[i] = math.Inf(1)
		m.Max[i] = math.Inf(-1)
	}
	return m
}

// MBRFromPoints returns the tightest MBR covering the given points.
func MBRFromPoints(pts []Point) MBR {
	if len(pts) == 0 {
		return MBR{}
	}
	m := EmptyMBR(len(pts[0]))
	for _, p := range pts {
		m.ExtendPoint(p)
	}
	return m
}

// IsEmpty reports whether the MBR covers nothing.
func (m MBR) IsEmpty() bool {
	if m.Min == nil {
		return true
	}
	for i := range m.Min {
		if m.Min[i] > m.Max[i] {
			return true
		}
	}
	return false
}

// Dim returns the dimensionality of the MBR.
func (m MBR) Dim() int { return len(m.Min) }

// Clone returns an independent copy.
func (m MBR) Clone() MBR {
	return MBR{Min: m.Min.Clone(), Max: m.Max.Clone()}
}

// ExtendPoint grows the MBR in place to cover p.
func (m *MBR) ExtendPoint(p Point) {
	if m.Min == nil {
		m.Min = p.Clone()
		m.Max = p.Clone()
		return
	}
	for i := range p {
		if p[i] < m.Min[i] {
			m.Min[i] = p[i]
		}
		if p[i] > m.Max[i] {
			m.Max[i] = p[i]
		}
	}
}

// Extend grows the MBR in place to cover o.
func (m *MBR) Extend(o MBR) {
	if o.IsEmpty() {
		return
	}
	m.ExtendPoint(o.Min)
	m.ExtendPoint(o.Max)
}

// Contains reports whether p lies inside the MBR (inclusive).
func (m MBR) Contains(p Point) bool {
	if m.IsEmpty() {
		return false
	}
	for i := range p {
		if p[i] < m.Min[i] || p[i] > m.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether m and o overlap (inclusive boundaries).
func (m MBR) Intersects(o MBR) bool {
	if m.IsEmpty() || o.IsEmpty() {
		return false
	}
	for i := range m.Min {
		if m.Max[i] < o.Min[i] || o.Max[i] < m.Min[i] {
			return false
		}
	}
	return true
}

// Volume returns the d-dimensional volume of the MBR (product of extents).
// An empty MBR has volume 0.
func (m MBR) Volume() float64 {
	if m.IsEmpty() {
		return 0
	}
	v := 1.0
	for i := range m.Min {
		v *= m.Max[i] - m.Min[i]
	}
	return v
}

// Margin returns the sum of the edge lengths (used by R-tree split
// heuristics).
func (m MBR) Margin() float64 {
	if m.IsEmpty() {
		return 0
	}
	var s float64
	for i := range m.Min {
		s += m.Max[i] - m.Min[i]
	}
	return s
}

// Center returns the center point of the MBR.
func (m MBR) Center() Point {
	c := make(Point, len(m.Min))
	for i := range c {
		c[i] = (m.Min[i] + m.Max[i]) / 2
	}
	return c
}

// Union returns the tightest MBR covering both m and o.
func (m MBR) Union(o MBR) MBR {
	if m.IsEmpty() {
		return o.Clone()
	}
	u := m.Clone()
	u.Extend(o)
	return u
}

// Enlargement returns how much m's volume would grow to also cover o.
// This is the R-tree ChooseLeaf criterion.
func (m MBR) Enlargement(o MBR) float64 {
	return m.Union(o).Volume() - m.Volume()
}

// OverlapVolume returns the volume of the intersection of m and o.
func (m MBR) OverlapVolume(o MBR) float64 {
	if !m.Intersects(o) {
		return 0
	}
	v := 1.0
	for i := range m.Min {
		lo := math.Max(m.Min[i], o.Min[i])
		hi := math.Min(m.Max[i], o.Max[i])
		v *= hi - lo
	}
	return v
}

// MinDist returns the minimum Euclidean distance from p to any point of the
// MBR (0 if p is inside).
func (m MBR) MinDist(p Point) float64 {
	var s float64
	for i := range p {
		var d float64
		switch {
		case p[i] < m.Min[i]:
			d = m.Min[i] - p[i]
		case p[i] > m.Max[i]:
			d = p[i] - m.Max[i]
		}
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// String renders the MBR as "[min .. max]".
func (m MBR) String() string {
	return fmt.Sprintf("[%v .. %v]", m.Min, m.Max)
}
