// Package geom provides the d-dimensional geometric primitives shared by
// every layer of the system: points, Euclidean distances, and minimum
// bounding rectangles (MBRs).
//
// All coordinates are float64. Dimensionality is dynamic (a point is a
// []float64) because the paper's workloads range from 2-D GMTI positions to
// 4-D stock-trade vectors; callers are expected to keep dimensionality
// consistent within one stream.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in d-dimensional space.
type Point []float64

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point {
	r := p.Clone()
	for i := range q {
		r[i] += q[i]
	}
	return r
}

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point {
	r := p.Clone()
	for i := range q {
		r[i] -= q[i]
	}
	return r
}

// Scale returns p * s component-wise.
func (p Point) Scale(s float64) Point {
	r := p.Clone()
	for i := range r {
		r[i] *= s
	}
	return r
}

// String renders the point as "(x, y, ...)".
func (p Point) String() string {
	s := "("
	for i, v := range p {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%g", v)
	}
	return s + ")"
}

// Dist returns the Euclidean distance between p and q.
// It panics if the dimensionalities differ.
func Dist(p, q Point) float64 {
	return math.Sqrt(DistSq(p, q))
}

// DistSq returns the squared Euclidean distance between p and q.
// Squared distances avoid the Sqrt in the hot range-query path; neighbor
// predicates compare against θr² instead. The float64 conversion rounds
// each product on its own (no fused multiply-add), so the θr test gives
// the same answer on every GOARCH.
func DistSq(p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += float64(d * d)
	}
	return s
}

// WithinDist reports whether Dist(p, q) <= r without computing a square
// root. This is the neighbor predicate of Definition 3.1.
func WithinDist(p, q Point, r float64) bool {
	return DistSq(p, q) <= r*r
}

// Centroid returns the arithmetic mean of the given points.
// It returns nil for an empty input.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return nil
	}
	c := make(Point, len(pts[0]))
	for _, p := range pts {
		for i := range c {
			c[i] += p[i]
		}
	}
	inv := 1.0 / float64(len(pts))
	for i := range c {
		c[i] *= inv
	}
	return c
}
