package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{1, 1}, 2 * math.Sqrt2},
		{Point{0}, Point{7}, 7},
		{Point{1, 2, 3, 4}, Point{1, 2, 3, 4}, 0},
	}
	for _, c := range cases {
		if got := Dist(c.p, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDistSqPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	DistSq(Point{1, 2}, Point{1, 2, 3})
}

func TestWithinDist(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if !WithinDist(p, q, 5) {
		t.Error("distance 5 should be within 5 (inclusive)")
	}
	if WithinDist(p, q, 4.999) {
		t.Error("distance 5 should not be within 4.999")
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); !got.Equal(Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); !got.Equal(Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Equal(Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if p.Equal(q) || !p.Equal(Point{1, 2}) || p.Equal(Point{1}) {
		t.Error("Equal misbehaves")
	}
	c := p.Clone()
	c[0] = 99
	if p[0] != 1 {
		t.Error("Clone aliases underlying array")
	}
	if p.String() != "(1, 2)" {
		t.Errorf("String = %q", p.String())
	}
}

func TestCentroid(t *testing.T) {
	if Centroid(nil) != nil {
		t.Error("Centroid(nil) should be nil")
	}
	c := Centroid([]Point{{0, 0}, {2, 4}, {4, 2}})
	if !c.Equal(Point{2, 2}) {
		t.Errorf("Centroid = %v", c)
	}
}

// Property: distance is a metric — symmetric, non-negative, identity, and
// satisfies the triangle inequality.
func TestDistMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gen := func() Point {
		p := make(Point, 3)
		for i := range p {
			p[i] = rng.Float64()*200 - 100
		}
		return p
	}
	for i := 0; i < 500; i++ {
		p, q, r := gen(), gen(), gen()
		dpq, dqp := Dist(p, q), Dist(q, p)
		if dpq != dqp {
			t.Fatalf("not symmetric: %v vs %v", dpq, dqp)
		}
		if dpq < 0 {
			t.Fatalf("negative distance %v", dpq)
		}
		if Dist(p, p) != 0 {
			t.Fatalf("Dist(p,p) != 0")
		}
		if Dist(p, r) > dpq+Dist(q, r)+1e-9 {
			t.Fatalf("triangle inequality violated")
		}
	}
}

func TestMBRBasics(t *testing.T) {
	m := MBRFromPoints([]Point{{0, 0}, {2, 3}, {1, -1}})
	if !m.Min.Equal(Point{0, -1}) || !m.Max.Equal(Point{2, 3}) {
		t.Fatalf("MBR corners wrong: %v", m)
	}
	if m.IsEmpty() {
		t.Error("non-empty MBR reported empty")
	}
	if got := m.Volume(); got != 8 {
		t.Errorf("Volume = %v, want 8", got)
	}
	if !m.Contains(Point{1, 1}) || m.Contains(Point{3, 0}) {
		t.Error("Contains misbehaves")
	}
	if !m.Center().Equal(Point{1, 1}) {
		t.Errorf("Center = %v", m.Center())
	}
}

func TestMBREmpty(t *testing.T) {
	var zero MBR
	if !zero.IsEmpty() {
		t.Error("zero MBR should be empty")
	}
	e := EmptyMBR(2)
	if !e.IsEmpty() {
		t.Error("EmptyMBR should be empty")
	}
	if e.Volume() != 0 {
		t.Error("empty MBR should have zero volume")
	}
	if e.Contains(Point{0, 0}) {
		t.Error("empty MBR contains nothing")
	}
	e.ExtendPoint(Point{1, 1})
	if e.IsEmpty() || !e.Contains(Point{1, 1}) {
		t.Error("extending an empty MBR should produce a point MBR")
	}
	var grown MBR
	grown.Extend(e)
	if !grown.Contains(Point{1, 1}) {
		t.Error("Extend from zero MBR failed")
	}
	var stillEmpty MBR
	stillEmpty.Extend(MBR{})
	if !stillEmpty.IsEmpty() {
		t.Error("extending with an empty MBR should be a no-op")
	}
}

func TestMBRIntersects(t *testing.T) {
	a := MBR{Min: Point{0, 0}, Max: Point{2, 2}}
	b := MBR{Min: Point{2, 2}, Max: Point{3, 3}} // touching corner counts
	c := MBR{Min: Point{2.1, 2.1}, Max: Point{3, 3}}
	if !a.Intersects(b) {
		t.Error("touching MBRs should intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint MBRs should not intersect")
	}
}

func TestMBRUnion(t *testing.T) {
	a := MBR{Min: Point{0, 0}, Max: Point{1, 1}}
	b := MBR{Min: Point{2, 0}, Max: Point{3, 1}}
	u := a.Union(b)
	if !u.Min.Equal(Point{0, 0}) || !u.Max.Equal(Point{3, 1}) {
		t.Fatalf("Union = %v", u)
	}
	var zero MBR
	if u2 := zero.Union(a); !u2.Min.Equal(a.Min) || !u2.Max.Equal(a.Max) {
		t.Errorf("Union with empty = %v", u2)
	}
}

// Property: an MBR built from points contains every input point, and its
// volume never shrinks when extended.
func TestMBRQuickProperties(t *testing.T) {
	f := func(raw [][3]float64) bool {
		if len(raw) == 0 {
			return true
		}
		pts := make([]Point, len(raw))
		for i, r := range raw {
			pts[i] = Point{r[0], r[1], r[2]}
		}
		m := MBRFromPoints(pts)
		for _, p := range pts {
			if !m.Contains(p) {
				return false
			}
		}
		v := m.Volume()
		m.ExtendPoint(Point{1000, 1000, 1000})
		return m.Volume() >= v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIntersectsFlat: on non-empty boxes the flat test agrees with
// MBR.Intersects, touching boundaries included.
func TestIntersectsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coord := func() float64 { return float64(rng.Intn(8)) } // small grid: many touching edges
	box := func(dim int) MBR {
		var m MBR
		for k := 0; k < 2; k++ {
			p := make(Point, dim)
			for i := range p {
				p[i] = coord()
			}
			m.ExtendPoint(p)
		}
		return m
	}
	hits := 0
	for trial := 0; trial < 5000; trial++ {
		dim := 1 + rng.Intn(4)
		m, q := box(dim), box(dim)
		flat := append(append([]float64(nil), m.Min...), m.Max...)
		want := m.Intersects(q)
		if got := IntersectsFlat(flat, q); got != want {
			t.Fatalf("IntersectsFlat(%v, %v) = %v, Intersects = %v", m, q, got, want)
		}
		if want {
			hits++
		}
	}
	if hits == 0 || hits == 5000 {
		t.Fatalf("%d of 5000 pairs intersect; the comparison is vacuous", hits)
	}
}
