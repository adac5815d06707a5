package grid

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"streamsum/internal/geom"
)

// neighborOffsets enumerates, in lexicographic order and including the
// zero offset, every cell offset that can contain a point within θr of a
// point in the origin cell: the (2·Reach()+1)^dim box filtered by minimum
// cell distance. It is the offset walk the block index replaced, kept as
// an oracle for low dimensions.
func neighborOffsets(g *Geometry) []Coord {
	reach := g.Reach()
	var out []Coord
	cur := make([]int32, g.Dim())
	var rec func(i int)
	rec = func(i int) {
		if i == g.Dim() {
			var s float64
			for _, v := range cur {
				gap := math.Abs(float64(v)) - 1
				if gap > 0 {
					d := gap * g.Side()
					s += float64(d * d)
				}
			}
			if s <= g.Radius()*g.Radius()*(1+1e-12) {
				out = append(out, CoordOf(cur...))
			}
			return
		}
		for v := -reach; v <= reach; v++ {
			cur[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// walkNear is Blocks.Near by the offset walk: every nonzero offset of c
// probed in occ, in offset order.
func walkNear(offsets []Coord, occ map[Coord]int, c Coord) []int {
	var out []int
	zero := Coord{D: c.D}
	for _, off := range offsets {
		if off == zero {
			continue
		}
		if v, ok := occ[c.Add(off)]; ok {
			out = append(out, v)
		}
	}
	return out
}

// bruteNear is Blocks.Near by brute force: CanNeighbor over every
// occupied cell except c, in coordinate order.
func bruteNear(g *Geometry, occ map[Coord]int, c Coord) []int {
	var hits []Coord
	for o := range occ {
		if o != c && g.CanNeighbor(c, o) {
			hits = append(hits, o)
		}
	}
	slices.SortFunc(hits, Compare)
	out := make([]int, len(hits))
	for i, o := range hits {
		out[i] = occ[o]
	}
	return out
}

// checkLayout checks the documented block layout of b holding exactly the
// cells of occ: cell c sits in the block floor(c / (2·Reach()+1)) in every
// dimension, and no block is empty. Near's results alone cannot show a
// wrong layout that still keeps a query box within two blocks per
// dimension (truncating division for negative coordinates, or a block
// side of 2·Reach()): such a layout answers correctly but scans more.
func checkLayout(t *testing.T, b *Blocks[int], occ map[Coord]int) {
	t.Helper()
	side := float64(2*b.geo.Reach() + 1)
	n := 0
	for k, l := range b.m {
		if len(l) == 0 {
			t.Fatalf("block %v is empty", k)
		}
		for _, bc := range l {
			n++
			if v, ok := occ[bc.coord]; !ok || v != bc.v {
				t.Fatalf("block %v holds %v=%d, occupied %v=%d", k, bc.coord, bc.v, ok, v)
			}
			for i := uint8(0); i < bc.coord.D; i++ {
				if want := int32(math.Floor(float64(bc.coord.C[i]) / side)); k.C[i] != want {
					t.Fatalf("cell %v in block %v, want block index %d in dimension %d", bc.coord, k, want, i)
				}
			}
		}
	}
	if n != len(occ) {
		t.Fatalf("blocks hold %d cells, %d occupied", n, len(occ))
	}
}

// cellRange is the cell range Check admits for g.
func cellRange(g *Geometry) (lo, hi int64) {
	r := int64(g.Reach())
	return math.MinInt32 + r, math.MaxInt32 - r
}

// TestBlocksMatchBruteForce churns random occupied sets through Add and
// Remove, with a Reset every 50 steps, at every dimension, around the
// origin (negative coordinates included) and at both ends of the accepted
// cell range, and checks the block layout and every query after every
// step: against brute force, and at dims ≤ 4 against the offset walk too.
func TestBlocksMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for dim := 1; dim <= MaxDim; dim++ {
		for _, scale := range []float64{1, 0.37, 2.5} { // side = radius/√dim × scale
			g, err := NewGeometryWithSide(dim, 1, scale/math.Sqrt(float64(dim)))
			if err != nil {
				t.Fatal(err)
			}
			var offsets []Coord
			if dim <= 3 || dim == 4 && scale >= 1 { // (2·reach+1)^dim ≤ 1331
				offsets = neighborOffsets(g)
			}
			lo, hi := cellRange(g)
			reach := int64(g.Reach())
			for _, centre := range []int64{0, -3 * reach, lo, hi} {
				name := fmt.Sprintf("dim%d/side%.3g/centre%d", dim, g.Side(), centre)
				span := 3*reach + 1 // coordinates within centre ± span
				coord := func() Coord {
					var c Coord
					c.D = uint8(dim)
					for i := 0; i < dim; i++ {
						x := centre + rng.Int63n(2*span+1) - span
						c.C[i] = int32(min(max(x, lo), hi))
					}
					return c
				}
				b := NewBlocks[int](g)
				occ := make(map[Coord]int)
				var cells []Coord
				var scratch NearScratch[int]
				for step := 0; step < 150; step++ {
					if step%50 == 49 { // refill from the lists Reset keeps
						b.Reset()
						clear(occ)
						cells = cells[:0]
					}
					if len(cells) > 0 && rng.Intn(3) == 0 {
						k := rng.Intn(len(cells))
						c := cells[k]
						cells[k] = cells[len(cells)-1]
						cells = cells[:len(cells)-1]
						delete(occ, c)
						if !b.Remove(c) {
							t.Fatalf("%s: Remove(%v) missed an occupied cell", name, c)
						}
					} else if c := coord(); occ[c] == 0 {
						occ[c] = step + 1
						cells = append(cells, c)
						b.Add(c, step+1)
					}
					if c := coord(); occ[c] == 0 && b.Remove(c) {
						t.Fatalf("%s: Remove(%v) found an unoccupied cell", name, c)
					}
					checkLayout(t, b, occ)
					queries := []Coord{coord(), coord()}
					if len(cells) > 0 {
						queries = append(queries, cells[rng.Intn(len(cells))])
					}
					for _, q := range queries {
						got := b.Near(q, nil, &scratch)
						if want := bruteNear(g, occ, q); !slices.Equal(got, want) {
							t.Fatalf("%s step %d: Near(%v) = %v, brute force %v", name, step, q, got, want)
						}
						if offsets != nil {
							if want := walkNear(offsets, occ, q); !slices.Equal(got, want) {
								t.Fatalf("%s step %d: Near(%v) = %v, offset walk %v", name, step, q, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzBlocks decodes bytes into a dimension, a run of Add / Remove
// operations and a query coordinate, and checks the block layout and Near
// against brute force.
// Coordinates are small offsets from one of three bases (the origin and
// both ends of the accepted cell range), so cells meet in blocks.
func FuzzBlocks(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{4, 1, 7, 0x80, 9, 200, 13, 0x81, 2, 9, 3, 4, 5, 6, 7})
	f.Add([]byte{8, 2, 1, 2, 3, 4, 5, 6, 7, 8, 0x82, 250, 251, 252, 253, 254, 255, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim := int(data[0])%MaxDim + 1
		g, err := NewGeometry(dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := cellRange(g)
		base := []int64{0, lo, hi}[int(data[1])%3]
		data = data[2:]
		// Each coordinate takes dim bytes, each a signed offset from base.
		next := func() (Coord, bool) {
			if len(data) < dim {
				return Coord{}, false
			}
			var c Coord
			c.D = uint8(dim)
			for i := 0; i < dim; i++ {
				c.C[i] = int32(min(max(base+int64(int8(data[i])%16), lo), hi))
			}
			data = data[dim:]
			return c, true
		}
		b := NewBlocks[int](g)
		occ := make(map[Coord]int)
		var scratch NearScratch[int] // reused across queries, as core does
		for n := 1; ; n++ {
			if len(data) == 0 {
				break
			}
			op := data[0]
			data = data[1:]
			c, ok := next()
			if !ok {
				break
			}
			switch _, present := occ[c]; {
			case op&0x80 != 0: // remove
				if b.Remove(c) != present {
					t.Fatalf("Remove(%v) = %v, occupied %v", c, !present, present)
				}
				delete(occ, c)
			case !present:
				b.Add(c, n)
				occ[c] = n
			}
			checkLayout(t, b, occ)
			if got, want := b.Near(c, nil, &scratch), bruteNear(g, occ, c); !slices.Equal(got, want) {
				t.Fatalf("Near(%v) = %v, brute force %v", c, got, want)
			}
		}
		if q, ok := next(); ok {
			if got, want := b.Near(q, nil, &scratch), bruteNear(g, occ, q); !slices.Equal(got, want) {
				t.Fatalf("Near(%v) = %v, brute force %v", q, got, want)
			}
		}
	})
}

// TestBlocksConcurrentNear runs Near from several goroutines over a frozen
// index (run with -race): the read path must not mutate.
func TestBlocksConcurrentNear(t *testing.T) {
	g := mustGeo(t, 3, 1)
	rng := rand.New(rand.NewSource(5))
	b := NewBlocks[int](g)
	occ := make(map[Coord]int)
	for len(occ) < 400 {
		c := CoordOf(rng.Int31n(30)-15, rng.Int31n(30)-15, rng.Int31n(30)-15)
		if _, ok := occ[c]; !ok {
			occ[c] = len(occ)
			b.Add(c, occ[c])
		}
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			var scratch NearScratch[int]
			for i := w; i < 200; i += 4 {
				q := CoordOf(int32(i%30-15), int32(i/7%30-15), int32(i/3%30-15))
				if got, want := b.Near(q, nil, &scratch), bruteNear(g, occ, q); !slices.Equal(got, want) {
					t.Errorf("Near(%v) = %v, brute force %v", q, got, want)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// TestNearAllocs: with a warm scratch and room in dst, Near allocates
// nothing, also when it finds far more occupied cells than a small stack
// buffer would hold (common at dimension 4).
func TestNearAllocs(t *testing.T) {
	g := mustGeo(t, 4, 1)
	b := NewBlocks[int](g)
	r := g.Reach()
	n := 0
	for x := -r; x <= r; x++ {
		for y := -r; y <= r; y++ {
			for z := -r; z <= r; z++ {
				for w := -r; w <= r; w++ {
					n++
					b.Add(CoordOf(x, y, z, w), n)
				}
			}
		}
	}
	origin := CoordOf(0, 0, 0, 0)
	var scratch NearScratch[int]
	dst := b.Near(origin, nil, &scratch)
	if len(dst) <= 32 {
		t.Fatalf("only %d hits; the test needs more than 32", len(dst))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		dst = b.Near(origin, dst[:0], &scratch)
	}); allocs != 0 {
		t.Errorf("Near allocated %.0f times per call with %d hits, want 0", allocs, len(dst))
	}
}

// TestCheck covers the points Check rejects: a dimension mismatch,
// non-finite components and cell indices past the accepted range, with
// both bounds themselves accepted.
func TestCheck(t *testing.T) {
	g := mustGeo(t, 2, math.Sqrt2) // side 1, reach 2
	lo, hi := cellRange(g)
	for _, tc := range []struct {
		p  geom.Point
		ok bool
	}{
		{geom.Point{0.5, -3}, true},
		{geom.Point{float64(lo), 0}, true},
		{geom.Point{0, float64(hi) + 0.99}, true},
		{geom.Point{float64(lo) - 0.01, 0}, false},
		{geom.Point{0, float64(hi) + 1}, false},
		{geom.Point{math.NaN(), 0}, false},
		{geom.Point{0, math.Inf(1)}, false},
		{geom.Point{math.Inf(-1), 0}, false},
		{geom.Point{1e12, 0}, false},
		{geom.Point{0}, false},
	} {
		if err := g.Check(tc.p); (err == nil) != tc.ok {
			t.Errorf("Check(%v) = %v, want ok=%v", tc.p, err, tc.ok)
		}
	}
}

// TestNewGeometryHighDimCheap: a geometry holds no per-offset state, so
// even dimension MaxDim costs next to nothing to build.
func TestNewGeometryHighDimCheap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := NewGeometry(MaxDim, 0.9)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 1<<20 {
		t.Errorf("NewGeometry(%d, %g) allocated %d bytes, want < 1 MB", MaxDim, g.Radius(), bytes)
	}
}

// BenchmarkNearVsOffsetWalk times finding a new cell's occupied neighbor
// cells on one occupied set — the clustered cells of 2000 points — by the
// block index and by the offset walk it replaced, per queried cell (the
// unoccupied cells the points' neighbors fall in).
func BenchmarkNearVsOffsetWalk(b *testing.B) {
	for _, dim := range []int{2, 4, 6} {
		g, err := NewGeometry(dim, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(dim)))
		blocks := NewBlocks[int](g)
		occ := make(map[Coord]int)
		centres := make([]geom.Point, 4)
		for i := range centres {
			centres[i] = make(geom.Point, dim)
			for d := range centres[i] {
				centres[i][d] = rng.Float64() * 8
			}
		}
		var queries []Coord
		for i := 0; i < 2000; i++ {
			p := make(geom.Point, dim)
			for d := range p {
				p[d] = centres[i%4][d] + rng.NormFloat64()*0.35
			}
			c := g.CoordOf(p)
			if _, ok := occ[c]; ok {
				continue
			}
			if i%2 == 0 {
				occ[c] = len(occ)
				blocks.Add(c, occ[c])
			} else {
				queries = append(queries, c)
			}
		}
		offsets := neighborOffsets(g)
		var sink int
		b.Run(fmt.Sprintf("dim%d/near", dim), func(b *testing.B) {
			var buf []int
			var scratch NearScratch[int]
			for i := 0; i < b.N; i++ {
				buf = blocks.Near(queries[i%len(queries)], buf[:0], &scratch)
				sink += len(buf)
			}
		})
		b.Run(fmt.Sprintf("dim%d/offsetwalk", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += len(walkNear(offsets, occ, queries[i%len(queries)]))
			}
		})
		_ = sink
	}
}
