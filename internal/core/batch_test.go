package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/window"
)

// batchStream generates a fixed-seed stream with drifting dense blobs
// plus background noise, exercising promotions, prolongs, shared edge
// cells, and cell birth/death.
func batchStream(n, dim int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, 4)
	for i := range centers {
		centers[i] = make(geom.Point, dim)
		for d := range centers[i] {
			centers[i][d] = rng.Float64() * 8
		}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		if rng.Float64() < 0.85 {
			c := centers[rng.Intn(len(centers))]
			for d := range p {
				p[d] = c[d] + rng.NormFloat64()*0.4
			}
		} else {
			for d := range p {
				p[d] = rng.Float64() * 8
			}
		}
		pts[i] = p
		// Drift the centers slowly so clusters move across cells.
		for _, c := range centers {
			c[0] += rng.NormFloat64() * 0.01
		}
	}
	return pts
}

// encodeWindows renders window results to canonical JSON so "identical"
// means byte-identical, summaries included.
func encodeWindows(t *testing.T, ws []*WindowResult) []byte {
	t.Helper()
	b, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runSequential(t *testing.T, cfg Config, pts []geom.Point, tss []int64) []*WindowResult {
	t.Helper()
	ex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []*WindowResult
	for i, p := range pts {
		var ts int64
		if tss != nil {
			ts = tss[i]
		}
		_, emitted, err := ex.Push(p, ts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, emitted...)
	}
	return append(out, ex.Flush())
}

// sparseBurstStream is batchStream with every other slide of width slide
// replaced by uniform noise over a wide box: bursts that scatter one
// segment over many more cells than a cell has neighbor offsets.
func sparseBurstStream(n, dim, slide int, seed int64) []geom.Point {
	pts := batchStream(n, dim, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range pts {
		if (i/slide)%2 == 1 {
			for d := range pts[i] {
				pts[i][d] = rng.Float64() * 40
			}
		}
	}
	return pts
}

// cellLinks renders every materialized cell's nbrCells as an ordered
// coordinate list.
func cellLinks(e *Extractor) map[grid.Coord][]grid.Coord {
	out := make(map[grid.Coord][]grid.Coord, len(e.cells))
	for coord, c := range e.cells {
		links := make([]grid.Coord, len(c.nbrCells))
		for i, nc := range c.nbrCells {
			links[i] = nc.coord
		}
		out[coord] = links
	}
	return out
}

// TestPushBatchCellLinksMatchPush checks the links PushBatch wires from
// its block queries per fresh cell: after every slide, each cell's
// nbrCells must list the same cells in the same order as under a Push
// loop, including cells that emptied and were materialized again, in
// dimension 3 and in dimension MaxDim.
func TestPushBatchCellLinksMatchPush(t *testing.T) {
	for _, dim := range []int{3, grid.MaxDim} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) { testPushBatchCellLinks(t, dim) })
	}
}

func testPushBatchCellLinks(t *testing.T, dim int) {
	const slide = 400
	pts := sparseBurstStream(8000, dim, slide, 17)
	cfg := Config{
		Dim: dim, ThetaR: 0.9, ThetaC: 3,
		Window:  window.Spec{Win: 3 * slide, Slide: slide},
		Workers: 4,
	}
	seq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[grid.Coord]bool) // materialized after some slide
	gone := make(map[grid.Coord]bool) // seen, then absent after a slide
	rematerialized, links := 0, 0
	for lo := 0; lo < len(pts); lo += slide {
		for _, p := range pts[lo : lo+slide] {
			if _, _, err := seq.Push(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := bat.PushBatch(pts[lo:lo+slide], nil); err != nil {
			t.Fatal(err)
		}
		want, got := cellLinks(seq), cellLinks(bat)
		if len(got) != len(want) {
			t.Fatalf("slide %d: %d cells under PushBatch, %d under Push", lo/slide, len(got), len(want))
		}
		for coord, wl := range want {
			links += len(wl)
			gl, ok := got[coord]
			if !ok {
				t.Fatalf("slide %d: cell %v missing under PushBatch", lo/slide, coord)
			}
			if !slices.Equal(gl, wl) {
				t.Fatalf("slide %d: cell %v links %v under PushBatch, %v under Push", lo/slide, coord, gl, wl)
			}
		}
		for coord := range seen {
			if _, ok := want[coord]; !ok {
				gone[coord] = true
			}
		}
		for coord := range want {
			if gone[coord] {
				rematerialized++
				delete(gone, coord)
			}
			seen[coord] = true
		}
	}
	if rematerialized == 0 {
		t.Fatal("no cell emptied and was materialized again; the stream does not cover re-creation")
	}
	if links == 0 {
		t.Fatal("no cell has links; the stream compares nothing")
	}
}

// TestPushBatchAllocs bounds the allocations of one slide pushed into a
// warm dimension-4 extractor (insert plus the window it closes): the
// batched insert allocates one object and one neighbor list per tuple, one
// tracker arena per segment, and no discovery temporaries.
func TestPushBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a warm window")
	}
	const (
		slide = 500
		win   = 4 * slide
	)
	pts := batchStream(win+16*slide, 4, 23)
	ex, err := New(Config{
		Dim: 4, ThetaR: 0.9, ThetaC: 5,
		Window:  window.Spec{Win: win, Slide: slide},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.PushBatch(pts[:win], nil); err != nil {
		t.Fatal(err)
	}
	next := win
	allocs := testing.AllocsPerRun(8, func() {
		if next+slide > len(pts) {
			next = win
		}
		if _, err := ex.PushBatch(pts[next:next+slide], nil); err != nil {
			t.Fatal(err)
		}
		next += slide
	})
	// 7410 measured on amd64 (go1.24); the bound is that plus 25%.
	const bound = 9263
	t.Logf("%.0f allocations per slide of %d tuples", allocs, slide)
	if allocs > bound {
		t.Errorf("PushBatch allocated %.0f times per slide, bound %d", allocs, bound)
	}
}

// TestPushBatchNilTSSTimeBased checks a nil tss under time-based windows
// reads as all-zero timestamps, exactly like a Push(p, 0) loop: no window
// ever completes, every tuple lands in the current window.
func TestPushBatchNilTSSTimeBased(t *testing.T) {
	cfg := Config{Dim: 2, ThetaR: 1, ThetaC: 2,
		Window: window.Spec{Kind: window.TimeBased, Win: 10, Slide: 5}, Workers: 2}
	pts := batchStream(500, 2, 3)

	seq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if _, _, err := seq.Push(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	bat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	emitted, err := bat.PushBatch(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 0 {
		t.Fatalf("nil-tss time-based batch emitted %d windows, Push(p, 0) emits none", len(emitted))
	}
	wb := encodeWindows(t, []*WindowResult{seq.Flush()})
	gb := encodeWindows(t, []*WindowResult{bat.Flush()})
	if string(wb) != string(gb) {
		t.Fatal("nil-tss time-based batch state differs from Push(p, 0) loop")
	}
}

// TestPushBatchErrors checks error semantics match a sequential Push loop:
// the batch stops at the offending tuple with every earlier tuple applied.
func TestPushBatchErrors(t *testing.T) {
	cfg := Config{Dim: 2, ThetaR: 1, ThetaC: 2, Window: window.Spec{Win: 10, Slide: 5}, Workers: 2}
	ex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ex.PushBatch([]geom.Point{{1, 1}, {2, 2, 2}}, nil)
	if err == nil {
		t.Fatal("dimension mismatch not reported")
	}
	if got := ex.Stats().Objects; got != 1 {
		t.Fatalf("prefix before error not applied: %d objects, want 1", got)
	}

	tcfg := Config{Dim: 1, ThetaR: 1, ThetaC: 2,
		Window: window.Spec{Kind: window.TimeBased, Win: 10, Slide: 5}, Workers: 2}
	tex, err := New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tex.PushBatch([]geom.Point{{1}, {2}, {3}}, []int64{5, 3, 4})
	if err == nil {
		t.Fatal("out-of-order position not reported")
	}
	if got := tex.Stats().Objects; got != 1 {
		t.Fatalf("prefix before order error not applied: %d objects, want 1", got)
	}
}

// TestPushRejectsPointsOffTheGrid: a point whose cell index lies outside
// the int32 range the grid admits, or with a NaN component, is refused
// like a dimension mismatch. Without the check, every such point fell into
// one false cell: 1e12, 1e12+0.1, 1e12+0.2, 5e12 and −7e12 came out as one
// cluster. Both ends of the accepted range are themselves accepted.
func TestPushRejectsPointsOffTheGrid(t *testing.T) {
	cfg := Config{Dim: 1, ThetaR: 1, ThetaC: 2, Window: window.Spec{Win: 10, Slide: 10}, Workers: 2}
	ex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reach := float64(ex.Geometry().Reach()) // side is 1 in dimension 1
	for _, x := range []float64{1e12, 1e12 + 0.1, 1e12 + 0.2, 5e12, -7e12, math.NaN(), math.Inf(1),
		math.MinInt32 + reach - 0.5, math.MaxInt32 - reach + 1} {
		if _, _, err := ex.Push(geom.Point{x}, 0); err == nil {
			t.Errorf("Push(%g) accepted", x)
		}
	}
	for _, x := range []float64{math.MinInt32 + reach, math.MaxInt32 - reach + 0.5} {
		if _, _, err := ex.Push(geom.Point{x}, 0); err != nil {
			t.Errorf("Push(%g): %v", x, err)
		}
	}
	if got := ex.Stats().Objects; got != 2 {
		t.Fatalf("%d objects after the accepted pushes, want 2", got)
	}

	// PushBatch stops at the offending tuple with every earlier one
	// applied; the rejected tuple takes no id.
	bex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bex.PushBatch([]geom.Point{{0.1}, {0.2}, {0.3}, {1e12}, {0.4}}, nil); err == nil {
		t.Fatal("PushBatch accepted 1e12")
	}
	if _, err := bex.PushBatch([]geom.Point{{math.NaN()}}, nil); err == nil {
		t.Fatal("PushBatch accepted NaN")
	}
	id, _, err := bex.Push(geom.Point{0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Errorf("next id %d, want 3", id)
	}
	res := bex.Flush()
	if len(res.Clusters) != 1 || !slices.Equal(res.Clusters[0].Members, []int64{0, 1, 2, 3}) {
		t.Fatalf("clusters %+v, want one of members [0 1 2 3]", res.Clusters)
	}
}
