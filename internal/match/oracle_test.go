package match

import (
	"container/heap"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
)

// The kernel this package shipped before the merge-join / pooled-search /
// vote-bound rebuild, kept verbatim as the test oracle: binary-search cell
// lookup, a map for the visited set, a boxed container/heap. Refine must
// return bit-identical distances and never dismiss a pair the oracle would
// have accepted.

func oracleCellDistance(a, b *sgs.Summary, align grid.Coord) float64 {
	if a.NumCells() == 0 && b.NumCells() == 0 {
		return 0
	}
	if a.NumCells() == 0 || b.NumCells() == 0 {
		return 1
	}
	matched := 0
	var sum float64
	for i := range a.Cells {
		ca := &a.Cells[i]
		cb := b.Find(ca.Coord.Add(align))
		if cb == nil {
			sum += 1
			continue
		}
		matched++
		sum += cellDiff(ca, cb)
	}
	sum += float64(b.NumCells() - matched)
	union := a.NumCells() + b.NumCells() - matched
	return sum / float64(union)
}

type oracleItem struct {
	align grid.Coord
	dist  float64
}

type oracleHeap []oracleItem

func (h oracleHeap) Len() int            { return len(h) }
func (h oracleHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(oracleItem)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func oracleBestAlignment(a, b *sgs.Summary, budget int) (float64, grid.Coord) {
	dim := a.Dim
	start := oracleCenterAlign(a, b)
	if budget < 1 {
		budget = 1
	}
	visited := map[grid.Coord]bool{start: true}
	h := &oracleHeap{{align: start, dist: oracleCellDistance(a, b, start)}}
	heap.Init(h)
	evals := 1
	best := (*h)[0]
	for h.Len() > 0 && evals < budget {
		cur := heap.Pop(h).(oracleItem)
		if cur.dist < best.dist {
			best = cur
		}
		for d := 0; d < dim && evals < budget; d++ {
			for _, delta := range [2]int32{-1, 1} {
				nb := cur.align
				nb.C[d] += delta
				if visited[nb] {
					continue
				}
				visited[nb] = true
				nd := oracleCellDistance(a, b, nb)
				evals++
				if nd < best.dist {
					best = oracleItem{align: nb, dist: nd}
				}
				heap.Push(h, oracleItem{align: nb, dist: nd})
				if evals >= budget {
					break
				}
			}
		}
	}
	return best.dist, best.align
}

func oracleCenterAlign(a, b *sgs.Summary) grid.Coord {
	ca := a.MBR().Center()
	cb := b.MBR().Center()
	var off grid.Coord
	off.D = uint8(a.Dim)
	for d := 0; d < a.Dim; d++ {
		off.C[d] = int32(math.Round((cb[d] - ca[d]) / a.Side))
	}
	return off
}

func oracleRefineDistance(target, cand *sgs.Summary, w Weights, budget int) float64 {
	if w.PositionSensitive {
		return oracleCellDistance(target, cand, grid.Coord{D: uint8(target.Dim)})
	}
	d, _ := oracleBestAlignment(target, cand, budget)
	return d
}

// checkAgainstOracle asserts the three properties the rebuild promises for
// one pair: RefineDistance is the oracle's distance bit for bit, within is
// exactly "oracle distance ≤ threshold", and dist is the oracle's whenever
// within. It returns within, and whether Refine dismissed the pair with a
// bound (dist = +Inf).
func checkAgainstOracle(t testing.TB, a, b *sgs.Summary, w Weights, budget int, threshold float64) (within, pruned bool) {
	t.Helper()
	want := oracleRefineDistance(a, b, w, budget)
	if got := RefineDistance(a, b, w, budget); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("RefineDistance = %v, oracle %v (ps=%v budget=%d)\na=%v\nb=%v",
			got, want, w.PositionSensitive, budget, a.Cells, b.Cells)
	}
	dist, within := Refine(a, b, w, budget, threshold)
	if within != (want <= threshold) {
		t.Fatalf("within = %v at threshold %v, oracle distance %v (ps=%v budget=%d)\na=%v\nb=%v",
			within, threshold, want, w.PositionSensitive, budget, a.Cells, b.Cells)
	}
	if within && math.Float64bits(dist) != math.Float64bits(want) {
		t.Fatalf("within but dist = %v, oracle %v", dist, want)
	}
	if !within && !(dist > threshold) {
		t.Fatalf("not within but dist = %v ≤ threshold %v", dist, threshold)
	}
	return within, math.IsInf(dist, 1)
}

// summaryOf builds a normalized summary from raw cells (duplicates of a
// coordinate collapse to the first).
func summaryOf(dim int, side float64, cells []sgs.Cell) *sgs.Summary {
	s := &sgs.Summary{Dim: dim, Side: side, Cells: cells}
	s.Normalize()
	out := s.Cells[:0]
	for _, c := range s.Cells {
		if len(out) == 0 || out[len(out)-1].Coord != c.Coord {
			out = append(out, c)
		}
	}
	s.Cells = out
	return s
}

// randomSummary draws n cells in a box of the given extent around origin
// (int32 arithmetic, so an origin near the limits wraps some of them).
func randomSummary(rng *rand.Rand, dim, n int, origin [grid.MaxDim]int32, extent int32, side float64) *sgs.Summary {
	cells := make([]sgs.Cell, n)
	for i := range cells {
		c := grid.Coord{D: uint8(dim)}
		for d := 0; d < dim; d++ {
			c.C[d] = origin[d] + rng.Int31n(extent)
		}
		cells[i] = randomCell(rng, c)
	}
	return summaryOf(dim, side, cells)
}

func randomCell(rng *rand.Rand, c grid.Coord) sgs.Cell {
	cell := sgs.Cell{Coord: c, Population: 1 + uint32(rng.Intn(40)), Status: sgs.Status(rng.Intn(2))}
	if cell.Status == sgs.CoreCell {
		cell.Conns = fakeConns(c, rng.Intn(5))
	}
	return cell
}

// fakeConns returns n distinct sorted connection targets. Only their
// count enters the distance, so they need not be cells of the summary.
func fakeConns(c grid.Coord, n int) []grid.Coord {
	conns := make([]grid.Coord, n)
	for k := range conns {
		conns[k] = grid.Coord{D: c.D}
		conns[k].C[0] = int32(k)
	}
	return conns
}

// noisyCopy translates s by shift and perturbs it: some cells dropped,
// some features redrawn, a few cells added nearby.
func noisyCopy(rng *rand.Rand, s *sgs.Summary, shift [grid.MaxDim]int32, noise float64) *sgs.Summary {
	var cells []sgs.Cell
	for _, c := range s.Cells {
		if rng.Float64() < noise {
			continue
		}
		for d := 0; d < s.Dim; d++ {
			c.Coord.C[d] += shift[d]
		}
		if rng.Float64() < noise {
			c = randomCell(rng, c.Coord)
		}
		cells = append(cells, c)
		if rng.Float64() < noise {
			n := c.Coord
			n.C[rng.Intn(s.Dim)] += int32(rng.Intn(3) - 1)
			cells = append(cells, randomCell(rng, n))
		}
	}
	if len(cells) == 0 {
		cells = append(cells, randomCell(rng, s.Cells[0].Coord))
	}
	return summaryOf(s.Dim, s.Side, cells)
}

// TestRefineMatchesOracle: on a generated corpus — dims 1–8, negative
// coordinates, single-cell summaries, translated noisy copies, pairs
// translated far apart, coordinates near the int32 limits where Coord.Add
// wraps, budgets 1–80, thresholds including 0 and 1, both weight modes —
// the rebuilt kernel agrees with the oracle on every pair.
func TestRefineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ps := EqualWeights()
	ps.PositionSensitive = true
	checks, hits, pruned := 0, 0, 0
	for trial := 0; trial < 2500; trial++ {
		dim := 1 + rng.Intn(grid.MaxDim)
		side := 0.1 + rng.Float64()*2
		var origin, shift [grid.MaxDim]int32
		for d := 0; d < dim; d++ {
			origin[d] = int32(rng.Intn(41) - 20)
		}
		extent := int32(2 + rng.Intn(7))
		n := 1 + rng.Intn(60)
		switch trial % 5 {
		case 1: // single cell
			n = 1
		case 2: // near the int32 limits: translation wraps
			for d := 0; d < dim; d++ {
				origin[d] = []int32{math.MaxInt32 - 3, math.MinInt32, math.MaxInt32 - extent}[rng.Intn(3)]
			}
		}
		a := randomSummary(rng, dim, n, origin, extent, side)
		var b *sgs.Summary
		switch rng.Intn(4) {
		case 0: // unrelated summary nearby
			b = randomSummary(rng, dim, 1+rng.Intn(60), origin, extent, side)
		case 1: // noisy copy a few cells away
			for d := 0; d < dim; d++ {
				shift[d] = int32(rng.Intn(9) - 4)
			}
			b = noisyCopy(rng, a, shift, 0.15)
		case 2: // noisy copy far away
			for d := 0; d < dim; d++ {
				shift[d] = int32(rng.Intn(200001) - 100000)
			}
			b = noisyCopy(rng, a, shift, 0.1)
		default: // exact copy, cell-aligned translation
			for d := 0; d < dim; d++ {
				shift[d] = int32(rng.Intn(61) - 30)
			}
			b = noisyCopy(rng, a, shift, 0)
		}
		if rng.Intn(8) == 0 {
			b.Side = side * (0.5 + rng.Float64()) // another resolution
		}
		budget := 1 + rng.Intn(80)
		for _, threshold := range []float64{0, 1, rng.Float64(), rng.Float64() * 0.3} {
			checkAgainstOracle(t, a, b, ps, budget, threshold)
			checkAgainstOracle(t, b, a, ps, budget, threshold)
			for _, p := range [][2]*sgs.Summary{{a, b}, {b, a}} {
				checks++
				within, dismissed := checkAgainstOracle(t, p[0], p[1], EqualWeights(), budget, threshold)
				if within && threshold < 1 {
					hits++
				}
				if dismissed {
					pruned++
				}
			}
		}
	}
	// The corpus must exercise both outcomes below threshold 1 — pairs a
	// bound dismisses and pairs that survive it into a hit — or the test
	// proves nothing about pruning.
	if pruned == 0 || hits == 0 {
		t.Fatalf("%d position-insensitive checks: %d pruned, %d hits below threshold 1", checks, pruned, hits)
	}
	t.Logf("%d position-insensitive checks: %d pruned, %d hits below threshold 1", checks, pruned, hits)
}

// TestRefineDegenerateInputs: empty summaries and summaries of different
// dimensionality have no coincident cell at any alignment.
func TestRefineDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var origin [grid.MaxDim]int32
	empty := &sgs.Summary{Dim: 2, Side: 1}
	s2 := randomSummary(rng, 2, 10, origin, 4, 1)
	s1 := randomSummary(rng, 1, 10, origin, 8, 1)
	ps := EqualWeights()
	ps.PositionSensitive = true
	for _, w := range []Weights{EqualWeights(), ps} {
		if d, in := Refine(empty, empty, w, 8, 0); d != 0 || !in {
			t.Errorf("empty-empty = %v, %v", d, in)
		}
		if d, in := Refine(s2, empty, w, 8, 0.99); d != 1 || in {
			t.Errorf("nonempty-empty = %v, %v", d, in)
		}
		if d, in := Refine(empty, s2, w, 8, 1); d != 1 || !in {
			t.Errorf("empty-nonempty = %v, %v", d, in)
		}
		for _, p := range [][2]*sgs.Summary{{s1, s2}, {s2, s1}} {
			if d, in := Refine(p[0], p[1], w, 8, 0.5); d != 1 || in {
				t.Errorf("dims %d vs %d = %v, %v", p[0].Dim, p[1].Dim, d, in)
			}
		}
	}
}

// votedMinimum is the brute-force minimum of the oracle's cell distance
// over every alignment at least one cell pair votes for, with M*, the
// most votes any of them gets. Alignments are int32 differences, so a
// pair straddling the int32 edge is covered like any other.
func votedMinimum(a, b *sgs.Summary) (minDist float64, mStar int) {
	votes := map[grid.Coord]int{}
	for i := range a.Cells {
		for j := range b.Cells {
			v := grid.Coord{D: uint8(a.Dim)}
			for d := 0; d < a.Dim; d++ {
				v.C[d] = b.Cells[j].Coord.C[d] - a.Cells[i].Coord.C[d]
			}
			votes[v]++
		}
	}
	minDist = math.Inf(1)
	for v, n := range votes {
		minDist = min(minDist, oracleCellDistance(a, b, v))
		mStar = max(mStar, n)
	}
	return minDist, mStar
}

// coincident is M* as Refine's vote table finds it at the default budget,
// or -1 where Refine builds no table for the pair.
func coincident(a, b *sgs.Summary) int {
	alo, ahi := extent(a)
	blo, bhi := extent(b)
	return new(scratch).maxCoincident(a, b, &alo, &ahi, &blo, &bhi, DefaultAlignBudget)
}

// reachesScan reports whether Refine, at threshold, gets past the M* vote
// bound of a position-insensitive pair into the voted-alignment scan.
func reachesScan(a, b *sgs.Summary, threshold float64) bool {
	m := coincident(a, b)
	return m >= 0 && distanceFloor(len(a.Cells), len(b.Cells), m) <= threshold
}

// TestRefineVotedScan: on a generated corpus of small pairs the vote table
// covers — noisy and recolored copies, unrelated neighbors, pairs
// straddling the int32 edge — at thresholds 0.1–0.6, Refine dismisses
// exactly the pairs no voted alignment brings within the threshold. Every
// pair whose brute-force voted minimum exceeds the threshold reports
// +Inf, including pairs the M* bound alone lets through; no pair whose
// minimum is within is dismissed, and a kept pair's distance is the
// unpruned search's bit for bit.
func TestRefineVotedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := EqualWeights()
	scanDismissed, kept, wrapped := 0, 0, 0
	for trial := 0; trial < 600; trial++ {
		dim := 1 + rng.Intn(3)
		extent := int32(3 + rng.Intn(6))
		var origin, shift [grid.MaxDim]int32
		edge := trial%4 == 3 // a just below MaxInt32, its copy wrapped past it
		for d := 0; d < dim; d++ {
			origin[d] = int32(rng.Intn(41) - 20)
			shift[d] = int32(rng.Intn(7) - 3)
			if edge {
				origin[d] = math.MaxInt32 - extent - int32(rng.Intn(4))
				shift[d] = extent + 5 + int32(rng.Intn(8))
			}
		}
		a := randomSummary(rng, dim, 8+rng.Intn(33), origin, extent, 1)
		var b *sgs.Summary
		switch rng.Intn(3) {
		case 0: // lightly perturbed copy
			b = noisyCopy(rng, a, shift, 0.1)
		case 1: // heavily perturbed copy: cells coincide, features differ
			b = noisyCopy(rng, a, shift, 0.5)
		default: // unrelated summary over the shifted box
			var bOrigin [grid.MaxDim]int32
			for d := 0; d < dim; d++ {
				bOrigin[d] = origin[d] + shift[d]
			}
			b = randomSummary(rng, dim, 8+rng.Intn(33), bOrigin, extent, 1)
		}
		if edge && b.Cells[0].Coord.C[0] < 0 {
			wrapped++
		}
		for _, p := range [][2]*sgs.Summary{{a, b}, {b, a}} {
			if coincident(p[0], p[1]) < 0 {
				continue // no vote table: the pair goes straight to the search
			}
			minDist, mStar := votedMinimum(p[0], p[1])
			unpruned := RefineDistance(p[0], p[1], w, DefaultAlignBudget)
			for k := 1; k <= 6; k++ {
				threshold := 0.1 * float64(k)
				dist, _ := Refine(p[0], p[1], w, DefaultAlignBudget, threshold)
				if minDist > threshold {
					if !math.IsInf(dist, 1) {
						t.Fatalf("trial %d: voted minimum %v > threshold %v, yet Refine searched (dist %v)",
							trial, minDist, threshold, dist)
					}
					if distanceFloor(len(p[0].Cells), len(p[1].Cells), mStar) <= threshold {
						scanDismissed++
					}
					continue
				}
				kept++
				if math.IsInf(dist, 1) {
					t.Fatalf("trial %d: voted minimum %v ≤ threshold %v, yet dismissed", trial, minDist, threshold)
				}
				if math.Float64bits(dist) != math.Float64bits(unpruned) {
					t.Fatalf("trial %d: kept pair's dist %v, unpruned search %v", trial, dist, unpruned)
				}
			}
		}
	}
	// Without pairs past the M* bound that the scan alone dismisses, an
	// implementation without the scan would pass too.
	if scanDismissed < 50 || kept == 0 || wrapped == 0 {
		t.Fatalf("corpus too weak: %d dismissed by the scan alone, %d kept, %d pairs across the int32 edge",
			scanDismissed, kept, wrapped)
	}
	t.Logf("%d dismissed by the scan alone, %d kept, %d pairs across the int32 edge", scanDismissed, kept, wrapped)
}

// fuzzPair decodes fuzz bytes into two summaries, a budget, a threshold
// and a weight mode. Layout: dim, budget, threshold (2 bytes), flags, then
// cells of 1 + dim bytes each (feature byte, signed coordinate bytes)
// dealt to a and b alternately. Flags bit 0 selects the metric, bit 1
// moves both summaries to the int32 edge, bit 2 makes each cell of b a
// fixed translate of the cell of a before it.
func fuzzPair(data []byte) (a, b *sgs.Summary, w Weights, budget int, threshold float64, ok bool) {
	if len(data) < 6 {
		return nil, nil, w, 0, 0, false
	}
	dim := 1 + int(data[0])%grid.MaxDim
	budget = 1 + int(data[1])%80
	threshold = float64(binary.LittleEndian.Uint16(data[2:4])) / 65535
	flags := data[4]
	w = EqualWeights()
	w.PositionSensitive = flags&1 != 0
	var base int32
	if flags&2 != 0 {
		base = math.MaxInt32 - 64
	}
	var cells [2][]sgs.Cell
	rest := data[5:]
	for k := 0; len(rest) >= 1+dim && k < 128; k++ {
		c := grid.Coord{D: uint8(dim)}
		for d := 0; d < dim; d++ {
			c.C[d] = base + int32(int8(rest[1+d]))
		}
		f := rest[0]
		cell := sgs.Cell{Coord: c, Population: 1 + uint32(f>>3), Status: sgs.Status(f & 1)}
		if cell.Status == sgs.CoreCell {
			cell.Conns = fakeConns(c, int(f>>1)&3)
		}
		side := k & 1
		if flags&4 != 0 && side == 1 {
			// b's cell is a's previous cell translated by a fixed offset.
			prev := cells[0][len(cells[0])-1]
			for d := 0; d < dim; d++ {
				prev.Coord.C[d] += 7 * int32(d+1)
			}
			cell.Coord = prev.Coord
		}
		cells[side] = append(cells[side], cell)
		rest = rest[1+dim:]
	}
	if len(cells[0]) == 0 || len(cells[1]) == 0 {
		return nil, nil, w, 0, 0, false
	}
	return summaryOf(dim, 0.75, cells[0]), summaryOf(dim, 0.75, cells[1]), w, budget, threshold, true
}

// checkProfileStage checks the profile stage on one pair. Where both
// summaries have a profile, the stage decides exactly the pairs
// maxCoincident votes on, each axis's bound is at least the vote's M*,
// and a pair the stage dismisses Refine dismisses too. End to end,
// RefinePairs over b archived in a memory-only base — with b's profile
// when it gets one, on the profile-free path when it does not — returns
// Refine's distance bits and counts the pair as Refine reports it.
func checkProfileStage(t testing.TB, a, b *sgs.Summary, w Weights, budget int, threshold float64) {
	t.Helper()
	pa, pb := sgs.NewProfile(a), sgs.NewProfile(b)
	if !w.PositionSensitive && pa != nil && pb != nil {
		alo, ahi := extent(a)
		blo, bhi := extent(b)
		if pa.Lo != alo || pa.Hi != ahi || pb.Lo != blo || pb.Hi != bhi {
			t.Fatalf("profile extents %v–%v, %v–%v; cells span %v–%v, %v–%v", pa.Lo, pa.Hi, pb.Lo, pb.Hi, alo, ahi, blo, bhi)
		}
		sc := new(scratch)
		mStar := sc.maxCoincident(a, b, &alo, &ahi, &blo, &bhi, budget)
		var stride [grid.MaxDim]int64
		size := voteSize(&pa.Lo, &pa.Hi, &pb.Lo, &pb.Hi, a.Dim, &stride)
		if votes := size != 0 && voteWorth(len(a.Cells), len(b.Cells), size, budget); votes != (mStar >= 0) {
			t.Fatalf("profile extents say vote = %v, maxCoincident returned %d", votes, mStar)
		}
		for d := 0; mStar >= 0 && d < a.Dim; d++ {
			if m := sc.axisBound(pa.Axis(d), pb.Axis(d)); m < mStar {
				t.Fatalf("axis %d bound %d < M* %d", d, m, mStar)
			}
		}
		if sc.profileBeyond(len(a.Cells), len(b.Cells), pa, pb, a.Dim, budget, threshold) {
			if mStar < 0 {
				t.Fatal("profile stage dismissed a pair the vote does not see")
			}
			if d, _ := Refine(a, b, w, budget, threshold); !math.IsInf(d, 1) {
				t.Fatalf("profile stage dismissed a pair Refine keeps at %v (threshold %v)", d, threshold)
			}
		}
	}
	base, err := archive.New(archive.Config{Dim: b.Dim})
	if err != nil {
		t.Fatal(err)
	}
	id, ok, err := base.Put(b)
	if err != nil || !ok {
		t.Fatalf("put: archived %v, %v", ok, err)
	}
	e := base.Get(id)
	if (archive.ProfileOf(e) == nil) != (pb == nil) {
		t.Fatalf("archived entry has profile %v, sgs.NewProfile gives %v", archive.ProfileOf(e), pb)
	}
	outs, rc, err := RefinePairs(1, 1, 0, func(int) Pair {
		return Pair{Target: a, TargetProfile: pa, Weights: w, Threshold: threshold, Entry: e}
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Refine(a, b, w, DefaultAlignBudget, threshold)
	if math.Float64bits(outs[0].Distance) != math.Float64bits(want) {
		t.Fatalf("RefinePairs %v, Refine %v (threshold %v)", outs[0].Distance, want, threshold)
	}
	pruned := 0
	if math.IsInf(want, 1) {
		pruned = 1
	}
	if rc.Pruned != pruned || (rc.ProfilePruned > 0 && (pa == nil || pb == nil)) {
		t.Fatalf("counts %+v for a pair Refine reports at %v (profiles %v, %v)", rc, want, pa != nil, pb != nil)
	}
}

// FuzzRefine: whatever two summaries, budget and threshold the bytes
// decode to, Refine agrees with the oracle (see checkAgainstOracle), and
// the profile stage agrees with the vote (see checkProfileStage). The
// seed corpus runs in every ordinary `go test`.
func FuzzRefine(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 5+rng.Intn(200))
		rng.Read(seed)
		seed[4] = byte(i) // every flag combination
		if i%3 == 0 {
			seed[2], seed[3] = 0, byte(rng.Intn(90)) // low threshold: bounds fire
		}
		f.Add(seed)
	}
	f.Add([]byte{1, 63, 0xff, 0xff, 0, 9, 0, 0, 9, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 4, 3, 5, 3, 5})
	// Budget 1, threshold 0: the vote is not worth its cost, so the
	// profile stage must keep the pair although its profiles rule it out.
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 1, 2, 5, 2, 2, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, w, budget, threshold, ok := fuzzPair(data)
		if !ok {
			return
		}
		checkAgainstOracle(t, a, b, w, budget, threshold)
		checkAgainstOracle(t, b, a, w, budget, threshold)
		checkProfileStage(t, a, b, w, budget, threshold)
		checkProfileStage(t, b, a, w, budget, threshold)
	})
}
