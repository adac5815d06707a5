package match

import (
	"math"
	"sync"

	"streamsum/internal/grid"
	"streamsum/internal/sgs"
)

// This file implements the refine phase: the grid-cell-level cluster match
// of §7.2. Two summaries are compared cell by cell under an alignment — a
// location-shifting vector in cell units. A skeletal grid cell of the
// target either has a corresponding cell in the candidate (their features
// are compared) or it does not (maximum difference 1, "its corresponding
// sub-region ... can be viewed as an empty grid"). See the package comment
// for the pruning stages and why they never change a result.

// vec is a cell coordinate or an alignment in cell units; components past
// the pair's dimensionality stay zero.
type vec = [grid.MaxDim]int32

// Refine is the grid-cell-level match of one (target, candidate) pair: it
// reports the pair's distance and whether that distance is within
// threshold. Under a position-sensitive metric the distance is taken at
// the identity alignment; otherwise it is the best one the anytime search
// finds in budget evaluations. Before searching, a position-insensitive
// pair at a threshold below 1 is tested against an exact lower bound on
// the distance at every alignment, then, if it passes, against the exact
// distances of the alignments enough cell pairs vote for; a pair either
// test dismisses reports dist = +Inf (no search ran) and within = false.
// A pair that is not dismissed gets exactly the unpruned search's
// distance.
//
// Summaries must be normalized (sgs.Summary.Normalize) and their cells'
// coordinates must carry the summary's dimensionality. Refine is safe for
// concurrent use and allocates nothing once its pooled scratch is warm.
func Refine(target, cand *sgs.Summary, w Weights, budget int, threshold float64) (dist float64, within bool) {
	sc := scratchPool.Get().(*scratch)
	dist, _ = sc.refineBounded(target, cand, nil, nil, w, budget, threshold, nil, 0)
	scratchPool.Put(sc)
	return dist, dist <= threshold
}

// refineBounded is Refine under an optional running top-k bound kb, to
// which the pair offers its distance bounds as pair number pair. A
// position-insensitive pair that Refine's exact stages keep, but that
// they show farther than the bound's τ < threshold, is skipped: it
// reports dist = +Inf and skipped = true, and no search runs. With kb nil
// it is exactly Refine. The profiles tp and cp, when both are non-nil,
// must be target's and cand's (sgs.NewProfile); they save the walk over
// the cells for the pair's extents and change nothing else.
func (sc *scratch) refineBounded(target, cand *sgs.Summary, tp, cp *sgs.Profile, w Weights, budget int, threshold float64, kb *kBound, pair int) (dist float64, skipped bool) {
	na, nb := len(target.Cells), len(cand.Cells)
	switch {
	case na == 0 && nb == 0:
		return 0, false
	case na == 0 || nb == 0 || target.Dim != cand.Dim:
		return 1, false // no cell can coincide at any alignment
	case w.PositionSensitive:
		var identity vec
		return cellDistance(target, cand, &identity), false
	}
	return sc.refine(target, cand, tp, cp, budget, threshold, kb, pair)
}

// RefineDistance is the exact, unpruned grid-cell-level distance of a
// pair: Refine at threshold 1, where no bound can dismiss anything.
func RefineDistance(target, cand *sgs.Summary, w Weights, budget int) float64 {
	d, _ := Refine(target, cand, w, budget, 1)
	return d
}

// cellDistance returns the grid-cell-level distance between summaries a
// and b under the given alignment: the mean, over the union of (aligned)
// occupied cells, of the per-cell difference; per-cell differences average
// the status, density and connectivity features. The result is in [0,1].
//
// Both cell lists are sorted and translation preserves the order, so one
// merge pass finds every coincident cell. Where a translated coordinate
// wraps around int32 the order breaks; the pass then rescans b from its
// start for that cell, which keeps the lookup exact. Terms are added in
// a's cell order, so the float result does not depend on how the
// counterpart was found.
func cellDistance(a, b *sgs.Summary, align *vec) float64 {
	na, nb := len(a.Cells), len(b.Cells)
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	dim := a.Dim
	matched, j := 0, 0
	var sum float64
	for i := range a.Cells {
		ca := &a.Cells[i]
		var t vec
		for d := 0; d < dim; d++ {
			t[d] = ca.Coord.C[d] + align[d]
		}
		if j > 0 && cmpVec(&b.Cells[j-1].Coord.C, &t, dim) >= 0 {
			j = 0 // t wrapped below the cells already passed
		}
		c := -1
		for ; j < nb; j++ {
			if c = cmpVec(&b.Cells[j].Coord.C, &t, dim); c >= 0 {
				break
			}
		}
		if j < nb && c == 0 {
			matched++
			sum += cellDiff(ca, &b.Cells[j])
		} else {
			sum += 1
		}
	}
	// Cells of b with no counterpart in a.
	sum += float64(nb - matched)
	return sum / float64(na+nb-matched)
}

// cmpVec orders two coordinates like sgs.CoordLess: -1, 0 or +1.
func cmpVec(x, y *vec, dim int) int {
	for d := 0; d < dim; d++ {
		if x[d] != y[d] {
			if x[d] < y[d] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// cellDiff compares the three cell-level features with equal weight.
func cellDiff(a, b *sgs.Cell) float64 {
	var status float64
	if a.Status != b.Status {
		status = 1
	}
	density := relDist(float64(a.Population), float64(b.Population))
	conn := relDist(float64(len(a.Conns)), float64(len(b.Conns)))
	return (status + density + conn) / 3
}

// distanceFloor is the smallest distance any alignment of an na-cell and
// an nb-cell summary can reach while bringing at most m cells into
// coincidence: the unmatched cells alone contribute na+nb−2m to the sum
// over a union of na+nb−m. It is computed with the same float division as
// cellDistance so the two compare exactly (see the package comment).
func distanceFloor(na, nb, m int) float64 {
	return float64(na+nb-2*m) / float64(na+nb-m)
}

// alignItem is a priority-queue entry of the anytime search: an evaluated
// alignment (by its index in scratch.aligns) and its distance.
type alignItem struct {
	dist float64
	idx  int32
}

// slot is one cell of the open-addressed visited set; it is occupied iff
// its epoch is the current search's.
type slot struct {
	epoch uint32
	idx   int32
}

// scratch is the reusable working memory of one refine call.
type scratch struct {
	dim    int         // dimensionality of the current search's alignments
	aligns []vec       // alignments evaluated by the current search, in order
	heap   []alignItem // binary min-heap on dist
	slots  []slot      // visited set over aligns; len is a power of two
	epoch  uint32

	votes  []uint32           // dense table over cell-pair difference vectors
	stride [grid.MaxDim]int64 // each axis's step in the table's index
	ia, ib []int32            // each cell's share of its pairs' table index
	mStar  int                // the current pair's M*: -1 if not voted, unvoted until maxCoincident runs
}

// unvoted marks a pair whose vote table maxCoincident has not yet tried
// to fill.
const unvoted = -2

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxVoteTable caps the dense vote table (entries). It also keeps every
// axis extent far below 2^32, so difference vectors that only coincide
// through int32 wrap-around can never land in different entries.
const maxVoteTable = 1 << 16

// refine is the position-insensitive case of refineBounded for two
// non-empty summaries of one dimensionality.
func (sc *scratch) refine(a, b *sgs.Summary, ap, bp *sgs.Profile, budget int, threshold float64, kb *kBound, pair int) (float64, bool) {
	var alo, ahi, blo, bhi vec
	if ap != nil && bp != nil {
		alo, ahi, blo, bhi = ap.Lo, ap.Hi, bp.Lo, bp.Hi
	} else {
		alo, ahi = extent(a)
		blo, bhi = extent(b)
	}
	sc.mStar = unvoted
	if threshold < 1 && sc.beyond(a, b, &alo, &ahi, &blo, &bhi, budget, threshold) {
		return math.Inf(1), false
	}
	start := centerAlign(a, b, &alo, &ahi, &blo, &bhi)
	u := cellDistance(a, b, &start) // the search starts here, so it ends at or below u
	if kb != nil {
		if tau := min(threshold, kb.offer(pair, u)); tau < threshold && sc.beyond(a, b, &alo, &ahi, &blo, &bhi, budget, tau) {
			return math.Inf(1), true
		}
	}
	dist, _ := sc.bestAlignment(a, b, start, u, budget)
	if kb != nil {
		kb.offer(pair, dist)
	}
	return dist, false
}

// beyond reports whether the exact stages prove every alignment of a and
// b farther than t < 1: the size floor (no translation matches more cells
// than the smaller summary has), then M* and the voted scan. The vote
// table is filled on the pair's first call and reused by later ones.
func (sc *scratch) beyond(a, b *sgs.Summary, alo, ahi, blo, bhi *vec, budget int, t float64) bool {
	na, nb := len(a.Cells), len(b.Cells)
	if distanceFloor(na, nb, min(na, nb)) > t {
		return true
	}
	if sc.mStar == unvoted {
		sc.mStar = sc.maxCoincident(a, b, alo, ahi, blo, bhi, budget)
	}
	m := sc.mStar
	return m >= 0 && (distanceFloor(na, nb, m) > t ||
		!sc.votedWithin(a, b, ahi, blo, m, minCoincident(na, nb, m, t), t))
}

// centerAlign computes the starting alignment: the cell-unit offset that
// best overlaps the two summaries' MBR centers ("we start with an
// alignment that makes two clusters well overlapped").
func centerAlign(a, b *sgs.Summary, alo, ahi, blo, bhi *vec) (off vec) {
	for d := 0; d < a.Dim; d++ {
		ca := mbrCenter(alo[d], ahi[d], a.Side)
		cb := mbrCenter(blo[d], bhi[d], b.Side)
		off[d] = int32(math.Round((cb - ca) / a.Side))
	}
	return off
}

// mbrCenter is Summary.MBR().Center() along one axis, from the axis's
// extreme cell coordinates. The conversions pin each product's rounding to
// what MBR computes cell by cell (no fused multiply-add).
func mbrCenter(lo, hi int32, side float64) float64 {
	return (float64(float64(lo)*side) + (float64(float64(hi)*side) + side)) / 2
}

// extent returns the per-axis minimum and maximum cell coordinate of a
// non-empty summary.
func extent(s *sgs.Summary) (lo, hi vec) {
	lo, hi = s.Cells[0].Coord.C, s.Cells[0].Coord.C
	for i := 1; i < len(s.Cells); i++ {
		c := &s.Cells[i].Coord.C
		for d := 0; d < s.Dim; d++ {
			lo[d] = min(lo[d], c[d])
			hi[d] = max(hi[d], c[d])
		}
	}
	return lo, hi
}

// voteSize returns the number of entries of the dense vote table over the
// cell-pair difference vectors of a pair with the given extents, or 0 when
// it would exceed maxVoteTable, and stores each axis's step in the table's
// index in stride.
func voteSize(alo, ahi, blo, bhi *vec, dim int, stride *[grid.MaxDim]int64) int64 {
	size := int64(1)
	for d := dim - 1; d >= 0; d-- {
		stride[d] = size
		size *= int64(ahi[d]) - int64(alo[d]) + int64(bhi[d]) - int64(blo[d]) + 1
		if size > maxVoteTable {
			return 0
		}
	}
	return size
}

// voteWorth reports whether the |a|·|b| votes of an na-cell and an nb-cell
// summary, plus clearing a table of size entries (about eight entries per
// vote's cost), cost less than the budget·(|a|+|b|) cell visits of the
// search they might save.
func voteWorth(na, nb int, size int64, budget int) bool {
	return (int64(na)*int64(nb)+size/8)/int64(na+nb) < int64(budget)
}

// maxCoincident returns M*, the largest number of cells of a that one
// translation brings into coincidence with cells of b: every cell pair
// votes for its difference vector in a dense table spanning the possible
// differences, and M* is the fullest entry. It returns -1 without voting
// when the table would exceed maxVoteTable or the votes are not worth
// their cost (voteWorth).
func (sc *scratch) maxCoincident(a, b *sgs.Summary, alo, ahi, blo, bhi *vec, budget int) int {
	na, nb := len(a.Cells), len(b.Cells)
	stride := &sc.stride
	dim := a.Dim
	size := voteSize(alo, ahi, blo, bhi, dim, stride)
	if size == 0 || !voteWorth(na, nb, size, budget) {
		return -1
	}
	// The pair (i, j) differs by b[j]−a[i], whose table index splits into
	// a share of a[i] (measured down from a's maximum) and one of b[j]
	// (measured up from b's minimum), both non-negative.
	sc.ia, sc.ib = sc.ia[:0], sc.ib[:0]
	for i := range a.Cells {
		var ix int64
		for d := 0; d < dim; d++ {
			ix += (int64(ahi[d]) - int64(a.Cells[i].Coord.C[d])) * stride[d]
		}
		sc.ia = append(sc.ia, int32(ix))
	}
	for j := range b.Cells {
		var ix int64
		for d := 0; d < dim; d++ {
			ix += (int64(b.Cells[j].Coord.C[d]) - int64(blo[d])) * stride[d]
		}
		sc.ib = append(sc.ib, int32(ix))
	}
	if int64(cap(sc.votes)) < size {
		sc.votes = make([]uint32, size)
	}
	votes := sc.votes[:size]
	sc.votes = votes
	clear(votes)
	var best uint32
	for _, x := range sc.ia {
		row := votes[x:]
		for _, y := range sc.ib {
			row[y]++
			best = max(best, row[y])
		}
	}
	return int(best)
}

// minCoincident returns the fewest coincident cells, at most mStar, with
// which an alignment of an na-cell and an nb-cell summary can come within
// threshold: the smallest m with distanceFloor(na, nb, m) ≤ threshold,
// which the caller has checked holds at mStar. The floor falls as m grows.
func minCoincident(na, nb, mStar int, threshold float64) int {
	lo, hi := 1, mStar
	for lo < hi {
		if mid := (lo + hi) / 2; distanceFloor(na, nb, mid) <= threshold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi
}

// profileBeyond reports whether the cell-count profiles pa and pb of an
// na-cell and an nb-cell summary of dimensionality dim prove every
// alignment of the pair farther than t. It decides only pairs that
// maxCoincident would vote on — the same voteSize and voteWorth tests, on
// the extents the profiles carry — and reports false for every other
// pair, which then meets the kernel exactly as before. On each axis it
// bounds M* by axisBound; the pair is dismissed when one axis's bound m
// has distanceFloor(na, nb, m) > t. Since M* ≤ m and the floor falls as
// m grows, the vote would dismiss the pair too (package comment, "Stage
// zero"). The shift tables reuse the vote table's memory.
func (sc *scratch) profileBeyond(na, nb int, pa, pb *sgs.Profile, dim, budget int, t float64) bool {
	var stride [grid.MaxDim]int64
	size := voteSize(&pa.Lo, &pa.Hi, &pb.Lo, &pb.Hi, dim, &stride)
	if size == 0 || !voteWorth(na, nb, size, budget) {
		return false
	}
	for d := 0; d < dim; d++ {
		if distanceFloor(na, nb, sc.axisBound(pa.Axis(d), pb.Axis(d))) > t {
			return true
		}
	}
	return false
}

// axisBound bounds M* from one axis's profiles: ca[k] cells of a and
// cb[k] cells of b lie at the k-th coordinate of their extents, and a
// translation moving a's coordinate k onto b's k+s can make at most
// min(ca[k], cb[k+s]) of them coincide there. It returns the largest
// Σ_k min(ca[k], cb[k+s]) over all shifts s.
func (sc *scratch) axisBound(ca, cb []uint32) int {
	size := len(ca) + len(cb) - 1
	if cap(sc.votes) < size {
		sc.votes = make([]uint32, size)
	}
	shifts := sc.votes[:size]
	clear(shifts)
	var best uint32
	for i, x := range ca {
		if x == 0 {
			continue
		}
		row := shifts[len(ca)-1-i:] // row[j] sums the shift j−i
		for j, y := range cb {
			row[j] += min(x, y)
			best = max(best, row[j])
		}
	}
	return int(best)
}

// votedWithin reports whether some alignment holding at least mMin votes
// in the table maxCoincident has just filled for (a, b) has cellDistance
// within threshold. The alignments holding all mStar votes go first: they
// are the likeliest to be within, so a pair that is kept usually costs
// one evaluation.
func (sc *scratch) votedWithin(a, b *sgs.Summary, ahi, blo *vec, mStar, mMin int, threshold float64) bool {
	return sc.scanVotes(a, b, ahi, blo, mStar, mStar, threshold) ||
		mMin < mStar && sc.scanVotes(a, b, ahi, blo, mMin, mStar-1, threshold)
}

// scanVotes reports whether some alignment holding lo to hi votes has
// cellDistance within threshold, stopping at the first. An entry's index
// splits, by the table's strides, into one digit per axis, the difference
// b[j]−a[i] shifted up by ahi−blo; undoing that shift in int32 arithmetic
// yields the alignment itself, or, where the shift wrapped, an alignment
// congruent to it mod 2^32, which cellDistance's int32 translation maps
// onto the very same cells.
func (sc *scratch) scanVotes(a, b *sgs.Summary, ahi, blo *vec, lo, hi int, threshold float64) bool {
	for ix, n := range sc.votes {
		if int(n) < lo || int(n) > hi {
			continue
		}
		var v vec
		rest := int64(ix)
		for d := 0; d < a.Dim; d++ {
			digit := rest / sc.stride[d]
			rest -= digit * sc.stride[d]
			v[d] = int32(digit) - (ahi[d] - blo[d])
		}
		if cellDistance(a, b, &v) <= threshold {
			return true
		}
	}
	return false
}

// bestAlignment runs the A*-style anytime search of §7.2 for the alignment
// minimizing cellDistance(a, b, align): starting from start, whose
// distance startDist the caller has evaluated, it repeatedly
// expands the most promising alignment's 2·dim axis neighbors, stopping
// after budget distance evaluations. It returns the best distance found
// and its alignment. Exhaustive optimality is not guaranteed — by design:
// the paper trades optimality for bounded online latency. Every alignment
// is evaluated in full: the expansion order depends on the exact
// distances, so none can be abandoned early without changing the result.
func (sc *scratch) bestAlignment(a, b *sgs.Summary, start vec, startDist float64, budget int) (float64, vec) {
	sc.dim = a.Dim
	sc.aligns, sc.heap = sc.aligns[:0], sc.heap[:0]
	if sc.epoch++; sc.epoch == 0 {
		clear(sc.slots) // epoch wrapped: stale stamps could look current
		sc.epoch = 1
	}
	sc.visit(&start)
	best := alignItem{dist: startDist}
	sc.push(best)
	for evals := 1; len(sc.heap) > 0 && evals < budget; {
		cur := sc.aligns[sc.pop().idx]
		// Expand axis neighbors (the "nearby" alignments of §7.2).
	expand:
		for d := 0; d < sc.dim; d++ {
			for _, delta := range [2]int32{-1, 1} {
				nb := cur
				nb[d] += delta
				if sc.visit(&nb) {
					continue
				}
				it := alignItem{dist: cellDistance(a, b, &nb), idx: int32(len(sc.aligns) - 1)}
				evals++
				if it.dist < best.dist {
					best = it
				}
				sc.push(it)
				if evals >= budget {
					break expand
				}
			}
		}
	}
	return best.dist, sc.aligns[best.idx]
}

// visit adds v to the visited set, appending it to sc.aligns, and reports
// whether it was there already.
func (sc *scratch) visit(v *vec) bool {
	if 2*(len(sc.aligns)+1) > len(sc.slots) {
		sc.slots = make([]slot, max(64, 2*len(sc.slots)))
		for i := range sc.aligns {
			sc.slots[sc.probe(&sc.aligns[i])] = slot{sc.epoch, int32(i)}
		}
	}
	h := sc.probe(v)
	if sc.slots[h].epoch == sc.epoch {
		return true
	}
	sc.slots[h] = slot{sc.epoch, int32(len(sc.aligns))}
	sc.aligns = append(sc.aligns, *v)
	return false
}

// probe returns the slot holding v, or the free slot where it belongs.
func (sc *scratch) probe(v *vec) uint32 {
	mask := uint32(len(sc.slots) - 1)
	var h uint32
	for d := 0; d < sc.dim; d++ {
		h = (h ^ uint32(v[d])) * 0x9E3779B1
	}
	for h = (h ^ h>>15) & mask; ; h = (h + 1) & mask {
		if s := sc.slots[h]; s.epoch != sc.epoch || sc.aligns[s.idx] == *v {
			return h
		}
	}
}

// push and pop are container/heap's Push and Pop on sc.heap, step for
// step: alignments of equal distance must leave the heap in the order the
// boxed heap released them, or the search would expand different ones.
func (sc *scratch) push(it alignItem) {
	h := append(sc.heap, it)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	sc.heap = h
}

func (sc *scratch) pop() alignItem {
	h := sc.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].dist < h[j].dist {
			j = r
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	sc.heap = h[:n]
	return h[n]
}
