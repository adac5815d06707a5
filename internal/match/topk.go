package match

import (
	"math"
	"sync"
)

// kBound is the running top-k bound of one refine stage (see "Top-k
// bound" in the package comment): the k smallest distance upper bounds
// offered so far, at most one per pair, in a max-heap so the k-th
// smallest is at the root. It is safe for concurrent use.
type kBound struct {
	mu   sync.Mutex
	k    int
	heap []kEntry // max-heap on dist, at most k entries
	slot []int32  // slot[pair] is the pair's heap index + 1, 0 when it holds none
}

type kEntry struct {
	dist float64
	pair int32
}

func newKBound(k, pairs int) *kBound {
	return &kBound{k: k, heap: make([]kEntry, 0, k), slot: make([]int32, pairs)}
}

// offer records d as an upper bound on the distance of pair i, lowering
// the pair's entry if it holds one, and returns the k-th smallest bound
// over distinct pairs, or +Inf while fewer than k pairs hold one. At
// least k pairs therefore have a distance at or below the value returned.
func (b *kBound) offer(i int, d float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch at := int(b.slot[i]) - 1; {
	case at >= 0:
		if d < b.heap[at].dist {
			b.heap[at].dist = d
			b.down(at)
		}
	case len(b.heap) < b.k:
		b.heap = append(b.heap, kEntry{d, int32(i)})
		b.slot[i] = int32(len(b.heap))
		b.up(len(b.heap) - 1)
	case d < b.heap[0].dist:
		b.slot[b.heap[0].pair] = 0
		b.heap[0] = kEntry{d, int32(i)}
		b.slot[i] = 1
		b.down(0)
	}
	if len(b.heap) < b.k {
		return math.Inf(1)
	}
	return b.heap[0].dist
}

func (b *kBound) swap(i, j int) {
	h := b.heap
	h[i], h[j] = h[j], h[i]
	b.slot[h[i].pair], b.slot[h[j].pair] = int32(i+1), int32(j+1)
}

func (b *kBound) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !(b.heap[j].dist > b.heap[i].dist) {
			return
		}
		b.swap(i, j)
		j = i
	}
}

func (b *kBound) down(i int) {
	n := len(b.heap)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && b.heap[r].dist > b.heap[j].dist {
			j = r
		}
		if !(b.heap[j].dist > b.heap[i].dist) {
			return
		}
		b.swap(i, j)
		i = j
	}
}
