package window

// This file implements the object-"career" analysis of Observation 5.4:
// given the deterministic expiry windows of an object's neighbors, the
// windows in which the object will be a *core* object (>= θc live
// neighbors) and the windows in which it will be an *edge* object are
// computable at insertion time.
//
// The object is core in window m iff at least θc of its neighbors are still
// alive in m, i.e. iff the θc-th largest neighbor last-window is >= m.
// CoreTracker maintains exactly that order statistic incrementally: it is a
// bounded min-heap holding the θc largest neighbor last-windows seen so
// far. Adding a neighbor is O(log θc); reading the core career is O(1).
//
// Monotonicity makes this sound under streaming arrivals: neighbors are
// only ever *added* (expiries are pre-accounted by using last-windows), so
// the θc-th largest value — and therefore the predicted core career — only
// ever grows. This is the mechanism behind the paper's "status prolong"
// case (§5.4, Figure 6).

// CoreTracker incrementally tracks the core career of one object.
// The zero value is unusable; use NewCoreTracker.
type CoreTracker struct {
	k    int     // θc
	heap []int64 // min-heap of the k largest neighbor last-windows
}

// NewCoreTracker returns a tracker for count threshold thetaC (>= 1).
func NewCoreTracker(thetaC int) CoreTracker {
	return NewCoreTrackerIn(thetaC, make([]int64, max(thetaC, 1)))
}

// NewCoreTrackerIn returns a tracker for count threshold thetaC (>= 1)
// that keeps its heap in buf, which must hold at least thetaC values. The
// tracker never writes past buf[thetaC-1], so one allocation can back the
// trackers of many objects, each on its own thetaC-wide sub-slice.
func NewCoreTrackerIn(thetaC int, buf []int64) CoreTracker {
	thetaC = max(thetaC, 1)
	return CoreTracker{k: thetaC, heap: buf[:0:thetaC]}
}

// Add records a neighbor whose last participating window is last.
// It returns true if the tracked core career grew (the caller must then
// propagate the prolong to cell status and connections).
func (t *CoreTracker) Add(last int64) bool {
	h := t.heap
	if len(h) < t.k {
		h = append(h, last)
		// Sift up.
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		t.heap = h
		return len(h) == t.k // career first becomes defined
	}
	if last <= h[0] {
		return false // not among the k largest; career unchanged
	}
	// Replace the minimum and sift down.
	h[0] = last
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return true
}

// KthLast returns the θc-th largest neighbor last-window recorded so far,
// or Never if fewer than θc neighbors exist.
func (t *CoreTracker) KthLast() int64 {
	if len(t.heap) < t.k {
		return Never
	}
	return t.heap[0]
}

// CoreLast returns the last window in which the object is a core object,
// given the object's own last window (Observation 5.4): the minimum of the
// object's own expiry and the θc-th largest neighbor expiry, or Never if it
// never attains θc neighbors.
func (t *CoreTracker) CoreLast(ownLast int64) int64 {
	k := t.KthLast()
	if k == Never {
		return Never
	}
	if ownLast < k {
		return ownLast
	}
	return k
}

// CoreLast is the batch (non-incremental) form of CoreTracker: it returns
// the last core window of an object with expiry ownLast whose neighbors
// expire at neighborLasts, under count threshold thetaC. It is used by
// tests as an oracle against the incremental tracker.
func CoreLast(ownLast int64, neighborLasts []int64, thetaC int) int64 {
	t := NewCoreTracker(thetaC)
	for _, l := range neighborLasts {
		t.Add(l)
	}
	return t.CoreLast(ownLast)
}

// EdgeLast returns the last window in which an object can be an edge object
// (Observation 5.4): it must itself be alive and have at least one neighbor
// that is still core. neighborCoreLasts holds the core careers of its
// neighbors. Windows in (coreLast, edgeLast] are the edge career.
func EdgeLast(ownLast int64, neighborCoreLasts []int64) int64 {
	best := Never
	for _, l := range neighborCoreLasts {
		if l > best {
			best = l
		}
	}
	if best == Never {
		return Never
	}
	if ownLast < best {
		return ownLast
	}
	return best
}
