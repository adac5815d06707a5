// Package rtree implements a classic Guttman R-tree with quadratic split,
// the locational feature index of the Pattern Base (§7.1): archived
// clusters are indexed by the minimum bounding rectangles of their SGS so
// that position-sensitive matching queries can retrieve overlap candidates
// without scanning the archive.
//
// Read-only traversal contract: a Tree is not internally synchronized,
// but SearchIntersect never mutates any node, so any number of
// goroutines may search one tree concurrently provided no Insert or
// Delete runs during the searches. internal/archive relies on exactly
// this: it publishes trees only inside frozen, immutable generations and
// mutates them never — writers build a replacement tree instead.
package rtree

import (
	"fmt"

	"streamsum/internal/geom"
)

// Default node capacity; m = M/2 entries minimum per non-root node.
const (
	defaultMax = 16
)

// Item is an indexed entry: an id with its bounding rectangle.
type Item struct {
	ID  int64
	Box geom.MBR
}

type node struct {
	leaf     bool
	box      geom.MBR
	items    []Item  // leaf payload
	children []*node // internal children
}

// Tree is an R-tree over int64 ids. The zero value is not usable; call New.
type Tree struct {
	dim  int
	max  int
	min  int
	root *node
	size int
}

// New returns an empty R-tree for the given dimensionality.
func New(dim int) *Tree {
	return &Tree{
		dim:  dim,
		max:  defaultMax,
		min:  defaultMax / 2,
		root: &node{leaf: true},
	}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Insert adds an item. Inserting an empty box is an error.
func (t *Tree) Insert(id int64, box geom.MBR) error {
	if box.IsEmpty() {
		return fmt.Errorf("rtree: cannot insert empty MBR")
	}
	if box.Dim() != t.dim {
		return fmt.Errorf("rtree: MBR dimension %d != tree dimension %d", box.Dim(), t.dim)
	}
	it := Item{ID: id, Box: box.Clone()}
	leaf := t.chooseLeaf(t.root, it.Box)
	leaf.items = append(leaf.items, it)
	leaf.box.Extend(it.Box)
	t.size++
	t.splitUpward(leaf)
	return nil
}

// parentOf finds the parent of target (nil for root). The tree is shallow
// (fan-out 16), so the walk is cheap and avoids parent pointers.
func (t *Tree) parentOf(cur, target *node) *node {
	for _, c := range cur.children {
		if c == target {
			return cur
		}
		if !c.leaf {
			if p := t.parentOf(c, target); p != nil {
				return p
			}
		}
	}
	return nil
}

// splitUpward splits the node if overfull and propagates upward.
func (t *Tree) splitUpward(n *node) {
	for n != nil && t.overfull(n) {
		parent := t.parentOf(t.root, n)
		a, b := t.split(n)
		if parent == nil {
			// Grew a new root.
			t.root = &node{children: []*node{a, b}}
			t.root.box = a.box.Union(b.box)
			return
		}
		// Replace n with a, add b.
		for i, c := range parent.children {
			if c == n {
				parent.children[i] = a
				break
			}
		}
		parent.children = append(parent.children, b)
		recomputeBox(parent)
		n = parent
	}
}

func (t *Tree) overfull(n *node) bool {
	if n.leaf {
		return len(n.items) > t.max
	}
	return len(n.children) > t.max
}

func (t *Tree) chooseLeaf(n *node, box geom.MBR) *node {
	for !n.leaf {
		var best *node
		bestEnl, bestVol := 0.0, 0.0
		for _, c := range n.children {
			enl := c.box.Enlargement(box)
			vol := c.box.Volume()
			if best == nil || enl < bestEnl || (enl == bestEnl && vol < bestVol) {
				best, bestEnl, bestVol = c, enl, vol
			}
		}
		n.box.Extend(box)
		n = best
	}
	return n
}

// split performs Guttman's quadratic split on an overfull node.
func (t *Tree) split(n *node) (*node, *node) {
	boxes := n.entryBoxes()
	s1, s2 := quadraticSeeds(boxes)
	g1, g2 := []int{s1}, []int{s2}
	b1, b2 := boxes[s1].Clone(), boxes[s2].Clone()
	remaining := make([]int, 0, len(boxes))
	for i := range boxes {
		if i != s1 && i != s2 {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		// If one group must take all remaining to reach the minimum, do so.
		if len(g1)+len(remaining) <= t.min {
			g1 = append(g1, remaining...)
			for _, i := range remaining {
				b1.Extend(boxes[i])
			}
			break
		}
		if len(g2)+len(remaining) <= t.min {
			g2 = append(g2, remaining...)
			for _, i := range remaining {
				b2.Extend(boxes[i])
			}
			break
		}
		// Pick the entry with the greatest preference for one group.
		bestIdx, bestDiff, into1 := -1, -1.0, true
		for k, i := range remaining {
			d1 := b1.Enlargement(boxes[i])
			d2 := b2.Enlargement(boxes[i])
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx, into1 = diff, k, d1 < d2
			}
		}
		i := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		if into1 {
			g1 = append(g1, i)
			b1.Extend(boxes[i])
		} else {
			g2 = append(g2, i)
			b2.Extend(boxes[i])
		}
	}
	a := &node{leaf: n.leaf, box: b1}
	b := &node{leaf: n.leaf, box: b2}
	if n.leaf {
		for _, i := range g1 {
			a.items = append(a.items, n.items[i])
		}
		for _, i := range g2 {
			b.items = append(b.items, n.items[i])
		}
	} else {
		for _, i := range g1 {
			a.children = append(a.children, n.children[i])
		}
		for _, i := range g2 {
			b.children = append(b.children, n.children[i])
		}
	}
	return a, b
}

func (n *node) entryBoxes() []geom.MBR {
	if n.leaf {
		out := make([]geom.MBR, len(n.items))
		for i, it := range n.items {
			out[i] = it.Box
		}
		return out
	}
	out := make([]geom.MBR, len(n.children))
	for i, c := range n.children {
		out[i] = c.box
	}
	return out
}

// quadraticSeeds picks the pair wasting the most volume together.
func quadraticSeeds(boxes []geom.MBR) (int, int) {
	s1, s2, worst := 0, 1, -1.0
	for i := 0; i < len(boxes); i++ {
		for j := i + 1; j < len(boxes); j++ {
			// The union's volume minus both volumes, without building
			// the union.
			d := boxes[i].Enlargement(boxes[j]) - boxes[j].Volume()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	return s1, s2
}

func recomputeBox(n *node) {
	if n.leaf {
		m := geom.MBR{}
		for _, it := range n.items {
			m.Extend(it.Box)
		}
		n.box = m
		return
	}
	m := geom.MBR{}
	for _, c := range n.children {
		m.Extend(c.box)
	}
	n.box = m
}

// SearchIntersect visits every item whose box intersects query. Iteration
// stops early if visit returns false.
func (t *Tree) SearchIntersect(query geom.MBR, visit func(Item) bool) {
	t.search(t.root, query, visit)
}

func (t *Tree) search(n *node, q geom.MBR, visit func(Item) bool) bool {
	if !n.box.Intersects(q) && !(n == t.root) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Box.Intersects(q) {
				if !visit(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if c.box.Intersects(q) {
			if !t.search(c, q, visit) {
				return false
			}
		}
	}
	return true
}

// Delete removes one item with the given id whose box equals box. It
// returns true if an item was removed. Underfull nodes are merged lazily:
// entries of a drained leaf stay searchable; classic condensation is not
// needed for the archive's append-mostly workload.
func (t *Tree) Delete(id int64, box geom.MBR) bool {
	return t.delete(t.root, id, box)
}

func (t *Tree) delete(n *node, id int64, box geom.MBR) bool {
	if !n.box.Intersects(box) && n != t.root {
		return false
	}
	if n.leaf {
		for i, it := range n.items {
			if it.ID == id && it.Box.Min.Equal(box.Min) && it.Box.Max.Equal(box.Max) {
				n.items = append(n.items[:i], n.items[i+1:]...)
				recomputeBox(n)
				t.size--
				return true
			}
		}
		return false
	}
	for _, c := range n.children {
		if t.delete(c, id, box) {
			recomputeBox(n)
			return true
		}
	}
	return false
}
