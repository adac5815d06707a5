// Package skps implements the Skeletal Point Summarization of §4.2
// (Definition 4.1): a graph whose vertices are a minimal set of connected
// core objects (skeletal points) whose neighborhoods jointly cover the
// cluster, with edges between neighboring skeletal points.
//
// Finding a minimum such set is the connected dominating set problem
// (NP-complete); following the paper we compute an approximation with the
// greedy MG algorithm of Guha & Khuller [9]. The expense of this
// computation — and the instability of the resulting graphs — is exactly
// why the paper abandons SkPS in favor of SGS; this package exists to
// reproduce that comparison (Figs. 7-9).
//
// Matching uses a suboptimal beam-search graph edit distance after
// Neuhaus, Riesen & Bunke [13].
package skps

import (
	"fmt"
	"math"
	"sort"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
)

// Summary is the SkPS of one cluster.
type Summary struct {
	ID     int64
	Window int64
	// Nodes are the skeletal points (positions of the selected cores).
	Nodes []geom.Point
	// Edges connect neighboring skeletal points, as index pairs into
	// Nodes with Edges[i][0] < Edges[i][1].
	Edges [][2]int32
}

// Size returns the storage footprint in bytes (positions + edge list).
func (s *Summary) Size() int {
	dim := 0
	if len(s.Nodes) > 0 {
		dim = len(s.Nodes[0])
	}
	return len(s.Nodes)*8*dim + len(s.Edges)*8
}

// Degree returns the degree sequence of the graph.
func (s *Summary) Degree() []int {
	deg := make([]int, len(s.Nodes))
	for _, e := range s.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return deg
}

// FromCluster computes the SkPS of a cluster given its full representation
// and core flags, using the greedy connected-dominating-set construction.
func FromCluster(pts []geom.Point, isCore []bool, thetaR float64, id, window int64) (*Summary, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("skps: empty cluster")
	}
	if len(pts) != len(isCore) {
		return nil, fmt.Errorf("skps: pts/isCore length mismatch")
	}
	geo, err := grid.NewGeometry(len(pts[0]), thetaR)
	if err != nil {
		return nil, err
	}
	ix := grid.NewPointIndex(geo)
	for i, p := range pts {
		if err := geo.Check(p); err != nil {
			return nil, fmt.Errorf("skps: point %d: %w", i, err)
		}
		ix.Insert(int64(i), p)
	}
	n := len(pts)
	nbrs := make([][]int32, n)
	for i, p := range pts {
		ix.RangeQuery(p, func(e grid.Entry) bool {
			if int(e.ID) != i {
				nbrs[i] = append(nbrs[i], int32(e.ID))
			}
			return true
		})
	}
	var cores []int
	for i := range pts {
		if isCore[i] {
			cores = append(cores, i)
		}
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("skps: cluster has no core objects")
	}

	covered := make([]bool, n)
	selected := make([]bool, n)
	coverCount := func(c int) int {
		cnt := 0
		if !covered[c] {
			cnt++
		}
		for _, j := range nbrs[c] {
			if !covered[j] {
				cnt++
			}
		}
		return cnt
	}
	cover := func(c int) {
		covered[c] = true
		for _, j := range nbrs[c] {
			covered[j] = true
		}
	}

	// Seed: the core covering the most objects (ties by index for
	// determinism).
	seed := cores[0]
	best := -1
	for _, c := range cores {
		if cc := coverCount(c); cc > best {
			best, seed = cc, c
		}
	}
	selected[seed] = true
	cover(seed)
	uncovered := n - best
	var skeletal []int
	skeletal = append(skeletal, seed)

	// Frontier growth: repeatedly select the unselected core adjacent to
	// the selected set that covers the most uncovered objects. Once no
	// frontier core gains anything, no core does: a zero-gain frontier
	// core has its whole neighborhood covered, so every core adjacent to
	// it is already adjacent to the selected set, hence on the frontier
	// with zero gain too. Any object still uncovered is then attached to
	// no core of this cluster (bad input), and growth stops.
	for uncovered > 0 {
		bestGain, bestCore := 0, -1
		for _, s := range skeletal {
			for _, j := range nbrs[s] {
				if !isCore[j] || selected[j] {
					continue
				}
				if g := coverCount(int(j)); g > bestGain || (g == bestGain && bestCore >= 0 && int(j) < bestCore) {
					bestGain, bestCore = g, int(j)
				}
			}
		}
		if bestGain == 0 {
			break
		}
		selected[bestCore] = true
		cover(bestCore)
		uncovered -= bestGain
		skeletal = append(skeletal, bestCore)
	}

	sort.Ints(skeletal)
	idx := make(map[int]int32, len(skeletal))
	s := &Summary{ID: id, Window: window}
	for i, c := range skeletal {
		idx[c] = int32(i)
		s.Nodes = append(s.Nodes, pts[c].Clone())
	}
	for _, c := range skeletal {
		for _, j := range nbrs[c] {
			if selected[j] && int(j) > c {
				s.Edges = append(s.Edges, [2]int32{idx[c], idx[int(j)]})
			}
		}
	}
	sort.Slice(s.Edges, func(i, j int) bool {
		if s.Edges[i][0] != s.Edges[j][0] {
			return s.Edges[i][0] < s.Edges[j][0]
		}
		return s.Edges[i][1] < s.Edges[j][1]
	})
	return s, nil
}

// Verify checks Definition 4.1 on a summary against the cluster it came
// from: every object is in the closed neighborhood of some skeletal point,
// every skeletal point is a core object, and the skeletal graph is
// connected. Used by tests.
func (s *Summary) Verify(pts []geom.Point, isCore []bool, thetaR float64) error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("skps: empty summary")
	}
	for _, p := range pts {
		ok := false
		for _, q := range s.Nodes {
			if geom.WithinDist(p, q, thetaR) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("skps: object %v uncovered", p)
		}
	}
	// Connectivity.
	if len(s.Nodes) > 1 {
		adj := make([][]int32, len(s.Nodes))
		for _, e := range s.Edges {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		seen := make([]bool, len(s.Nodes))
		stack := []int32{0}
		seen[0] = true
		cnt := 1
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if !seen[y] {
					seen[y] = true
					cnt++
					stack = append(stack, y)
				}
			}
		}
		if cnt != len(s.Nodes) {
			return fmt.Errorf("skps: skeletal graph disconnected (%d of %d reachable)", cnt, len(s.Nodes))
		}
	}
	return nil
}

// Distance is a suboptimal graph edit distance between two SkPS graphs
// (beam-search A* after [13]). Node substitution costs combine normalized
// positional displacement and degree difference; insertions and deletions
// cost 1. The result is normalized to [0,1] by the larger node count. The
// beam search is run in both directions and the smaller value returned, as
// the suboptimal search is not symmetric by itself.
func Distance(a, b *Summary) float64 {
	if len(a.Nodes) == 0 && len(b.Nodes) == 0 {
		return 0
	}
	if len(a.Nodes) == 0 || len(b.Nodes) == 0 {
		return 1
	}
	d1 := gedBeam(a, b, 8)
	d2 := gedBeam(b, a, 8)
	return math.Min(d1, d2)
}

type gedState struct {
	used uint64 // bitmask of assigned b-nodes (beam GED is capped at 64 nodes)
	cost float64
}

// gedBeam computes the beam-search GED from a to b, normalized to [0,1].
// Graphs larger than 64 nodes are truncated to their 64 highest-degree
// nodes (the suboptimal algorithm's contract allows this; it only weakens
// match quality, never crashes).
func gedBeam(a, b *Summary, beam int) float64 {
	na, nb := a.Nodes, b.Nodes
	da, db := a.Degree(), b.Degree()
	type nodeInfo struct {
		p   geom.Point
		deg int
	}
	prep := func(nodes []geom.Point, deg []int) []nodeInfo {
		// Center on the centroid so matching is position-insensitive, and
		// order by degree (high-degree nodes first makes the beam search
		// stable).
		c := geom.Centroid(nodes)
		out := make([]nodeInfo, len(nodes))
		for i, p := range nodes {
			out[i] = nodeInfo{p: p.Sub(c), deg: deg[i]}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].deg > out[j].deg })
		if len(out) > 64 {
			out = out[:64]
		}
		return out
	}
	A, B := prep(na, da), prep(nb, db)

	// Normalization scales.
	var scale float64
	for _, n := range A {
		scale = math.Max(scale, geom.Dist(n.p, make(geom.Point, len(n.p))))
	}
	for _, n := range B {
		scale = math.Max(scale, geom.Dist(n.p, make(geom.Point, len(n.p))))
	}
	if scale == 0 {
		scale = 1
	}
	maxDeg := 1
	for _, n := range append(append([]nodeInfo{}, A...), B...) {
		if n.deg > maxDeg {
			maxDeg = n.deg
		}
	}

	sub := func(x, y nodeInfo) float64 {
		pd := math.Min(1, geom.Dist(x.p, y.p)/(2*scale))
		dd := math.Abs(float64(x.deg-y.deg)) / float64(maxDeg)
		return float64(0.7*pd) + float64(0.3*dd)
	}

	states := []gedState{{}}
	for i := range A {
		var next []gedState
		for _, st := range states {
			// Delete A[i].
			next = append(next, gedState{used: st.used, cost: st.cost + 1})
			// Substitute with any unused B node.
			for j := range B {
				if st.used&(1<<uint(j)) != 0 {
					continue
				}
				next = append(next, gedState{
					used: st.used | 1<<uint(j),
					cost: st.cost + sub(A[i], B[j]),
				})
			}
		}
		sort.Slice(next, func(x, y int) bool { return next[x].cost < next[y].cost })
		if len(next) > beam {
			next = next[:beam]
		}
		states = next
	}
	best := math.Inf(1)
	for _, st := range states {
		c := st.cost
		for j := range B {
			if st.used&(1<<uint(j)) == 0 {
				c++ // insertion of unmatched B node
			}
		}
		if c < best {
			best = c
		}
	}
	norm := float64(len(A))
	if len(B) > len(A) {
		norm = float64(len(B))
	}
	v := best / norm
	if v > 1 {
		return 1
	}
	return v
}
