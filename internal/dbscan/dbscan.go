// Package dbscan implements density-based clustering per Definition 3.1 of
// the paper (after Ester et al., KDD 96): given a range threshold θr and a
// count threshold θc, core objects are those with at least θc neighbors,
// clusters are maximal groups of transitively connected core objects plus
// the edge objects attached to them.
//
// This is the *static, from-scratch* algorithm. The streaming system never
// runs it per window (that would be prohibitively expensive, §5); it exists
// as the semantics oracle that the incremental algorithms (C-SGS, Extra-N)
// are verified against, and as a "re-cluster every window" baseline for
// ablation benchmarks.
//
// One deliberate deviation from classic DBSCAN: an edge ("border") object
// that is a neighbor of core objects from several clusters is reported as a
// member of *all* of them, exactly as Definition 3.1 states ("the edge
// objects attached to them"), rather than being assigned arbitrarily to
// whichever cluster reaches it first. This makes cluster membership a pure
// function of the input — a requirement for cross-algorithm equality tests.
//
// Neighbor counting excludes the object itself: NumNeigh(p, θr) counts
// *other* objects within θr. All algorithms in this module follow the same
// convention.
package dbscan

import (
	"fmt"
	"sort"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
)

// Params are the density thresholds of a clustering query (Figure 2).
type Params struct {
	ThetaR float64 // range threshold θr
	ThetaC int     // count threshold θc
}

// Cluster is one density-based cluster in full representation: the ids of
// its member objects. Members and Cores are sorted ascending.
type Cluster struct {
	Members []int64 // all objects in the cluster (cores + edges)
	Cores   []int64 // the core objects only
}

// Result of clustering one window.
type Result struct {
	Clusters []Cluster
	Noise    []int64 // objects belonging to no cluster, sorted
	IsCore   map[int64]bool
}

// Run clusters the given points. ids[i] identifies pts[i]; ids must be
// unique. Points with fewer than θc neighbors that are not attached to any
// core are reported as noise.
func Run(pts []geom.Point, ids []int64, p Params) (*Result, error) {
	if len(pts) != len(ids) {
		panic("dbscan: pts and ids length mismatch")
	}
	if len(pts) == 0 {
		return &Result{IsCore: map[int64]bool{}}, nil
	}
	geo, err := grid.NewGeometry(len(pts[0]), p.ThetaR)
	if err != nil {
		return nil, err
	}
	ix := grid.NewPointIndex(geo)
	for i, pt := range pts {
		if err := geo.Check(pt); err != nil {
			return nil, fmt.Errorf("dbscan: point %d: %w", i, err)
		}
		ix.Insert(int64(i), pt)
	}

	// Neighbor lists by slot index (not id) for cache-friendly union-find.
	nbs := make([][]int32, len(pts))
	for i, pt := range pts {
		var l []int32
		ix.RangeQuery(pt, func(e grid.Entry) bool {
			if e.ID != int64(i) {
				l = append(l, int32(e.ID))
			}
			return true
		})
		nbs[i] = l
	}

	isCore := make([]bool, len(pts))
	for i := range pts {
		isCore[i] = len(nbs[i]) >= p.ThetaC
	}

	// Union connected core objects.
	uf := newUnionFind(len(pts))
	for i := range pts {
		if !isCore[i] {
			continue
		}
		for _, j := range nbs[i] {
			if isCore[j] {
				uf.union(i, int(j))
			}
		}
	}

	// Collect clusters of cores.
	clusterOf := make(map[int]int) // root slot -> cluster index
	var clusters []Cluster
	for i := range pts {
		if !isCore[i] {
			continue
		}
		r := uf.find(i)
		ci, ok := clusterOf[r]
		if !ok {
			ci = len(clusters)
			clusterOf[r] = ci
			clusters = append(clusters, Cluster{})
		}
		clusters[ci].Cores = append(clusters[ci].Cores, ids[i])
		clusters[ci].Members = append(clusters[ci].Members, ids[i])
	}

	// Attach edge objects: every non-core neighbor of a core joins that
	// core's cluster (possibly several clusters).
	inCluster := make(map[int64]bool, len(pts))
	edgeSeen := make([]map[int]bool, len(pts))
	for i := range pts {
		if !isCore[i] {
			continue
		}
		inCluster[ids[i]] = true
		ci := clusterOf[uf.find(i)]
		for _, j := range nbs[i] {
			if isCore[j] {
				continue
			}
			if edgeSeen[j] == nil {
				edgeSeen[j] = make(map[int]bool, 2)
			}
			if !edgeSeen[j][ci] {
				edgeSeen[j][ci] = true
				clusters[ci].Members = append(clusters[ci].Members, ids[j])
				inCluster[ids[j]] = true
			}
		}
	}

	res := &Result{Clusters: clusters, IsCore: make(map[int64]bool, len(pts))}
	for i := range pts {
		if isCore[i] {
			res.IsCore[ids[i]] = true
		}
		if !inCluster[ids[i]] {
			res.Noise = append(res.Noise, ids[i])
		}
	}
	sort.Slice(res.Noise, func(a, b int) bool { return res.Noise[a] < res.Noise[b] })
	for ci := range res.Clusters {
		c := &res.Clusters[ci]
		sort.Slice(c.Members, func(a, b int) bool { return c.Members[a] < c.Members[b] })
		sort.Slice(c.Cores, func(a, b int) bool { return c.Cores[a] < c.Cores[b] })
	}
	// Canonical cluster order: by smallest core id.
	sort.Slice(res.Clusters, func(a, b int) bool {
		return res.Clusters[a].Cores[0] < res.Clusters[b].Cores[0]
	})
	return res, nil
}

// Signature returns a canonical, comparable representation of the
// clustering: for each cluster the sorted member ids, clusters sorted by
// their smallest core id. Two algorithms produce the same clustering iff
// their signatures are equal.
func (r *Result) Signature() [][]int64 {
	sig := make([][]int64, len(r.Clusters))
	for i, c := range r.Clusters {
		sig[i] = c.Members
	}
	return sig
}

// EqualSignature compares two signatures for exact equality.
func EqualSignature(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// unionFind is a standard disjoint-set forest with path halving and union
// by size.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for int(u.parent[x]) != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = int(u.parent[x])
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	u.size[ra] += u.size[rb]
}
