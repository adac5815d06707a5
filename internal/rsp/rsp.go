// Package rsp implements Random Sampling summarization (RSP), the second
// baseline of §8: each cluster is summarized by a uniform random sample of
// its members. Per the paper's protocol, the sampling rate is always chosen
// so that the RSP of a cluster consumes the same memory as the SGS of the
// same cluster, making the quality comparison budget-fair.
//
// Matching uses a subset-matching distance (after Yang et al., CIKM 2007
// [15]): the symmetric mean nearest-neighbor distance between the two
// samples, normalized into [0,1] by the combined extent of the samples.
package rsp

import (
	"fmt"
	"math"
	"math/rand"

	"streamsum/internal/geom"
)

// BytesPerPoint is the storage cost of one sampled member (float64 per
// dimension), used to size samples against an SGS byte budget.
func BytesPerPoint(dim int) int { return 8 * dim }

// Summary is the RSP of one cluster.
type Summary struct {
	ID     int64
	Window int64
	// Sample holds the sampled member positions.
	Sample []geom.Point
	// Count is the original cluster size (kept so the sampling rate is
	// recoverable; not counted toward the storage budget, mirroring the
	// paper's treatment of cluster ids).
	Count int
}

// FromPoints samples the cluster's full representation down to at most
// budgetBytes of point storage (at least one point). The rng makes
// sampling reproducible; pass nil for a deterministic prefix-free sample
// seeded by the cluster id.
func FromPoints(pts []geom.Point, id, window int64, budgetBytes int, rng *rand.Rand) (*Summary, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("rsp: empty cluster")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(id*0x9E3779B9 + window))
	}
	dim := len(pts[0])
	n := budgetBytes / BytesPerPoint(dim)
	if n < 1 {
		n = 1
	}
	if n > len(pts) {
		n = len(pts)
	}
	// Reservoir-free sampling: permute indices and keep the first n.
	idx := rng.Perm(len(pts))[:n]
	s := &Summary{ID: id, Window: window, Count: len(pts), Sample: make([]geom.Point, n)}
	for i, j := range idx {
		s.Sample[i] = pts[j].Clone()
	}
	return s, nil
}

// Size returns the storage footprint in bytes.
func (s *Summary) Size() int {
	if len(s.Sample) == 0 {
		return 0
	}
	return len(s.Sample) * BytesPerPoint(len(s.Sample[0]))
}

// Distance is the subset-matching distance between two samples: the
// samples are centroid-aligned (matching, like the other summarization
// formats, is position-insensitive by default), then the symmetric Chamfer
// (mean nearest-neighbor) distance is computed and normalized by the mean
// extent of the two samples so the result lies in [0,1]. Identical samples
// have distance 0; shape/extent mismatches push toward 1.
func Distance(a, b *Summary) float64 {
	if len(a.Sample) == 0 || len(b.Sample) == 0 {
		return 1
	}
	// Center each sample on its own centroid; the comparison is then a
	// pure shape comparison and exactly symmetric.
	center := func(pts []geom.Point) []geom.Point {
		c := geom.Centroid(pts)
		out := make([]geom.Point, len(pts))
		for i, p := range pts {
			out[i] = p.Sub(c)
		}
		return out
	}
	as := center(a.Sample)
	bs := center(b.Sample)
	da := geom.MBRFromPoints(as)
	db := geom.MBRFromPoints(bs)
	scale := (geom.Dist(da.Min, da.Max) + geom.Dist(db.Min, db.Max)) / 2
	if scale == 0 {
		return 0 // both samples degenerate to single coincident points
	}
	d := (meanNN(as, bs) + meanNN(bs, as)) / 2
	v := d / scale
	if v > 1 {
		return 1
	}
	return v
}

// meanNN returns the mean, over points of xs, of the distance to the
// nearest point in ys.
func meanNN(xs, ys []geom.Point) float64 {
	var sum float64
	for _, x := range xs {
		best := math.Inf(1)
		for _, y := range ys {
			if d := geom.DistSq(x, y); d < best {
				best = d
			}
		}
		sum += math.Sqrt(best)
	}
	return sum / float64(len(xs))
}
