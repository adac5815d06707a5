// Package quality implements the matching-quality evaluation of §8.3.
//
// The paper invited 20 analysts to rate, for each to-be-matched cluster,
// the top-3 matches returned by each summarization method as "very
// similar", "similar" or "not similar" (visualized with ViStream). Human
// raters are unavailable to a library test suite, so this package provides
// a similarity oracle computed on the clusters' *full representations* —
// information none of the summarization methods can access. The oracle is
// a centroid-aligned spatial-coverage similarity (Jaccard over fine
// occupancy cells), which is exactly what a human looking at two
// multivariate cluster renderings judges: do the shapes, extents and
// masses coincide after mentally overlaying them?
//
// Because the oracle (a) sees the raw members, (b) is symmetric, and (c)
// is independent of every summarization under test, it preserves the
// discriminating power of the original study: a method earns a high
// "similar rate" only by returning matches that genuinely resemble the
// target.
package quality

import (
	"fmt"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
)

// Verdict is a rater's category for one retrieved match (§8.3).
type Verdict int

const (
	// NotSimilar means the retrieved cluster does not resemble the target.
	NotSimilar Verdict = iota
	// Similar means noticeable resemblance in shape/extent/mass.
	Similar
	// VerySimilar means near-coincident clusters.
	VerySimilar
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerySimilar:
		return "very similar"
	case Similar:
		return "similar"
	default:
		return "not similar"
	}
}

// Thresholds maps oracle similarity to verdicts.
type Thresholds struct {
	Very    float64 // similarity >= Very → VerySimilar
	Similar float64 // similarity >= Similar → Similar
}

// DefaultThresholds are calibrated so that a cluster matched with itself
// is VerySimilar and an unrelated cluster is NotSimilar.
func DefaultThresholds() Thresholds { return Thresholds{Very: 0.55, Similar: 0.3} }

// Oracle rates matches using archived full representations.
type Oracle struct {
	geo  *grid.Geometry
	th   Thresholds
	full map[int64][]geom.Point
}

// NewOracle creates an oracle rating at the given occupancy-cell
// granularity (use the clustering θr for cellSide·√dim, i.e. the same
// geometry as the extraction, so "coverage" matches what the clusters
// mean).
func NewOracle(dim int, cellSide float64, th Thresholds) (*Oracle, error) {
	geo, err := grid.NewGeometryWithSide(dim, cellSide, cellSide)
	if err != nil {
		return nil, err
	}
	if th.Very < th.Similar {
		return nil, fmt.Errorf("quality: Very threshold below Similar")
	}
	return &Oracle{geo: geo, th: th, full: make(map[int64][]geom.Point)}, nil
}

// AddCluster registers the full representation of an archived cluster.
func (o *Oracle) AddCluster(id int64, pts []geom.Point) {
	cp := make([]geom.Point, len(pts))
	for i, p := range pts {
		cp[i] = p.Clone()
	}
	o.full[id] = cp
}

// Similarity computes the centroid-aligned coverage similarity between a
// target's full representation and archived cluster id, in [0,1].
func (o *Oracle) Similarity(target []geom.Point, id int64) (float64, error) {
	stored, ok := o.full[id]
	if !ok {
		return 0, fmt.Errorf("quality: unknown cluster %d", id)
	}
	return CoverageSimilarity(o.geo, target, stored), nil
}

// Rate converts a similarity into a verdict.
func (o *Oracle) Rate(sim float64) Verdict {
	switch {
	case sim >= o.th.Very:
		return VerySimilar
	case sim >= o.th.Similar:
		return Similar
	default:
		return NotSimilar
	}
}

// RateMatch is Similarity followed by Rate.
func (o *Oracle) RateMatch(target []geom.Point, id int64) (Verdict, error) {
	sim, err := o.Similarity(target, id)
	if err != nil {
		return NotSimilar, err
	}
	return o.Rate(sim), nil
}

// CoverageSimilarity is the oracle metric: translate b so the centroids
// coincide, rasterize both point sets onto the geometry's cells, and
// return the Jaccard coefficient of the occupied cell sets, weighted by
// per-cell mass overlap (min/max of normalized per-cell counts). This
// rewards coinciding shape and density distribution, ignores absolute
// position, and needs no alignment search thanks to the centroid shift.
func CoverageSimilarity(geo *grid.Geometry, a, b []geom.Point) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	ca, cb := geom.Centroid(a), geom.Centroid(b)
	shift := ca.Sub(cb)
	occA := rasterize(geo, a, nil)
	occB := rasterize(geo, b, shift)
	na, nb := float64(len(a)), float64(len(b))
	var inter, union float64
	for c, wa := range occA {
		if wb, ok := occB[c]; ok {
			fa, fb := wa/na, wb/nb
			if fa < fb {
				inter += fa
				union += fb
			} else {
				inter += fb
				union += fa
			}
		} else {
			union += wa / na
		}
	}
	for c, wb := range occB {
		if _, ok := occA[c]; !ok {
			union += wb / nb
		}
	}
	if union == 0 {
		return 0
	}
	return inter / union
}

func rasterize(geo *grid.Geometry, pts []geom.Point, shift geom.Point) map[grid.Coord]float64 {
	occ := make(map[grid.Coord]float64)
	for _, p := range pts {
		q := p
		if shift != nil {
			q = p.Add(shift)
		}
		occ[geo.CoordOf(q)]++
	}
	return occ
}

// Tally accumulates verdicts for one method (one bar group of Figure 9).
type Tally struct {
	Very, Sim, Not int
}

// Add records a verdict.
func (t *Tally) Add(v Verdict) {
	switch v {
	case VerySimilar:
		t.Very++
	case Similar:
		t.Sim++
	default:
		t.Not++
	}
}

// Total returns the number of rated matches.
func (t Tally) Total() int { return t.Very + t.Sim + t.Not }

// Rates returns the fractions (very, similar, not) of rated matches.
func (t Tally) Rates() (very, similar, not float64) {
	n := t.Total()
	if n == 0 {
		return 0, 0, 0
	}
	f := 1 / float64(n)
	return float64(t.Very) * f, float64(t.Sim) * f, float64(t.Not) * f
}

// SimilarRate is the headline number of Figure 9: the fraction of matches
// rated similar or better.
func (t Tally) SimilarRate() float64 {
	n := t.Total()
	if n == 0 {
		return 0
	}
	return float64(t.Very+t.Sim) / float64(n)
}
