package match

import (
	"math/rand"
	"testing"

	"streamsum/internal/geom"
)

// TestCellDistanceSymmetryUnderInverseAlignment: D(a, b, v) == D(b, a, -v)
// for any alignment v — the metric must not depend on which cluster is the
// "target".
func TestCellDistanceSymmetryUnderInverseAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		a := summarize(t, blob(rng, 150+rng.Intn(150), rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()), 0)
		b := summarize(t, blob(rng, 150+rng.Intn(150), rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()), 1)
		align := vec{int32(rng.Intn(9) - 4), int32(rng.Intn(9) - 4)}
		inv := vec{-align[0], -align[1]}
		d1 := cellDistance(a, b, &align)
		d2 := cellDistance(b, a, &inv)
		if diff := d1 - d2; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("trial %d: D(a,b,%v)=%g != D(b,a,%v)=%g", trial, align, d1, inv, d2)
		}
		if d1 < 0 || d1 > 1 {
			t.Fatalf("distance out of range: %g", d1)
		}
	}
}

// TestFeatureDistanceProperties: identity, symmetry, range, and weight
// linearity.
func TestFeatureDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := EqualWeights()
	for trial := 0; trial < 200; trial++ {
		var a, b [4]float64
		for d := 0; d < 4; d++ {
			a[d] = rng.Float64() * 100
			b[d] = rng.Float64() * 100
		}
		if FeatureDistance(a, a, w) != 0 {
			t.Fatal("identity violated")
		}
		d1, d2 := FeatureDistance(a, b, w), FeatureDistance(b, a, w)
		if d1 != d2 {
			t.Fatalf("symmetry violated: %g vs %g", d1, d2)
		}
		if d1 < 0 || d1 > 1 {
			t.Fatalf("range violated: %g", d1)
		}
	}
	// A single fully-weighted dimension reduces to relDist.
	wv := Weights{Volume: 1}
	if got := FeatureDistance([4]float64{10, 5, 5, 5}, [4]float64{20, 9, 9, 9}, wv); got != 1 {
		t.Fatalf("single-dim distance = %g, want 1 (clamped)", got)
	}
}

// TestFeatureRangesConsistent: any vector inside the returned ranges has
// per-dimension weighted distance <= threshold; any vector outside on some
// bounded dimension exceeds it.
func TestFeatureRangesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	w := Weights{Volume: 0.4, Status: 0.3, Density: 0.2, Connectivity: 0.1}
	for trial := 0; trial < 300; trial++ {
		var f [4]float64
		for d := 0; d < 4; d++ {
			f[d] = 1 + rng.Float64()*50
		}
		threshold := 0.05 + rng.Float64()*0.2
		lo, hi := FeatureRanges(f, w, threshold)
		ws := [4]float64{w.Volume, w.Status, w.Density, w.Connectivity}
		for d := 0; d < 4; d++ {
			bound := threshold / ws[d]
			if bound >= 1 {
				continue // unbounded dimension
			}
			inside := lo[d] + (hi[d]-lo[d])*rng.Float64()
			if got := ws[d] * relDist(inside, f[d]); got > threshold+1e-9 {
				t.Fatalf("inside value %g exceeds threshold: %g", inside, got)
			}
			above := hi[d] * 1.01
			if got := ws[d] * relDist(above, f[d]); got <= threshold {
				t.Fatalf("outside value %g within threshold: %g", above, got)
			}
			below := lo[d] * 0.99
			if below > 0 {
				if got := ws[d] * relDist(below, f[d]); got <= threshold {
					t.Fatalf("outside value %g within threshold: %g", below, got)
				}
			}
		}
	}
}

// TestBestAlignmentIdempotentOnSelf: a summary aligned with itself at zero
// offset is optimal, and the search must find it.
func TestBestAlignmentIdempotentOnSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		s := summarize(t, blob(rng, 200, 0, 0, 1), 0)
		d, align := bestAlignment(s, s, 32)
		if d != 0 {
			t.Fatalf("self alignment distance %g", d)
		}
		if align != (vec{}) {
			t.Fatalf("self alignment offset %v", align)
		}
	}
}

var _ = geom.Point{} // keep geom imported for the helpers above
