package sgs_test

import (
	"bytes"
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/match"
	"streamsum/internal/sgs"
)

// fuzzSeedSummary builds the summary of a short diagonal run of points in
// dim dimensions, core where core says so: a few cells with near
// connections, and edge cells when some points are not core.
func fuzzSeedSummary(t testing.TB, dim int, side float64, core []bool) *sgs.Summary {
	t.Helper()
	geo, err := grid.NewGeometry(dim, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, len(core))
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for d := range pts[i] {
			pts[i][d] = side * float64(i+d)
		}
	}
	s, err := sgs.FromCluster(geo, pts, core, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzUnmarshal: Unmarshal never panics, and a summary it accepts passes
// validation, re-encodes to a fixed point (decoding the re-encoding and
// encoding again gives the same bytes), and matches itself at distance 0
// under both the position-insensitive and the position-sensitive metric.
// The seed corpus runs in every plain `go test`; mutate with
// go test -run '^FuzzUnmarshal$' -fuzz '^FuzzUnmarshal$' -fuzztime 20s ./internal/sgs/
func FuzzUnmarshal(f *testing.F) {
	all := []bool{true, true, true, true, true, true}
	mixed := []bool{true, true, true, true, false, false}
	for dim := 1; dim <= 4; dim++ {
		f.Add(sgs.Marshal(fuzzSeedSummary(f, dim, 0.1, all)))
		f.Add(sgs.Marshal(fuzzSeedSummary(f, dim, 0.3, mixed)))
	}
	// A far connection: core cells two apart along one axis (radius 1.5,
	// side 0.5 reaches them), which the near-offset mask cannot hold.
	geo, err := grid.NewGeometryWithSide(2, 1.5, 0.5)
	if err != nil {
		f.Fatal(err)
	}
	far, err := sgs.FromCluster(geo, []geom.Point{{0.1, 0.1}, {1.1, 0.1}}, []bool{true, true}, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sgs.Marshal(far))
	f.Add(sgs.Marshal(&sgs.Summary{Dim: 3, Side: 1}))
	f.Add([]byte("SGS1"))

	insensitive := match.EqualWeights()
	sensitive := insensitive
	sensitive.PositionSensitive = true
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := sgs.Unmarshal(b)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted summary fails validation: %v", err)
		}
		enc := sgs.Marshal(s)
		again, err := sgs.Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted summary does not decode: %v", err)
		}
		if re := sgs.Marshal(again); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", enc, re)
		}
		for _, w := range []match.Weights{insensitive, sensitive} {
			if d, within := match.Refine(s, s, w, match.DefaultAlignBudget, 0); d != 0 || !within {
				t.Fatalf("self-match (position-sensitive %v) at distance %v, within %v", w.PositionSensitive, d, within)
			}
		}
	})
}
