package core

import (
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/window"
)

// TestEmitParallelMatchesSequential is the determinism guarantee of the
// parallel output stage: for every Workers setting the emitted
// WindowResult sequence — members, cores, and summaries — must be
// byte-identical to the fully sequential stage (Workers = 1), via
// both the Push and the PushBatch ingest paths. Run under -race this also
// verifies the prune / edge-resolution / cluster-build fan-outs are
// race-clean.
func TestEmitParallelMatchesSequential(t *testing.T) {
	pts := batchStream(6000, 2, 99)
	base := Config{
		Dim: 2, ThetaR: 0.7, ThetaC: 4,
		Window:  window.Spec{Win: 1500, Slide: 300},
		Workers: 1,
	}
	wantPush := encodeWindows(t, runSequential(t, base, pts, nil))

	for _, ew := range []int{1, 2, 8} {
		cfg := base
		cfg.Workers = ew

		if got := encodeWindows(t, runSequential(t, cfg, pts, nil)); string(got) != string(wantPush) {
			t.Errorf("workers=%d: Push output differs from sequential emit", ew)
		}
		if got := encodeWindows(t, runBatched(t, cfg, pts, nil, 700)); string(got) != string(wantPush) {
			t.Errorf("workers=%d: PushBatch output differs from sequential emit", ew)
		}
	}
}

// TestEmitEmptyWindowClustersNil pins the serialized shape of a
// cluster-less window: Clusters stays nil ("Clusters":null in JSON, as in
// releases before the parallel output stage), not an empty slice.
func TestEmitEmptyWindowClustersNil(t *testing.T) {
	ex, err := New(Config{
		Dim: 2, ThetaR: 0.5, ThetaC: 5,
		Window:  window.Spec{Win: 10, Slide: 10},
		Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // isolated points: no cluster forms
		if _, _, err := ex.Push(geom.Point{float64(i) * 100, 0}, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, ws, err := ex.Push(geom.Point{5000, 0}, 0) // crosses the boundary
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 {
		t.Fatalf("got %d windows, want 1", len(ws))
	}
	if ws[0].Clusters != nil {
		t.Fatalf("empty window Clusters = %#v, want nil", ws[0].Clusters)
	}
}

// TestEmitParallelSkipSummaries covers the SkipSummaries ablation path
// under the parallel output stage (cluster assembly still fans out; only
// summary construction is suppressed).
func TestEmitParallelSkipSummaries(t *testing.T) {
	pts := batchStream(4000, 3, 17)
	base := Config{
		Dim: 3, ThetaR: 0.9, ThetaC: 5,
		Window:        window.Spec{Win: 1000, Slide: 250},
		SkipSummaries: true,
		Workers:       1,
	}
	want := encodeWindows(t, runSequential(t, base, pts, nil))
	for _, ew := range []int{2, 8} {
		cfg := base
		cfg.Workers = ew
		if got := encodeWindows(t, runSequential(t, cfg, pts, nil)); string(got) != string(want) {
			t.Errorf("workers=%d: SkipSummaries output differs from sequential emit", ew)
		}
	}
}
