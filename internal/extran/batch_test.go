package extran

import (
	"encoding/json"
	"math"
	"testing"

	"streamsum/internal/core"
	"streamsum/internal/geom"
	"streamsum/internal/window"
)

// TestPushBatchErrors: PushBatch keeps a Push loop's error contract. A
// timestamp slice of the wrong length is refused before any tuple is
// applied; a dimension, order or off-the-grid (grid.Geometry.Check) error
// mid-batch stops at the offending tuple and returns the windows the
// earlier tuples completed, with those tuples applied.
func TestPushBatchErrors(t *testing.T) {
	cfg := Config{Dim: 1, ThetaR: 1, ThetaC: 2,
		Window: window.Spec{Kind: window.TimeBased, Win: 10, Slide: 5}}
	ex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.PushBatch([]geom.Point{{1}, {2}}, []int64{1}); err == nil {
		t.Fatal("tss length mismatch accepted")
	}
	if objs, _, _ := ex.Stats(); objs != 0 {
		t.Fatalf("tss length mismatch applied %d tuples", objs)
	}

	// Windows 0 ([0,10)) and 1 ([5,15)) close before the bad tuple.
	pts := []geom.Point{{1}, {1.5}, {2}, {2.5}, {3}}
	tss := []int64{1, 2, 3, 16, 17}
	for _, bad := range []struct {
		name string
		p    geom.Point
		ts   int64
	}{
		{"dimension", geom.Point{3, 3}, 17},
		{"order", geom.Point{3}, 15},
		{"off the grid", geom.Point{5e12}, 17},
		{"NaN", geom.Point{math.NaN()}, 17},
	} {
		t.Run(bad.name, func(t *testing.T) {
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []*core.WindowResult
			for i, p := range pts[:4] {
				_, emitted, err := ref.Push(p, tss[i])
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, emitted...)
			}
			if len(want) != 2 {
				t.Fatalf("fixture: Push loop emitted %d windows before the error, want 2", len(want))
			}
			if _, _, err := ref.Push(bad.p, bad.ts); err == nil {
				t.Fatalf("%s error not reported by Push", bad.name)
			}

			bex, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch := append(append([]geom.Point{}, pts[:4]...), bad.p, pts[4])
			btss := append(append([]int64{}, tss[:4]...), bad.ts, tss[4])
			got, err := bex.PushBatch(batch, btss)
			if err == nil {
				t.Fatalf("%s error not reported by PushBatch", bad.name)
			}
			wb, _ := json.Marshal(want)
			gb, _ := json.Marshal(got)
			if string(wb) != string(gb) {
				t.Fatalf("windows before the error:\n got %s\nwant %s", gb, wb)
			}
			wantObjs, _, _ := ref.Stats()
			if gotObjs, _, _ := bex.Stats(); gotObjs != wantObjs {
				t.Fatalf("PushBatch left %d objects, the Push loop %d", gotObjs, wantObjs)
			}
			wf, _ := json.Marshal(ref.Flush())
			gf, _ := json.Marshal(bex.Flush())
			if string(wf) != string(gf) {
				t.Fatal("state after the error differs from the Push loop")
			}
		})
	}
}
