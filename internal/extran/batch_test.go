package extran

import (
	"encoding/json"
	"math/rand"
	"testing"

	"streamsum/internal/core"
	"streamsum/internal/geom"
	"streamsum/internal/window"
)

func batchStream(n, dim int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, 3)
	for i := range centers {
		centers[i] = make(geom.Point, dim)
		for d := range centers[i] {
			centers[i][d] = rng.Float64() * 6
		}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		if rng.Float64() < 0.8 {
			c := centers[rng.Intn(len(centers))]
			for d := range p {
				p[d] = c[d] + rng.NormFloat64()*0.4
			}
		} else {
			for d := range p {
				p[d] = rng.Float64() * 6
			}
		}
		pts[i] = p
	}
	return pts
}

// TestPushBatchMatchesSequential: the Extra-N batch path must emit
// byte-identical WindowResults to one-by-one Push on a fixed-seed stream,
// at every batch size.
func TestPushBatchMatchesSequential(t *testing.T) {
	pts := batchStream(5000, 2, 23)
	cfg := Config{
		Dim: 2, ThetaR: 0.6, ThetaC: 4,
		Window: window.Spec{Win: 1200, Slide: 400},
	}

	seq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []*core.WindowResult
	for _, p := range pts {
		_, emitted, err := seq.Push(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, emitted...)
	}
	want = append(want, seq.Flush())

	for _, batch := range []int{1, 11, 400, 5000} {
		bex, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []*core.WindowResult
		for lo := 0; lo < len(pts); lo += batch {
			hi := lo + batch
			if hi > len(pts) {
				hi = len(pts)
			}
			emitted, err := bex.PushBatch(pts[lo:hi], nil)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, emitted...)
		}
		got = append(got, bex.Flush())

		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(wb) != string(gb) {
			t.Errorf("batch=%d: batched Extra-N output differs from sequential", batch)
		}
	}
}

// TestPushBatchErrors: PushBatch keeps a Push loop's error contract. A
// timestamp slice of the wrong length is refused before any tuple is
// applied; a dimension or order error mid-batch stops at the offending
// tuple and returns the windows the earlier tuples completed, with those
// tuples applied.
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
