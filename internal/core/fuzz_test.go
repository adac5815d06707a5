package core

import (
	"math/rand"
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/window"
)

// FuzzPushBatch is the batched ingest path's differential check on drawn
// streams and configurations: dimension 1–4, count or time windows (time
// windows with bursts of tuples on one tick, which make the ring of live
// objects grow), an optional mid-stream Flush (later tuples that fall
// before the current window are dropped, so their ids are gaps inside
// the live span) and an optional out-of-order tuple (rejected without
// taking an id). PushBatch at
// Workers 2, in batches of a drawn size, must emit windows byte-identical
// to a Push loop and end with the same Stats.
func FuzzPushBatch(f *testing.F) {
	f.Add(int64(1), uint8(1), false, uint8(12), uint8(4), uint8(2), uint16(300), uint16(0), uint16(0), uint8(0), uint8(37))
	f.Add(int64(2), uint8(3), false, uint8(40), uint8(10), uint8(3), uint16(500), uint16(210), uint16(0), uint8(0), uint8(64))
	f.Add(int64(3), uint8(0), true, uint8(6), uint8(2), uint8(1), uint16(400), uint16(0), uint16(150), uint8(245), uint8(100))
	f.Add(int64(4), uint8(2), true, uint8(9), uint8(3), uint8(4), uint16(600), uint16(333), uint16(90), uint8(230), uint8(250))
	f.Add(int64(5), uint8(3), true, uint8(4), uint8(4), uint8(2), uint16(450), uint16(120), uint16(300), uint8(250), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, timeBased bool, win, slide, thetaC uint8,
		n, flushAt, rejectAt uint16, burst, batch uint8) {
		cfg := Config{
			Dim:     int(dim)%4 + 1,
			ThetaR:  1,
			ThetaC:  int(thetaC)%6 + 1,
			Window:  window.Spec{Win: int64(win)%48 + 1},
			Workers: 2,
		}
		cfg.Window.Slide = int64(slide)%cfg.Window.Win + 1
		if timeBased {
			cfg.Window.Kind = window.TimeBased
		}
		pts, tss := fuzzStream(seed, cfg.Dim, int(n)%800, burst)
		flush := int(flushAt) % (len(pts) + 1) // len(pts): no mid-stream Flush
		if timeBased && rejectAt > 0 && int(rejectAt) < len(pts) && tss[rejectAt-1] > 0 {
			tss[rejectAt] = tss[rejectAt-1] - 1 // out of order: rejected
		}

		seq, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []*WindowResult
		for i, p := range pts {
			if i == flush {
				want = append(want, seq.Flush())
			}
			_, out, _ := seq.Push(p, tss[i])
			want = append(want, out...)
		}
		want = append(want, seq.Flush())

		bat, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []*WindowResult
		size := int(batch)%64 + 1
		for lo := 0; lo < len(pts); {
			if lo == flush {
				got = append(got, bat.Flush())
			}
			hi := min(lo+size, len(pts))
			if lo < flush && flush < hi {
				hi = flush
			}
			out, err := bat.PushBatch(pts[lo:hi], tss[lo:hi])
			got = append(got, out...)
			if err != nil {
				// The batch stopped at the rejected tuple; the next one
				// starts after it.
				hi = int(rejectAt) + 1
			}
			lo = hi
		}
		got = append(got, bat.Flush())

		if w, g := encodeWindows(t, want), encodeWindows(t, got); string(w) != string(g) {
			t.Fatalf("PushBatch windows differ from the Push loop (%+v)", cfg)
		}
		if w, g := seq.Stats(), bat.Stats(); w != g {
			t.Fatalf("Stats: Push loop %+v, PushBatch %+v", w, g)
		}
	})
}

// fuzzStream draws n points around three centres with some uniform noise,
// and non-decreasing timestamps where a burst-th of the steps stay on the
// same tick (burst/256 of them).
func fuzzStream(seed int64, dim, n int, burst uint8) ([]geom.Point, []int64) {
	rng := rand.New(rand.NewSource(seed))
	centres := make([]geom.Point, 3)
	for i := range centres {
		centres[i] = make(geom.Point, dim)
		for d := range centres[i] {
			centres[i][d] = float64(rng.Intn(8))
		}
	}
	pts := make([]geom.Point, n)
	tss := make([]int64, n)
	tick := int64(0)
	for i := range pts {
		p := make(geom.Point, dim)
		c := centres[rng.Intn(len(centres))]
		noise := rng.Intn(8) == 0
		for d := range p {
			if noise {
				p[d] = float64(rng.Intn(800)) / 100
			} else {
				p[d] = c[d] + float64(rng.Intn(121)-60)/100
			}
		}
		pts[i] = p
		if rng.Intn(256) >= int(burst) {
			tick += int64(rng.Intn(3))
		}
		tss[i] = tick
	}
	return pts, tss
}
