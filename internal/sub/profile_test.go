package sub

import (
	"reflect"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/match"
	"streamsum/internal/trace"
)

// TestOfferProfileStage: offering memory-tier entries, which carry
// cell-count profiles, delivers the same events and counts the same pairs
// as offering the same summaries without profiles (the refine stage's
// profile stage dismisses only pairs its vote would), and the refine
// span's profile_pruned attribute counts the stage's dismissals.
func TestOfferProfileStage(t *testing.T) {
	targets, windows := fixture(t, 12, 6, 4)
	base, err := archive.New(archive.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	profiled := make([][]*archive.Entry, len(windows))
	for w, win := range windows {
		for _, e := range win {
			id, ok, err := base.Put(e.Summary)
			if err != nil || !ok || id != e.ID {
				t.Fatalf("put: id %d (want %d), archived %v, %v", id, e.ID, ok, err)
			}
			profiled[w] = append(profiled[w], base.Get(id))
		}
	}
	run := func(windows [][]*archive.Entry) (evs [][]Event, st Stats, stagePruned, pruned int64) {
		reg, err := NewRegistry(Config{Dim: 2, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var subs []*Subscription
		var got []func() []Event
		for i, tgt := range targets {
			w := match.EqualWeights()
			s, err := reg.Subscribe(Options{Target: tgt, Threshold: 0.1 + 0.1*float64(i%4), Weights: &w})
			if err != nil {
				t.Fatal(err)
			}
			subs, got = append(subs, s), append(got, collect(s))
		}
		for _, win := range windows {
			tr := trace.New(trace.SubEval, "sub.window", trace.ID{})
			if err := reg.OfferTraced(win, tr); err != nil {
				t.Fatal(err)
			}
			td, _ := tr.Finish()
			n, _ := td.Span("refine").Int("profile_pruned")
			p, _ := td.Span("refine").Int("pruned")
			stagePruned, pruned = stagePruned+n, pruned+p
		}
		for i, s := range subs {
			s.Sync()
			s.Cancel()
			evs = append(evs, stripPayload(got[i]()))
		}
		st = reg.Stats()
		st.LastEval, st.TotalEval = 0, 0
		return evs, st, stagePruned, pruned
	}
	wantEvs, wantSt, none, _ := run(windows)
	gotEvs, gotSt, stagePruned, pruned := run(profiled)
	if !reflect.DeepEqual(gotEvs, wantEvs) || gotSt != wantSt {
		t.Fatalf("with profiles: %v events, stats %+v; without: %v, %+v", gotEvs, gotSt, wantEvs, wantSt)
	}
	if none != 0 || stagePruned == 0 || stagePruned > pruned || uint64(pruned) != gotSt.Pruned {
		t.Fatalf("profile_pruned %d without profiles, %d with (of %d pruned, stats %+v)", none, stagePruned, pruned, gotSt)
	}
	t.Logf("%d of %d pruned pairs dismissed by the profile stage; stats %+v", stagePruned, pruned, gotSt)
}
