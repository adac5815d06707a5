package sub

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/match"
)

// TestProbeMatchesBruteForce: under random Subscribe / Unsubscribe churn
// across several weight classes, the probe's pairs equal a brute force
// over every (subscription, entry) pair — the exact cluster-feature gate
// at the subscription's own threshold, plus MBR overlap for
// position-sensitive metrics — in (subscription id, entry index) order.
func TestProbeMatchesBruteForce(t *testing.T) {
	targets, windows := fixture(t, 16, 6, 6)
	var entries []*archive.Entry
	for _, win := range windows {
		entries = append(entries, win...)
	}
	weights := []match.Weights{
		match.EqualWeights(),
		{PositionSensitive: true, Volume: 0.25, Status: 0.25, Density: 0.25, Connectivity: 0.25},
		{Volume: 0.7, Status: 0.1, Density: 0.1, Connectivity: 0.1},
		{PositionSensitive: true, Density: 1},
	}
	type key struct {
		sub int64
		ei  int
	}
	for _, workers := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(41 + workers)))
		reg, err := NewRegistry(Config{Dim: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		live := map[int64]*Subscription{}
		pairs := 0
		for step := 0; step < 300; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				ids := make([]int64, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				id := ids[rng.Intn(len(ids))]
				if !reg.Unsubscribe(id) {
					t.Fatalf("step %d: Unsubscribe(%d) = false", step, id)
				}
				delete(live, id)
			} else {
				w := weights[rng.Intn(len(weights))]
				o := Options{Weights: &w, Threshold: rng.Float64(), Track: rng.Intn(8) == 0}
				if !o.Track || rng.Intn(2) == 0 {
					o.Target = targets[rng.Intn(len(targets))]
				}
				s, err := reg.Subscribe(o)
				if err != nil {
					t.Fatal(err)
				}
				live[s.ID()] = s
			}

			lo := rng.Intn(len(entries))
			es := entries[lo : lo+1+rng.Intn(len(entries)-lo)]
			reg.mu.RLock()
			var got []key
			if len(reg.classes) > 0 {
				for _, p := range reg.probeLocked(es) {
					got = append(got, key{p.s.id, p.ei})
				}
			}
			reg.mu.RUnlock()

			var want []key
			ids := make([]int64, 0, len(live))
			for id, s := range live {
				if s.matchEv {
					ids = append(ids, id)
				}
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				s := live[id]
				for ei, e := range es {
					if s.weights.PositionSensitive && !s.target.MBR().Intersects(e.MBR) {
						continue
					}
					if match.FeatureDistance(s.feat, e.Features.Vector(), s.weights) <= s.thresh {
						want = append(want, key{id, ei})
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers %d step %d: probe pairs %v, brute force %v", workers, step, got, want)
			}
			pairs += len(want)
		}
		reg.Close()
		if pairs == 0 {
			t.Fatalf("workers %d: no pair survived any probe; the comparison is vacuous", workers)
		}
	}
}
