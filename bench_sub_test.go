// Standing-query benchmarks: per-window evaluation cost of the
// subscription registry as the registered population and the worker
// count grow. They stay because they sweep 100–4 000 subscriptions, where
// the benchmark harness's alerts_sub workload registers at most 64.
//
//	BenchmarkSubOffer/subsN/workersK — one window (8 new clusters)
//	    evaluated against N standing subscriptions across K workers;
//	    events_per_sec is the delivery rate implied by the eval time
//	    alone (delivery itself is asynchronous).
//	BenchmarkSubScanAll/subsN — the probe-free baseline: every
//	    (subscription, new cluster) pair pays the cluster-feature gate,
//	    what a registry without the range probe would do per window.
package streamsum

import (
	"fmt"
	"math/rand"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/grid"
	"streamsum/internal/match"
	"streamsum/internal/sgs"
	"streamsum/internal/sub"
)

const (
	subThetaR = 0.5
	subThetaC = 3
)

// subBenchFixture builds the subscription targets and a rotating pool of
// "newly archived" windows from 32 cluster families of widely varying
// size and spread (so the feature index separates them) — window entries
// are cell-aligned translations of the family clouds, so same-family
// subscriptions fire at near-zero distance while cross-family pairs are
// pruned by the inverted index or the feature gate.
func subBenchFixture(tb testing.TB) (targets []*sgs.Summary, windows [][]*archive.Entry) {
	tb.Helper()
	rng := rand.New(rand.NewSource(2011))
	geo, err := grid.NewGeometry(2, subThetaR)
	if err != nil {
		tb.Fatal(err)
	}
	side := geo.Side()
	const fams = 32
	clouds := make([][]Point, fams)
	summaryOf := func(pts []Point, id int64) *sgs.Summary {
		cls, err := SummarizeStatic(pts, subThetaR, subThetaC)
		if err != nil || len(cls) == 0 {
			tb.Fatalf("fixture cloud produced no cluster: %v", err)
		}
		best := 0
		for i := range cls {
			if len(cls[i].Members) > len(cls[best].Members) {
				best = i
			}
		}
		s := cls[best].Summary
		s.ID = id
		return s
	}
	for f := range clouds {
		n := 60 + 15*f // 60..525 points: features span several octaves
		spread := 0.5 + 0.05*float64(f)
		cx, cy := float64(f%8)*40, float64(f/8)*40
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
		}
		clouds[f] = pts
	}
	// One target in eight watches a family (it fires whenever that family
	// recurs); the rest watch independent random blobs of widely varying
	// size — registered and indexed, but never matching, like most of a
	// real monitoring deployment's standing queries at any given window.
	for i := 0; i < 256; i++ {
		if i%8 == 0 {
			targets = append(targets, summaryOf(clouds[i%fams], int64(1000+i)))
			continue
		}
		n := 40 + rng.Intn(560)
		spread := 0.4 + rng.Float64()*1.6
		cx, cy := 400+rng.Float64()*200, 400+rng.Float64()*200
		pts := make([]Point, n)
		for j := range pts {
			pts[j] = Point{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
		}
		targets = append(targets, summaryOf(pts, int64(1000+i)))
	}
	id := int64(0)
	for w := 0; w < 8; w++ {
		var win []*archive.Entry
		for c := 0; c < 8; c++ {
			f := (w*8 + c) % fams
			dx := float64((w+c)%5) * 3 * side // integer cell multiples
			dy := float64(c%3) * 2 * side
			pts := make([]Point, len(clouds[f]))
			for i, p := range clouds[f] {
				pts[i] = Point{p[0] + dx, p[1] + dy}
			}
			s := summaryOf(pts, id)
			id++
			win = append(win, &archive.Entry{
				ID: s.ID, Summary: s, MBR: s.MBR(), Features: s.Features(),
				Bytes: sgs.EncodedSize(s),
			})
		}
		windows = append(windows, win)
	}
	return targets, windows
}

func BenchmarkSubOffer(b *testing.B) {
	targets, windows := subBenchFixture(b)
	for _, nsubs := range []int{100, 1000, 4000} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("subs%d/workers%d", nsubs, workers), func(b *testing.B) {
				reg, err := sub.NewRegistry(sub.Config{Dim: 2, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < nsubs; i++ {
					s, err := reg.Subscribe(sub.Options{
						Target:    targets[i%len(targets)],
						Threshold: 0.08 + 0.04*float64(i%3),
					})
					if err != nil {
						b.Fatal(err)
					}
					go func() { // drain: delivery must not backlog the bench
						for range s.Events() {
						}
					}()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := reg.Offer(windows[i%len(windows)]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := reg.Stats()
				if st.Windows > 0 && st.TotalEval > 0 {
					b.ReportMetric(float64(st.Events)/st.TotalEval.Seconds(), "events/sec")
					b.ReportMetric(float64(st.Candidates)/float64(st.Windows), "pairs/window")
				}
				reg.Close()
			})
		}
	}
}

// BenchmarkSubScanAll is the probe-free per-window cost: every
// (subscription, cluster) pair pays the exact cluster-feature gate (and
// survivors the refine), i.e. inverted matching with the range pruning
// turned off.
func BenchmarkSubScanAll(b *testing.B) {
	targets, windows := subBenchFixture(b)
	for _, nsubs := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("subs%d", nsubs), func(b *testing.B) {
			w := match.EqualWeights()
			type regd struct {
				feat   [4]float64
				target *sgs.Summary
				thresh float64
			}
			subs := make([]regd, nsubs)
			for i := range subs {
				t := targets[i%len(targets)]
				subs[i] = regd{t.Features().Vector(), t, 0.08 + 0.04*float64(i%3)}
			}
			b.ResetTimer()
			events := 0
			for i := 0; i < b.N; i++ {
				for _, e := range windows[i%len(windows)] {
					ev := e.Features.Vector()
					for _, s := range subs {
						if match.FeatureDistance(s.feat, ev, w) > s.thresh {
							continue
						}
						if match.RefineDistance(s.target, e.Summary, w, match.DefaultAlignBudget) <= s.thresh {
							events++
						}
					}
				}
			}
			if events == 0 && b.N > 8 {
				b.Fatal("fixture produced no events; baseline is vacuous")
			}
		})
	}
}
