package streamsum

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/core"
	"streamsum/internal/gen"
	"streamsum/internal/match"
	"streamsum/internal/sgs"
	"streamsum/internal/stream"
	"streamsum/internal/sub"
	"streamsum/internal/trace"
	"streamsum/internal/window"
)

// subTargets runs the stream once without subscriptions and returns a
// few archived summaries to use as standing-query targets.
func subTargets(t *testing.T, n int) []*Summary {
	t.Helper()
	eng, err := New(Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000, Archive: &ArchiveOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	data := gen.GMTI(gen.GMTIConfig{Seed: 21}, 12000)
	if _, err := eng.PushBatch(data.Points, nil); err != nil {
		t.Fatal(err)
	}
	base := eng.PatternBase()
	if base.Len() < n {
		t.Fatalf("fixture archived only %d clusters", base.Len())
	}
	var out []*Summary
	step := base.Len() / n
	for i := 0; i < n; i++ {
		e := base.Get(int64(i * step))
		if e == nil {
			t.Fatalf("no archived cluster %d", i*step)
		}
		out = append(out, e.Summary)
	}
	return out
}

type subRun struct {
	ids    []int64
	seqs   []uint64
	dists  []float64
	sums   [][]byte // marshaled entry summaries
	target *Summary
	thresh float64
	w      *Weights
}

// runSubscribed ingests the fixture stream with the given subscriptions
// registered up front and returns each one's delivered event stream.
func runSubscribed(t *testing.T, workers int, targets []*Summary, threshs []float64, weights []*Weights) []subRun {
	t.Helper()
	eng, err := New(Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000,
		Archive: &ArchiveOptions{}, SubWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]subRun, len(targets))
	subs := make([]*Subscription, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		runs[i] = subRun{target: targets[i], thresh: threshs[i], w: weights[i]}
		s, err := eng.Subscribe(SubscribeOptions{Target: targets[i], Threshold: threshs[i], Weights: weights[i]})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
		wg.Add(1)
		go func(i int, s *Subscription) {
			defer wg.Done()
			for ev := range s.Events() {
				runs[i].ids = append(runs[i].ids, ev.EntryID)
				runs[i].seqs = append(runs[i].seqs, ev.Seq)
				runs[i].dists = append(runs[i].dists, ev.Distance)
				sum := ev.Entry.Summary
				if sum == nil {
					t.Errorf("event for entry %d carries no summary", ev.EntryID)
					return
				}
				runs[i].sums = append(runs[i].sums, sgs.Marshal(sum))
			}
		}(i, s)
	}
	data := gen.GMTI(gen.GMTIConfig{Seed: 21}, 12000)
	for lo := 0; lo+1000 <= len(data.Points); lo += 1000 {
		if _, err := eng.PushBatch(data.Points[lo:lo+1000], nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		s.Sync()
		s.Cancel()
	}
	wg.Wait()
	// The thresholds must be low enough for the refine phase to dismiss
	// pairs by bound, or the equivalences below say nothing about pruning.
	if st := eng.SubscriptionStats(); st.Pruned == 0 || st.Pruned >= st.Refined {
		t.Fatalf("pruned %d of %d refined pairs: fixture does not exercise both outcomes", st.Pruned, st.Refined)
	}

	// Cross-check against a full scan of the final archive: exactly the
	// entries within threshold (gate + the unpruned grid-level distance)
	// must have produced events, in archive order.
	snap := eng.PatternBase().Snapshot()
	for i := range runs {
		w := EqualWeights()
		if runs[i].w != nil {
			w = *runs[i].w
		}
		tf := runs[i].target.Features().Vector()
		tmbr := runs[i].target.MBR()
		var want []int64
		snap.All(func(e *ArchiveEntry) bool {
			if w.PositionSensitive && !tmbr.Intersects(e.MBR) {
				return true
			}
			if match.FeatureDistance(tf, e.Features.Vector(), w) > runs[i].thresh {
				return true
			}
			if match.RefineDistance(runs[i].target, e.Summary, w, match.DefaultAlignBudget) <= runs[i].thresh {
				want = append(want, e.ID)
			}
			return true
		})
		if !reflect.DeepEqual(runs[i].ids, want) {
			t.Fatalf("sub %d (workers=%d): events %v, full-scan expects %v", i, workers, runs[i].ids, want)
		}
		for j := 1; j < len(runs[i].seqs); j++ {
			if runs[i].seqs[j] < runs[i].seqs[j-1] {
				t.Fatalf("sub %d: window sequence went backwards at %d", i, j)
			}
		}
	}
	return runs
}

// TestSubscribeDeterministicAcrossSubWorkers: a standing query's event
// stream — ids, window sequence, distances, and the summaries the events
// carry — is byte-identical at SubWorkers 1, 2 and 8, and always equals
// what a one-shot full scan of the final archive would select.
func TestSubscribeDeterministicAcrossSubWorkers(t *testing.T) {
	targets := subTargets(t, 6)
	threshs := make([]float64, len(targets))
	weights := make([]*Weights, len(targets))
	pos := Weights{PositionSensitive: true, Volume: 0.25, Status: 0.25, Density: 0.25, Connectivity: 0.25}
	for i := range targets {
		threshs[i] = 0.2 + 0.1*float64(i%3)
		if i%3 == 2 {
			weights[i] = &pos
		}
	}
	ref := runSubscribed(t, 1, targets, threshs, weights)
	total := 0
	for _, r := range ref {
		total += len(r.ids)
	}
	if total == 0 {
		t.Fatal("fixture produced no subscription events; test is vacuous")
	}
	for _, workers := range []int{2, 8} {
		got := runSubscribed(t, workers, targets, threshs, weights)
		for i := range ref {
			if !reflect.DeepEqual(got[i].ids, ref[i].ids) ||
				!reflect.DeepEqual(got[i].seqs, ref[i].seqs) ||
				!reflect.DeepEqual(got[i].dists, ref[i].dists) {
				t.Fatalf("workers=%d sub %d: event stream diverges from workers=1", workers, i)
			}
			for j := range ref[i].sums {
				if !bytes.Equal(got[i].sums[j], ref[i].sums[j]) {
					t.Fatalf("workers=%d sub %d: event %d summary bytes differ", workers, i, j)
				}
			}
		}
	}
}

// TestSubscribeIncremental: a subscription registered mid-stream sees
// only clusters archived after it — never the history.
func TestSubscribeIncremental(t *testing.T) {
	targets := subTargets(t, 1)
	eng, err := New(Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000, Archive: &ArchiveOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	data := gen.GMTI(gen.GMTIConfig{Seed: 21}, 12000)
	half := len(data.Points) / 2
	if _, err := eng.PushBatch(data.Points[:half], nil); err != nil {
		t.Fatal(err)
	}
	already := int64(eng.PatternBase().Len())
	if already == 0 {
		t.Fatal("no history before subscribing")
	}
	s, err := eng.Subscribe(SubscribeOptions{Target: targets[0], Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range s.Events() {
			got = append(got, ev.EntryID)
		}
	}()
	if _, err := eng.PushBatch(data.Points[half:], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Sync()
	s.Cancel()
	<-done
	if len(got) == 0 {
		t.Fatal("no events after subscribing; fixture is vacuous")
	}
	for _, id := range got {
		if id < already {
			t.Fatalf("event for pre-subscription entry %d (history had %d entries)", id, already)
		}
	}
}

// TestSubscribeChurnSharded races subscribe/unsubscribe churn against
// 4-shard ingestion into one pattern base (run under -race in CI), and
// checks that the stable subscriptions' event multisets are identical
// at SubWorkers 1, 2 and 8 — shard interleaving may reorder archiving
// (and so archive ids), but never changes what a standing query sees.
func TestSubscribeChurnSharded(t *testing.T) {
	// Targets come from a plain run of the same sharded configuration, so
	// the standing queries actually fire against the churn runs' clusters.
	targets := func() []*Summary {
		base, err := archive.New(archive.Config{Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]stream.Processor, 4)
		for i := range procs {
			eng, err := core.New(core.Config{
				Dim: 2, ThetaR: 1.0, ThetaC: 4,
				Window: window.Spec{Win: 2000, Slide: 500},
			})
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = eng
		}
		sh := &stream.Sharded{Procs: procs, OnWindow: stream.ArchiveWindows(base, nil), FlushTail: true}
		data := gen.GMTI(gen.GMTIConfig{Seed: 9}, 10000)
		if _, err := sh.Run(context.Background(), stream.FromSlice(data.Points, data.TS)); err != nil {
			t.Fatal(err)
		}
		if base.Len() < 4 {
			t.Fatalf("sharded fixture archived only %d clusters", base.Len())
		}
		var out []*Summary
		step := base.Len() / 4
		for i := 0; i < 4; i++ {
			out = append(out, base.Get(int64(i*step)).Summary)
		}
		return out
	}()
	run := func(workers int) [][]string {
		reg, err := sub.NewRegistry(sub.Config{Dim: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		base, err := archive.New(archive.Config{Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		stable := make([]*sub.Subscription, len(targets))
		collected := make([][]string, len(targets))
		var wg sync.WaitGroup
		for i, tgt := range targets {
			s, err := reg.Subscribe(sub.Options{Target: tgt, Threshold: 0.35})
			if err != nil {
				t.Fatal(err)
			}
			stable[i] = s
			wg.Add(1)
			go func(i int, s *sub.Subscription) {
				defer wg.Done()
				for ev := range s.Events() {
					sum, err := ev.Entry.LoadSummary()
					if err != nil {
						t.Error(err)
						return
					}
					// Canonical form: archive ids differ across shard
					// interleavings, the summaries do not.
					c := sum.Clone()
					c.ID = 0
					collected[i] = append(collected[i], fmt.Sprintf("%.9f/%x", ev.Distance, sgs.Marshal(c)))
				}
			}(i, s)
		}

		procs := make([]stream.Processor, 4)
		for i := range procs {
			eng, err := core.New(core.Config{
				Dim: 2, ThetaR: 1.0, ThetaC: 4,
				Window: window.Spec{Win: 2000, Slide: 500},
			})
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = eng
		}
		sh := &stream.Sharded{
			Procs: procs,
			OnWindow: stream.ArchiveWindowsEval(base,
				func(_ int, _ *core.WindowResult, entries []*archive.Entry, tr *trace.Trace) error {
					return reg.OfferTraced(entries, tr)
				}, nil),
			FlushTail: true,
		}

		// Churners: subscribe and unsubscribe continuously during the run,
		// each keeping a small rolling window of live subscriptions (an
		// unbounded backlog would make every window's refine phase scale
		// with the churn rate instead of the subscription population).
		stop := make(chan struct{})
		var churn sync.WaitGroup
		for g := 0; g < 3; g++ {
			churn.Add(1)
			go func(g int) {
				defer churn.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				var kept []*sub.Subscription
				defer func() {
					for _, s := range kept {
						s.Cancel()
					}
				}()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s, err := reg.Subscribe(sub.Options{
						Target:    targets[rng.Intn(len(targets))],
						Threshold: 0.1 + 0.2*rng.Float64(),
						Track:     i%2 == 0,
					})
					if err != nil {
						t.Error(err)
						return
					}
					go func() {
						for range s.Events() {
						}
					}()
					kept = append(kept, s)
					if len(kept) > 8 {
						kept[0].Cancel()
						kept = kept[1:]
					}
				}
			}(g)
		}

		data := gen.GMTI(gen.GMTIConfig{Seed: 9}, 10000)
		if _, err := sh.Run(context.Background(), stream.FromSlice(data.Points, data.TS)); err != nil {
			t.Fatal(err)
		}
		close(stop)
		churn.Wait()
		for i, s := range stable {
			s.Sync()
			s.Cancel()
			_ = i
		}
		wg.Wait()
		reg.Close()
		for i := range collected {
			sort.Strings(collected[i])
		}
		return collected
	}

	ref := run(1)
	total := 0
	for _, evs := range ref {
		total += len(evs)
	}
	if total == 0 {
		t.Fatal("stable subscriptions saw no events; fixture is vacuous")
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range ref {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("workers=%d: stable sub %d event multiset diverges (%d vs %d events)",
					workers, i, len(got[i]), len(ref[i]))
			}
		}
	}
}

// TestSubscribeTrack: Track subscriptions receive evolution events;
// within a window, match events precede them; the tracker only runs
// while someone listens.
func TestSubscribeTrack(t *testing.T) {
	targets := subTargets(t, 1)
	eng, err := New(Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000, Archive: &ArchiveOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Subscribe(SubscribeOptions{Target: targets[0], Threshold: 0.4, Track: true})
	if err != nil {
		t.Fatal(err)
	}
	var evs []SubEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range s.Events() {
			evs = append(evs, ev)
		}
	}()
	data := gen.GMTI(gen.GMTIConfig{Seed: 21}, 12000)
	if _, err := eng.PushBatch(data.Points, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Sync()
	s.Cancel()
	<-done

	var matches, evolutions int
	lastKindBySeq := map[uint64]SubEventKind{}
	for _, ev := range evs {
		switch ev.Kind {
		case SubMatch:
			matches++
			if lastKindBySeq[ev.Seq] == SubEvolution {
				t.Fatalf("match event after evolution event within window %d", ev.Seq)
			}
		case SubEvolution:
			evolutions++
			if ev.Track == nil {
				t.Fatal("evolution event without a track payload")
			}
		}
		lastKindBySeq[ev.Seq] = ev.Kind
	}
	if evolutions == 0 {
		t.Fatal("no evolution events delivered to a Track subscription")
	}
	if matches == 0 {
		t.Fatal("no match events delivered; fixture is vacuous")
	}
	st := eng.SubscriptionStats()
	if st.Subscriptions != 0 || st.Events == 0 || st.Windows == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeQueryLanguage: FROM Stream parses into SubscribeOptions;
// FROM History is rejected by the subscription path and FROM Stream by
// the one-shot path.
func TestSubscribeQueryLanguage(t *testing.T) {
	so, ref, err := SubscribeOptionsFromQuery(
		"GIVEN DensityBasedCluster 7 SELECT DensityBasedClusters FROM Stream WHERE Distance <= 0.3 POSITION SENSITIVE")
	if err != nil {
		t.Fatal(err)
	}
	if ref != "7" || so.Threshold != 0.3 || so.Weights == nil || !so.Weights.PositionSensitive {
		t.Fatalf("parsed %+v ref %q", so, ref)
	}
	if _, _, err := SubscribeOptionsFromQuery(
		"GIVEN DensityBasedCluster 7 SELECT DensityBasedClusters FROM History WHERE Distance <= 0.3"); err == nil {
		t.Fatal("SubscribeOptionsFromQuery accepted a one-shot query")
	}
	if _, _, err := MatchOptionsFromQuery(
		"GIVEN DensityBasedCluster 7 SELECT DensityBasedClusters FROM Stream WHERE Distance <= 0.3"); err == nil {
		t.Fatal("MatchOptionsFromQuery accepted a standing query")
	}
	// An engine without a pattern base cannot register standing queries.
	eng, err := New(Options{Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 400, Slide: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(SubscribeOptions{Threshold: 0.2, Track: true}); err == nil {
		t.Fatal("Subscribe succeeded without a pattern base")
	}
}
