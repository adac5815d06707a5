package streamsum

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"streamsum/internal/gen"
	"streamsum/internal/match"
)

// TestPutWithConcurrentMatching is the acceptance scenario for the
// snapshot-isolated pattern base: an engine archives every window into
// its base (one PutBatch per window) while analyst goroutines run
// matching queries against the same base the whole time. Run with
// -race; completion also proves the old reader/writer deadlock is gone.
func TestPutWithConcurrentMatching(t *testing.T) {
	eng, err := New(Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 600, Slide: 300,
		Archive: &ArchiveOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := eng.PatternBase()

	// Matching targets built independently of the stream.
	rng := rand.New(rand.NewSource(7))
	var pts []Point
	for i := 0; i < 300; i++ {
		pts = append(pts, Point{20 + rng.NormFloat64(), 20 + rng.NormFloat64()})
	}
	cls, err := SummarizeStatic(pts, 1.0, 4)
	if err != nil || len(cls) == 0 {
		t.Fatalf("no static target: %v", err)
	}
	target := cls[0].Summary

	data := gen.GMTI(gen.GMTIConfig{Seed: 3}, 12000)
	runDone := make(chan error, 1)
	go func() {
		for lo := 0; lo < len(data.Points); lo += 300 {
			if _, err := eng.PushBatch(data.Points[lo:lo+300], nil); err != nil {
				runDone <- err
				return
			}
		}
		_, err := eng.Flush()
		runDone <- err
	}()

	// Analysts hammer the base for the whole run: fresh-snapshot queries
	// and pinned-snapshot queries side by side.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := match.Query{Target: target, Threshold: 0.6, Limit: 5, Workers: 2}
				if m == 0 {
					if _, _, err := match.Run(base.Snapshot(), q); err != nil {
						t.Error(err)
						return
					}
				} else {
					snap := base.Snapshot()
					r1, s1, err := match.Run(snap, q)
					if err != nil {
						t.Error(err)
						return
					}
					r2, s2, err := match.Run(snap, q)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(r1, r2) || s1 != s2 {
						t.Error("same snapshot, different answers")
						return
					}
				}
			}
		}(m)
	}

	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if base.Len() == 0 {
		t.Fatal("run archived nothing")
	}
}
