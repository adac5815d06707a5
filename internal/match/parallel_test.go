package match

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// sameIDsAndDistances compares ids and distance bits.
func sameIDsAndDistances(got, want []Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			return false
		}
	}
	return true
}

// TestRunOnPinnedSnapshot verifies a query against a pinned snapshot is
// immune to concurrent archiving: results before and after further Puts
// are identical.
func TestRunOnPinnedSnapshot(t *testing.T) {
	b, sums := buildBase(t, 20, 12)
	snap := b.Snapshot()
	q := Query{Target: sums[0], Threshold: 1, Limit: 10}
	before, beforeStats, err := Run(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums[:10] {
		if _, _, err := b.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	after, afterStats, err := Run(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) || beforeStats != afterStats {
		t.Fatal("pinned snapshot observed concurrent Puts")
	}
	// The live base does see them.
	_, liveStats, err := Run(b.Snapshot(), q)
	if err != nil {
		t.Fatal(err)
	}
	if liveStats.IndexCandidates <= beforeStats.IndexCandidates {
		t.Fatalf("live base candidates %d not above snapshot's %d",
			liveStats.IndexCandidates, beforeStats.IndexCandidates)
	}
}

// TestRunConcurrentWithPuts drives matching queries while writer
// goroutines batch-append to the same base — under -race this proves
// the matcher never shares mutable state with the append path, and its
// completion proves there is no reader/writer deadlock.
func TestRunConcurrentWithPuts(t *testing.T) {
	b, sums := buildBase(t, 24, 13)
	base := b
	const writers, rounds = 3, 30

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, _, err := base.PutBatch(sums[(w+r)%16 : (w+r)%16+8]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var rg sync.WaitGroup
	for m := 0; m < 2; m++ {
		rg.Add(1)
		go func(m int) {
			defer rg.Done()
			for i := m; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := Query{Target: sums[i%len(sums)], Threshold: 0.5, Limit: 5, Workers: 2}
				if _, _, err := Run(base.Snapshot(), q); err != nil {
					t.Error(err)
					return
				}
			}
		}(m)
	}
	rg.Wait()
	if base.Len() <= 24 {
		t.Fatalf("Len = %d, concurrent PutBatches lost", base.Len())
	}
}
