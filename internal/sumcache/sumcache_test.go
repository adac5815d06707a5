package sumcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"streamsum/internal/sgs"
)

// testSummary returns a small distinguishable summary; the cache never
// inspects it, it only needs stable pointers.
func testSummary(id int64) *sgs.Summary {
	return &sgs.Summary{ID: id, Dim: 2}
}

func TestGetOrLoadCachesPerResidency(t *testing.T) {
	c := New(1 << 20)
	if c == nil {
		t.Fatal("New returned a disabled cache for a positive budget")
	}
	owner := new(int)
	loads := 0
	load := func() (*sgs.Summary, error) { loads++; return testSummary(7), nil }
	first, err := c.GetOrLoad(owner, 7, 100, load)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.GetOrLoad(owner, 7, 100, load)
	if err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	if first != again {
		t.Fatal("repeated GetOrLoad returned a different summary pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDistinctOwnersAreDistinctKeys(t *testing.T) {
	c := New(1 << 20)
	a, b := new(int), new(int)
	loads := 0
	for _, o := range []any{a, b} {
		if _, err := c.GetOrLoad(o, 1, 10, func() (*sgs.Summary, error) {
			loads++
			return testSummary(1), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if loads != 2 {
		t.Fatalf("same id under different owners loaded %d times, want 2", loads)
	}
}

func TestEvictionKeepsBytesUnderBudget(t *testing.T) {
	const budget = 8 * 64 // 64 bytes per shard
	c := New(budget)
	// Three entries of 40 bytes landing in the same shard (ids ≡ 0 mod
	// NumShards): the third insert must evict the least recent.
	for i := int64(0); i < 3; i++ {
		id := i * NumShards
		if _, err := c.GetOrLoad("o", id, 40, func() (*sgs.Summary, error) {
			return testSummary(id), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.Bytes, budget)
	}
	if st.Evicted == 0 {
		t.Fatal("over-budget inserts evicted nothing")
	}
	// The survivor set is the most recent one (40 bytes fits, 80 does not).
	if st.Entries != 1 || st.Bytes != 40 {
		t.Fatalf("want 1 resident entry of 40 bytes, got %+v", st)
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	c := New(8 * 100)
	load := func(id int64) func() (*sgs.Summary, error) {
		return func() (*sgs.Summary, error) { return testSummary(id), nil }
	}
	// Two 50-byte entries fill shard 0; touching the first makes the
	// second the victim when a third arrives.
	mustLoad := func(id int64, wantLoad bool) {
		loaded := false
		if _, err := c.GetOrLoad("o", id, 50, func() (*sgs.Summary, error) {
			loaded = true
			return load(id)()
		}); err != nil {
			t.Fatal(err)
		}
		if loaded != wantLoad {
			t.Fatalf("id %d: loaded=%v want %v", id, loaded, wantLoad)
		}
	}
	mustLoad(0, true)
	mustLoad(NumShards, true)
	mustLoad(0, false)          // refresh 0
	mustLoad(2*NumShards, true) // evicts NumShards, not 0
	mustLoad(0, false)          // still resident
	mustLoad(NumShards, true)   // was evicted
}

func TestOversizeEntryServedUncached(t *testing.T) {
	c := New(8 * 32) // 32 bytes per shard
	loads := 0
	for i := 0; i < 2; i++ {
		sum, err := c.GetOrLoad("o", 3, 1000, func() (*sgs.Summary, error) {
			loads++
			return testSummary(3), nil
		})
		if err != nil || sum == nil {
			t.Fatalf("oversize load %d: sum=%v err=%v", i, sum, err)
		}
	}
	if loads != 2 {
		t.Fatalf("oversize entry loaded %d times, want 2 (never retained)", loads)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize entry left residue: %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	load := func() (*sgs.Summary, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return testSummary(1), nil
	}
	if _, err := c.GetOrLoad("o", 1, 10, load); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	sum, err := c.GetOrLoad("o", 1, 10, load)
	if err != nil || sum == nil {
		t.Fatalf("retry after error: sum=%v err=%v", sum, err)
	}
	if calls != 2 {
		t.Fatalf("loader ran %d times, want 2", calls)
	}
}

func TestSingleflightDecode(t *testing.T) {
	c := New(1 << 20)
	var loads atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	sums := make([]*sgs.Summary, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sum, err := c.GetOrLoad("o", 9, 10, func() (*sgs.Summary, error) {
				loads.Add(1)
				<-release
				return testSummary(9), nil
			})
			if err != nil {
				panic(err)
			}
			sums[i] = sum
		}(i)
	}
	// Let the flight start, then release every waiter at once.
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("concurrent GetOrLoad decoded %d times, want 1", n)
	}
	for i := 1; i < waiters; i++ {
		if sums[i] != sums[0] {
			t.Fatal("waiters received different summary pointers")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("stats %+v: want 1 miss, %d hits", st, waiters-1)
	}
}

func TestInvalidateOwner(t *testing.T) {
	c := New(1 << 20)
	a, b := new(int), new(int)
	for i := int64(0); i < 10; i++ {
		owner := any(a)
		if i%2 == 1 {
			owner = b
		}
		if _, err := c.GetOrLoad(owner, i, 10, func() (*sgs.Summary, error) {
			return testSummary(i), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.InvalidateOwner(a)
	st := c.Stats()
	if st.Entries != 5 || st.Bytes != 50 {
		t.Fatalf("after invalidating owner a: %+v", st)
	}
	// Entries of a reload; entries of b still hit.
	loads := 0
	for i := int64(0); i < 10; i++ {
		owner := any(a)
		if i%2 == 1 {
			owner = b
		}
		if _, err := c.GetOrLoad(owner, i, 10, func() (*sgs.Summary, error) {
			loads++
			return testSummary(i), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if loads != 5 {
		t.Fatalf("reloaded %d entries, want the 5 invalidated ones", loads)
	}
}

func TestInvalidateID(t *testing.T) {
	c := New(1 << 20)
	for i := int64(0); i < 4; i++ {
		if _, err := c.GetOrLoad("o", i, 10, func() (*sgs.Summary, error) {
			return testSummary(i), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.InvalidateID(2)
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 30 {
		t.Fatalf("after InvalidateID: %+v", st)
	}
}

func TestDisabledCache(t *testing.T) {
	var c *Cache // nil: the disabled cache
	loads := 0
	for i := 0; i < 2; i++ {
		sum, err := c.GetOrLoad("o", 1, 10, func() (*sgs.Summary, error) {
			loads++
			return testSummary(1), nil
		})
		if err != nil || sum == nil {
			t.Fatalf("nil cache: sum=%v err=%v", sum, err)
		}
	}
	if loads != 2 {
		t.Fatalf("nil cache memoized: %d loads", loads)
	}
	c.InvalidateOwner("o")
	c.InvalidateID(1)
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
	if c.Bytes() != 0 || c.Budget() != 0 {
		t.Fatal("nil cache reports residency")
	}

	if New(0) != nil || New(-1) != nil {
		t.Fatal("a non-positive budget must disable the cache")
	}
}

// TestConcurrentChurn hammers one small cache from many goroutines with
// overlapping keys, invalidations and an over-tight budget — run under
// -race in CI. Correctness here is "no race, no panic, budget held".
func TestConcurrentChurn(t *testing.T) {
	c := New(8 * 64)
	owners := [3]any{new(int), new(int), new(int)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := int64(i % 37)
				owner := owners[i%3]
				sum, err := c.GetOrLoad(owner, id, 40, func() (*sgs.Summary, error) {
					return testSummary(id), nil
				})
				if err != nil || sum == nil || sum.ID != id {
					panic(fmt.Sprintf("g%d i%d: sum=%v err=%v", g, i, sum, err))
				}
				if i%97 == 0 {
					c.InvalidateOwner(owner)
				}
				if i%61 == 0 {
					c.InvalidateID(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 8*64 {
		t.Fatalf("resident bytes %d exceed budget after churn", st.Bytes)
	}
}
