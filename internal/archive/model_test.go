package archive

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"streamsum/internal/geom"
)

// modelQuery is one random filter-phase question: a location box or a
// feature range, with an optional gate on the feature vector.
type modelQuery struct {
	location bool
	box      geom.MBR
	lo, hi   [4]float64
	gate     func([4]float64) bool
}

// inRange is the brute-force predicate the query's search must apply.
func (q modelQuery) inRange(e *Entry) bool {
	if q.location {
		return e.MBR.Intersects(q.box)
	}
	v := e.Features.Vector()
	for d := 0; d < 4; d++ {
		if v[d] < q.lo[d] || v[d] > q.hi[d] {
			return false
		}
	}
	return true
}

func randomQuery(rng *rand.Rand, all []*Entry) modelQuery {
	q := modelQuery{location: rng.Intn(2) == 0}
	if q.location {
		x, y := rng.Float64()*60-5, rng.Float64()*60-5
		w, h := rng.Float64()*20, rng.Float64()*20
		q.box = geom.MBR{Min: geom.Point{x, y}, Max: geom.Point{x + w, y + h}}
		if len(all) > 0 && rng.Intn(4) == 0 {
			// An entry's own box: hits at least that entry.
			q.box = all[rng.Intn(len(all))].MBR
		}
	} else {
		var v [4]float64
		if len(all) > 0 {
			v = all[rng.Intn(len(all))].Features.Vector()
		}
		for d := 0; d < 4; d++ {
			r := rng.Float64()
			q.lo[d], q.hi[d] = v[d]*(1-r), v[d]*(1+r)
			if rng.Intn(5) == 0 {
				q.hi[d] = math.Inf(1)
			}
		}
	}
	if rng.Intn(3) > 0 {
		cut := rng.Float64() * 40
		q.gate = func(v [4]float64) bool { return v[0] >= cut }
	}
	return q
}

// answer runs q on every filter shard of s and returns the visited ids
// (sorted) and the summed gate-independent counts. Only the memory tier
// (the first shard) has no zone, and a zone-skipped shard counts nothing.
func answer(t *testing.T, s *Snapshot, q modelQuery) (visited []int64, count int) {
	t.Helper()
	visit := func(e *Entry) bool { visited = append(visited, e.ID); return true }
	for i, sh := range s.FilterShards() {
		var n int
		var zone Zone
		if q.location {
			n, zone = sh.GatedSearchLocation(q.box, q.gate, visit)
		} else {
			n, zone = sh.GatedSearchFeatures(q.lo, q.hi, q.gate, visit)
		}
		if (zone == NoZone) != (i == 0) || zone == ZoneSkipped && n != 0 {
			t.Fatalf("shard %d (%s): zone %d with %d candidates", i, sh.Label(), zone, n)
		}
		count += n
	}
	sort.Slice(visited, func(i, j int) bool { return visited[i] < visited[j] })
	return visited, count
}

// snapshotState is everything checked about a pinned snapshot: FIFO ids,
// totals, and the answers to a fixed set of queries.
type snapshotState struct {
	ids          []int64
	n, bytes     int
	visits       [][]int64
	counts       []int
	gets         []bool
	searchVisits [][]int64
}

func stateOf(t *testing.T, s *Snapshot, qs []modelQuery, probe []int64) snapshotState {
	t.Helper()
	st := snapshotState{n: s.Len(), bytes: s.Bytes()}
	s.All(func(e *Entry) bool { st.ids = append(st.ids, e.ID); return true })
	for _, q := range qs {
		v, c := answer(t, s, q)
		st.visits = append(st.visits, v)
		st.counts = append(st.counts, c)
		var sv []int64
		collect := func(e *Entry) bool { sv = append(sv, e.ID); return true }
		if q.location {
			s.SearchLocation(q.box, collect)
		} else {
			s.SearchFeatures(q.lo, q.hi, collect)
		}
		sort.Slice(sv, func(i, j int) bool { return sv[i] < sv[j] })
		st.searchVisits = append(st.searchVisits, sv)
	}
	for _, id := range probe {
		st.gets = append(st.gets, s.Get(id) != nil)
	}
	return st
}

// TestModelRandomOps drives bases through random interleavings of Put,
// PutBatch, Remove, capacity eviction and store-backed demotion —
// including a flush that fails and restores its batch — against a plain
// FIFO model. After every step the fresh snapshot must agree with the
// model (All, Len, Get of live and gone ids) and every gated search must
// visit and count exactly the brute-force set over Snapshot.All; and a
// snapshot pinned before the step must answer exactly as it did then.
func TestModelRandomOps(t *testing.T) {
	sums := fixtureSummaries(t, 40, 77)
	type setup struct {
		name     string
		cfg      Config
		store    bool // attach a disk tier
		evicts   bool // memory-only capacity: the oldest entry dies
		noRemove bool // never Remove, so the dead head prefix grows until compacted
		breakAt  int  // step at which the store directory vanishes (0 = never)
	}
	setups := []setup{
		{name: "mem", cfg: Config{Dim: 2}},
		{name: "mem-capacity", cfg: Config{Dim: 2, Capacity: 24}, evicts: true},
		{name: "mem-capacity-no-remove", cfg: Config{Dim: 2, Capacity: 24}, evicts: true, noRemove: true},
		{name: "store-capacity-no-remove", cfg: Config{Dim: 2, Capacity: 16, StoreSegmentBytes: 4 << 10}, store: true, noRemove: true},
		{name: "store-capacity", cfg: Config{Dim: 2, Capacity: 16, StoreSegmentBytes: 4 << 10}, store: true},
		{name: "store-bytes", cfg: Config{Dim: 2, MaxMemBytes: 6 << 10, StoreSegmentBytes: 4 << 10}, store: true},
		{name: "store-flush-fails", cfg: Config{Dim: 2, Capacity: 16, StoreSegmentBytes: 4 << 10}, store: true, breakAt: 120},
	}
	const steps = 220
	for si, su := range setups {
		t.Run(su.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + si)))
			cfg := su.cfg
			dir := ""
			if su.store {
				dir = t.TempDir()
				cfg.StorePath = dir
			}
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			var live, gone []int64
			broken := false
			admit := func(id int64) {
				live = append(live, id)
				if su.evicts && len(live) > cfg.Capacity {
					gone = append(gone, live[0])
					live = live[1:]
				}
			}
			for step := 0; step < steps; step++ {
				pre := b.Snapshot()
				var preAll []*Entry
				pre.All(func(e *Entry) bool { preAll = append(preAll, e); return true })
				qs := make([]modelQuery, 6)
				for i := range qs {
					qs[i] = randomQuery(rng, preAll)
				}
				probe := []int64{b.nextIDForTest() + 1}
				for i := 0; i < 6; i++ {
					if len(live) > 0 {
						probe = append(probe, live[rng.Intn(len(live))])
					}
					if len(gone) > 0 {
						probe = append(probe, gone[rng.Intn(len(gone))])
					}
				}
				preState := stateOf(t, pre, qs, probe)

				if su.breakAt > 0 && step == su.breakAt {
					// Open segment files stay readable; every new segment
					// write, and so every later demotion, fails. A file the
					// background compactor creates meanwhile makes RemoveAll
					// fail with "directory not empty": try again.
					err := os.RemoveAll(dir)
					for try := 0; err != nil && try < 100; try++ {
						err = os.RemoveAll(dir)
					}
					if err != nil {
						t.Fatal(err)
					}
					broken = true
				}
				op := rng.Intn(20)
				switch {
				case op < 7:
					id, ok, err := b.Put(sums[rng.Intn(len(sums))])
					if err != nil && !broken {
						t.Fatalf("step %d: Put: %v", step, err)
					}
					if err == nil {
						if !ok {
							t.Fatalf("step %d: Put skipped with no selection policy", step)
						}
						admit(id)
					}
				case op < 12:
					lo := rng.Intn(len(sums))
					batch := sums[lo : lo+min(1+rng.Intn(6), len(sums)-lo)]
					ids, _, err := b.PutBatch(batch)
					if err != nil && !broken {
						t.Fatalf("step %d: PutBatch: %v", step, err)
					}
					for _, id := range ids {
						admit(id)
					}
				case op < 15 && len(live) > 0 && !broken && !su.noRemove:
					i := rng.Intn(len(live))
					id := live[i]
					if !b.Remove(id) {
						t.Fatalf("step %d: Remove(%d) of a live id = false", step, id)
					}
					live = append(live[:i:i], live[i+1:]...)
					gone = append(gone, id)
				case op < 16 && !broken && !su.noRemove:
					id := b.nextIDForTest() + 5
					if len(gone) > 0 && rng.Intn(2) == 0 {
						id = gone[rng.Intn(len(gone))]
					}
					if b.Remove(id) {
						t.Fatalf("step %d: Remove(%d) of a dead id = true", step, id)
					}
				case op < 18:
					err := b.DrainDemotions()
					if err != nil && !broken {
						t.Fatalf("step %d: DrainDemotions: %v", step, err)
					}
				}

				// The pinned snapshot has not moved.
				if got := stateOf(t, pre, qs, probe); !reflect.DeepEqual(got, preState) {
					t.Fatalf("step %d: snapshot pinned before the step changed:\nbefore %+v\nafter  %+v", step, preState, got)
				}
				checkModel(t, fmt.Sprintf("step %d", step), b.Snapshot(), live, gone, rng)
			}
			if su.breakAt > 0 {
				if err := b.DrainDemotions(); err == nil {
					t.Fatal("no demotion failed after the store directory vanished")
				}
				checkModel(t, "after failure", b.Snapshot(), live, gone, rng)
			}
			if ts := b.TierStats(); su.store && ts.SegEntries == 0 {
				t.Fatal("nothing was demoted; the store-backed setup is vacuous")
			}
		})
	}
}

// nextIDForTest returns the next id the base would assign.
func (b *Base) nextIDForTest() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextID
}

// checkModel compares a fresh snapshot with the model's live FIFO and
// gone ids, and every gated search on it with the brute force over All.
func checkModel(t *testing.T, stage string, s *Snapshot, live, gone []int64, rng *rand.Rand) {
	t.Helper()
	var all []*Entry
	var ids []int64
	s.All(func(e *Entry) bool {
		all = append(all, e)
		ids = append(ids, e.ID)
		return true
	})
	if s.Len() != len(live) || !slices.Equal(ids, live) {
		t.Fatalf("%s: All = %v (Len %d), model %v", stage, ids, s.Len(), live)
	}
	for _, id := range live {
		if e := s.Get(id); e == nil || e.ID != id {
			t.Fatalf("%s: Get(%d) = %v for a live id", stage, id, e)
		}
	}
	for _, id := range gone {
		if e := s.Get(id); e != nil {
			t.Fatalf("%s: Get(%d) found a removed or evicted id", stage, id)
		}
	}
	for i := 0; i < 8; i++ {
		q := randomQuery(rng, all)
		var want []int64
		wantCount := 0
		for _, e := range all {
			if !q.inRange(e) {
				continue
			}
			wantCount++
			if q.gate == nil || q.gate(e.Features.Vector()) {
				want = append(want, e.ID)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got, count := answer(t, s, q)
		if count != wantCount || !slices.Equal(got, want) {
			t.Fatalf("%s: query %+v: visited %v count %d, brute force %v count %d", stage, q, got, count, want, wantCount)
		}
	}
}
