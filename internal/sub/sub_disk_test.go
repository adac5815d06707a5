package sub

import (
	"reflect"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/grid"
	"streamsum/internal/match"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
	"streamsum/internal/trace"
)

// runOfferDiskResident archives the fixture's windows into store-backed
// bases whose memory tier is capped tightly enough that most entries are
// disk-resident (nil Summary — Offer's refine decodes them from their
// segments), then replays the windows as standing-query offers. Event
// streams must be identical across worker counts.
func runOfferDiskResident(t *testing.T) {
	t.Helper()
	const memCap = 2 << 10
	targets, windows := fixture(t, 12, 5, 4)
	var flat []*sgs.Summary
	for _, win := range windows {
		for _, e := range win {
			flat = append(flat, e.Summary)
		}
	}

	var reference [][]Event
	for _, workers := range []int{1, 2, 8} {
		base, err := archive.New(archive.Config{Dim: 2, StorePath: t.TempDir(), MaxMemBytes: memCap})
		if err != nil {
			t.Fatal(err)
		}
		ids, archived, err := base.PutBatch(flat)
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range archived {
			if !ok || ids[i] != int64(i) {
				t.Fatalf("put %d: ok=%v id=%d", i, ok, ids[i])
			}
		}
		if err := base.DrainDemotions(); err != nil {
			t.Fatal(err)
		}
		ts := base.TierStats()
		if ts.SegEntries == 0 {
			t.Fatalf("fixture never demoted: %+v", ts)
		}

		// Rebuild the windows from the snapshot: disk-resident entries
		// surface summary-free, so Offer's refine decodes them.
		byID := map[int64]*archive.Entry{}
		diskResident := 0
		base.Snapshot().All(func(e *archive.Entry) bool {
			byID[e.ID] = e
			if e.Summary == nil {
				diskResident++
			}
			return true
		})
		if diskResident == 0 {
			t.Fatal("every offered entry is memory-resident; test is vacuous")
		}

		reg, err := NewRegistry(Config{Dim: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var gots []func() []Event
		var ss []*Subscription
		for i, tgt := range targets {
			s, err := reg.Subscribe(Options{Target: tgt, Threshold: 0.1 + 0.05*float64(i%6)})
			if err != nil {
				t.Fatal(err)
			}
			ss = append(ss, s)
			gots = append(gots, collect(s))
		}
		id := int64(0)
		for _, win := range windows {
			offer := make([]*archive.Entry, 0, len(win))
			for range win {
				offer = append(offer, byID[id])
				id++
			}
			if err := reg.Offer(offer); err != nil {
				t.Fatal(err)
			}
		}
		streams := make([][]Event, len(ss))
		for i, s := range ss {
			s.Sync()
			s.Cancel()
			streams[i] = stripPayload(gots[i]())
		}

		if err := base.Close(); err != nil {
			t.Fatal(err)
		}

		if reference == nil {
			reference = streams
			continue
		}
		for i := range streams {
			if !reflect.DeepEqual(streams[i], reference[i]) {
				t.Fatalf("workers=%d sub %d: events diverge:\n got %v\nwant %v",
					workers, i, streams[i], reference[i])
			}
		}
	}
	total := 0
	for _, evs := range reference {
		total += len(evs)
	}
	if total == 0 {
		t.Fatal("fixture produced no match events at all; test is vacuous")
	}
}

// TestOfferDiskResident: standing-query delivery over disk-resident
// entries is byte-identical at every worker count.
func TestOfferDiskResident(t *testing.T) {
	runOfferDiskResident(t)
}

// TestOfferDiskResidentPread repeats the check with memory mapping
// disabled, so loads decode off the pooled pread path.
func TestOfferDiskResidentPread(t *testing.T) {
	prev := segstore.SetMmapEnabled(false)
	defer segstore.SetMmapEnabled(prev)
	runOfferDiskResident(t)
}

// TestOfferSizeBoundSkipsLoad: a disk-resident entry that passes a
// standing query's feature gate but fails the O(1) size bound is
// dismissed before its summary is loaded while it still counts as
// pruned, and a matching entry in the same window is loaded and
// delivered as before. A second offer of the same entries loads again:
// nothing retains a decoded disk summary.
func TestOfferSizeBoundSkipsLoad(t *testing.T) {
	// cells builds a summary of n core cells of population 4 in a row:
	// every size has the same density and connectivity.
	cells := func(n int) *sgs.Summary {
		s := &sgs.Summary{Dim: 2, Side: 1}
		for i := 0; i < n; i++ {
			s.Cells = append(s.Cells, sgs.Cell{
				Coord:      grid.CoordOf(int32(i), 0),
				Population: 4,
				Status:     sgs.CoreCell,
			})
		}
		return s
	}
	base, err := archive.New(archive.Config{Dim: 2, StorePath: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	// Entry 0 matches the one-cell target exactly; entry 1 has four
	// cells, so no alignment can bring it within 0.5 of the target
	// ((1+4−2)/(1+4−1) = 0.75).
	for _, s := range []*sgs.Summary{cells(1), cells(4)} {
		if _, ok, err := base.Put(s); err != nil || !ok {
			t.Fatalf("put: ok=%v err=%v", ok, err)
		}
	}
	if err := base.FlushMem(); err != nil {
		t.Fatal(err)
	}
	var offer []*archive.Entry
	base.Snapshot().All(func(e *archive.Entry) bool {
		if e.Summary != nil {
			t.Fatalf("entry %d is memory-resident after FlushMem", e.ID)
		}
		offer = append(offer, e)
		return true
	})

	reg, err := NewRegistry(Config{Dim: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Volume and status carry no weight, so both entries pass the gate.
	w := match.Weights{Density: 0.5, Connectivity: 0.5}
	s, err := reg.Subscribe(Options{Target: cells(1), Threshold: 0.5, Weights: &w})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(s)
	for round := 1; round <= 2; round++ {
		tr := trace.New(trace.SubEval, "sub.window", trace.ID{})
		if err := reg.OfferTraced(offer, tr); err != nil {
			t.Fatal(err)
		}
		td, _ := tr.Finish()
		refine := td.Span("refine")
		if refine == nil {
			t.Fatalf("round %d: no refine span: %+v", round, td.Spans)
		}
		loads, _ := refine.Int("disk_loads")
		sizePruned, _ := refine.Int("size_pruned")
		if loads != 1 || sizePruned != 1 {
			t.Fatalf("round %d: disk loads %d, size-pruned %d: want only the matching entry loaded", round, loads, sizePruned)
		}
	}
	s.Sync()
	s.Cancel()

	evs := stripPayload(got())
	if len(evs) != 2 || evs[0].EntryID != offer[0].ID || evs[0].Distance != 0 || evs[1].EntryID != offer[0].ID {
		t.Fatalf("events %+v, want one exact match of entry %d per offer", evs, offer[0].ID)
	}
	if st := reg.Stats(); st.Refined != 4 || st.Pruned != 2 {
		t.Fatalf("stats %+v: want 4 pairs refined, 2 pruned", st)
	}
}
