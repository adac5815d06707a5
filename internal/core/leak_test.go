package core

import (
	"math/rand"
	"testing"

	"streamsum/internal/window"
)

// TestMetaDataBounded runs a long stream and asserts the extractor's
// meta-data stays proportional to the live window content — the paper's
// claim that C-SGS maintains no view-count-dependent or history-dependent
// state (§5.2, §8.1). A leak in cells, connections or neighbor references
// would grow without bound here. The ring of live objects must hold
// exactly the objects Stats counts, each in its own slot, and stay within
// twice a window and a slide of ids.
func TestMetaDataBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := Config{Dim: 2, ThetaR: 0.5, ThetaC: 4,
		Window: window.Spec{Win: 500, Slide: 100}}
	ex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := clusteredStream(rng, 30000, 2)
	var maxCells, maxConns int
	windows := 0
	capBound := 1
	for capBound < int(2*(cfg.Window.Win+cfg.Window.Slide)) {
		capBound *= 2
	}
	for _, p := range pts {
		_, emitted, err := ex.Push(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for range emitted {
			windows++
			st := ex.Stats()
			if st.Objects > int(cfg.Window.Win) {
				t.Fatalf("window %d: %d live objects exceed win=%d", windows, st.Objects, cfg.Window.Win)
			}
			if st.Cells > st.Objects {
				t.Fatalf("window %d: more cells (%d) than objects (%d)", windows, st.Cells, st.Objects)
			}
			if n := ringLive(t, ex); n != st.Objects {
				t.Fatalf("window %d: ring holds %d objects, Stats counts %d", windows, n, st.Objects)
			}
			if c := len(ex.ring.slots); c > capBound {
				t.Fatalf("window %d: ring capacity %d exceeds %d", windows, c, capBound)
			}
			if st.Cells > maxCells {
				maxCells = st.Cells
			}
			if st.Connections > maxConns {
				maxConns = st.Connections
			}
		}
	}
	if windows < 200 {
		t.Fatalf("only %d windows", windows)
	}
	// Connection entries are per cell pair within neighbor offsets; in 2-D
	// a cell has at most 24 such neighbors. Allow the full bound.
	if maxConns > maxCells*25 {
		t.Fatalf("connection meta-data disproportionate: %d conns for %d cells", maxConns, maxCells)
	}
	// After the tail of windows at stream end, everything is reclaimed.
	for i := 0; i < cfg.Window.Views()+1; i++ {
		ex.Flush()
	}
	if st := ex.Stats(); st.Objects != 0 || st.Cells != 0 || st.Connections != 0 {
		t.Fatalf("state leak at end of stream: %+v", st)
	}
	if n := ringLive(t, ex); n != 0 {
		t.Fatalf("ring holds %d objects at end of stream", n)
	}
}

// ringLive counts the ring's occupied slots, checking that each holds a
// live object at its id's slot, inside the live span.
func ringLive(t *testing.T, ex *Extractor) int {
	t.Helper()
	r := &ex.ring
	n := 0
	for i, o := range r.slots {
		if o == nil {
			continue
		}
		n++
		if o.id&r.mask != int64(i) || o.id < r.lo || o.id >= r.hi {
			t.Fatalf("slot %d holds id %d; span [%d, %d), mask %#x", i, o.id, r.lo, r.hi, r.mask)
		}
		if o.last < ex.cur || o.cell == nil || o.cell.objs[o.cellIdx] != o {
			t.Fatalf("slot %d holds id %d, which has left the window state", i, o.id)
		}
	}
	return n
}
