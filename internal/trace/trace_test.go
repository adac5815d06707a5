package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// wellFormed asserts the exported span tree is structurally sound:
// span ids unique and dense from 1, root first with parent 0, every
// other parent resolving to an earlier-or-any span id in the trace.
func wellFormed(t *testing.T, td TraceData) {
	t.Helper()
	if len(td.Spans) == 0 {
		t.Fatalf("trace %s has no spans", td.TraceID)
	}
	ids := make(map[uint32]bool, len(td.Spans))
	for _, sd := range td.Spans {
		if ids[sd.ID] {
			t.Fatalf("trace %s: duplicate span id %d", td.TraceID, sd.ID)
		}
		ids[sd.ID] = true
	}
	root := td.Spans[0]
	if root.ID != 1 || root.Parent != 0 {
		t.Fatalf("trace %s: root span id=%d parent=%d, want 1/0", td.TraceID, root.ID, root.Parent)
	}
	for _, sd := range td.Spans[1:] {
		if sd.Parent == 0 || !ids[sd.Parent] {
			t.Errorf("trace %s: span %d (%s) parent %d does not resolve", td.TraceID, sd.ID, sd.Name, sd.Parent)
		}
	}
}

func TestTraceBasics(t *testing.T) {
	r := NewRecorder(4)
	tr := r.Start(Match, "query")
	if tr == nil {
		t.Fatal("enabled recorder returned nil trace")
	}
	tr.Root().SetInt("target", 7)
	f := tr.Start("filter")
	sh := f.Child("shard")
	sh.SetStr("segment", "mem")
	sh.SetBool("zone_skip", false)
	sh.End()
	f.SetInt("candidates", 3)
	f.End()
	o := tr.Start("order")
	o.End()
	id := tr.ID()
	td, ok := tr.Finish()
	if !ok {
		t.Fatal("Finish not ok")
	}
	wellFormed(t, td)
	if td.TraceID != id.String() || id.IsZero() {
		t.Fatalf("trace id %q vs %q", td.TraceID, id)
	}
	if td.Category != "match" || td.Name != "query" {
		t.Fatalf("category/name %q/%q", td.Category, td.Name)
	}
	if v, ok := td.Spans[0].Int("target"); !ok || v != 7 {
		t.Fatalf("root attr target = %v %v", v, ok)
	}
	fs := td.Span("filter")
	if fs == nil {
		t.Fatal("no filter span")
	}
	if v, ok := fs.Int("candidates"); !ok || v != 3 {
		t.Fatalf("filter candidates = %v %v", v, ok)
	}
	kids := td.Children(fs.ID)
	if len(kids) != 1 || kids[0].Name != "shard" {
		t.Fatalf("filter children = %+v", kids)
	}
	if s, ok := kids[0].Str("segment"); !ok || s != "mem" {
		t.Fatalf("shard segment attr = %q %v", s, ok)
	}
	if b, ok := kids[0].Bool("zone_skip"); !ok || b {
		t.Fatalf("shard zone_skip attr = %v %v", b, ok)
	}
	if td.DurNS < 0 || td.Spans[0].DurNS < td.Span("order").DurNS {
		t.Fatalf("durations inconsistent: %+v", td)
	}

	got := r.Traces(Match)
	if len(got) != 1 || got[0].TraceID != td.TraceID {
		t.Fatalf("recorder retained %+v", got)
	}
	if found, ok := r.Find(td.TraceID); !ok || found.Name != "query" {
		t.Fatalf("Find = %+v %v", found, ok)
	}
	if _, ok := r.Find("deadbeef"); ok {
		t.Fatal("Find matched a bogus id")
	}
}

// TestNilSafety: a disabled recorder hands out nil traces, and every
// operation on them (and on zero Spans) is a harmless no-op.
func TestNilSafety(t *testing.T) {
	r := NewRecorder(0)
	if r.Enabled() {
		t.Fatal("capacity-0 recorder reports enabled")
	}
	tr := r.Start(Ingest, "batch")
	if tr != nil {
		t.Fatal("disabled recorder returned a live trace")
	}
	tr.Root().SetInt("k", 1)
	sp := tr.Start("phase")
	sp.SetStr("s", "v")
	sp.SetBool("b", true)
	sp.Child("child").End()
	sp.End()
	if !tr.ID().IsZero() {
		t.Fatal("nil trace has a nonzero id")
	}
	if _, ok := tr.Finish(); ok {
		t.Fatal("nil trace Finish ok")
	}
	tr.Discard()
	var nilRec *Recorder
	if nilRec.Start(Match, "x") != nil || nilRec.All() != nil || nilRec.Enabled() {
		t.Fatal("nil recorder not inert")
	}
	nilRec.SetCapacity(3)
	if _, ok := nilRec.Find("x"); ok {
		t.Fatal("nil recorder Find ok")
	}
}

// TestRingEviction: the flight recorder retains exactly the last N
// completed traces per category, newest first, and categories do not
// evict each other.
func TestRingEviction(t *testing.T) {
	const cap = 4
	r := NewRecorder(cap)
	for i := 0; i < 11; i++ {
		tr := r.Start(Ingest, fmt.Sprintf("batch-%d", i))
		tr.Finish()
	}
	other := r.Start(Demote, "flush")
	other.Finish()

	got := r.Traces(Ingest)
	if len(got) != cap {
		t.Fatalf("retained %d ingest traces, want %d", len(got), cap)
	}
	for i, td := range got {
		want := fmt.Sprintf("batch-%d", 10-i)
		if td.Name != want {
			t.Errorf("trace[%d] = %s, want %s", i, td.Name, want)
		}
	}
	if d := r.Traces(Demote); len(d) != 1 || d[0].Name != "flush" {
		t.Fatalf("demote ring = %+v", d)
	}
	if all := r.All(); len(all) != cap+1 {
		t.Fatalf("All returned %d traces", len(all))
	}
	r.SetCapacity(2)
	if got := r.Traces(Ingest); got != nil {
		t.Fatalf("SetCapacity kept traces: %+v", got)
	}
}

// TestDroppedSpans: spans beyond MaxSpans are dropped and counted;
// the exported tree stays well-formed.
func TestDroppedSpans(t *testing.T) {
	r := NewRecorder(1)
	tr := r.Start(Match, "big")
	for i := 0; i < MaxSpans+10; i++ {
		sp := tr.Start("s")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	td, _ := tr.Finish()
	wellFormed(t, td)
	if len(td.Spans) != MaxSpans {
		t.Fatalf("exported %d spans, want %d", len(td.Spans), MaxSpans)
	}
	// Root occupies one slot, so 11 starts found the buffer full.
	if td.Dropped != 11 {
		t.Fatalf("dropped = %d, want 11", td.Dropped)
	}
}

// TestAttrOverflow: attributes beyond the per-span capacity are
// silently dropped, keeping recording allocation-free.
func TestAttrOverflow(t *testing.T) {
	tr := New(Match, "attrs", ID{})
	sp := tr.Start("s")
	for i := 0; i < maxAttrs+3; i++ {
		sp.SetInt(fmt.Sprintf("k%d", i), int64(i))
	}
	sp.End()
	td, _ := tr.Finish()
	if got := len(td.Span("s").Attrs); got != maxAttrs {
		t.Fatalf("kept %d attrs, want %d", got, maxAttrs)
	}
}

// TestStandalone: New works without a recorder — Finish exports but
// records nowhere.
func TestStandalone(t *testing.T) {
	id := ID{1, 2, 3}
	tr := New(SubEval, "window", id)
	tr.Start("probe").End()
	td, ok := tr.Finish()
	if !ok || td.TraceID != id.String() {
		t.Fatalf("standalone export = %+v %v", td, ok)
	}
	wellFormed(t, td)
}

// TestZeroAllocRecording is the hot-path contract: with tracing
// enabled, starting a span, attaching attributes of every kind, and
// ending it allocates nothing (the buffer was preallocated with the
// trace), including once the span buffer is exhausted; with tracing
// disabled (nil trace), the same call sequence also allocates nothing.
func TestZeroAllocRecording(t *testing.T) {
	r := NewRecorder(2)
	tr := r.Start(Ingest, "batch")
	record := func(tr *Trace) func() {
		return func() {
			sp := tr.Start("phase")
			sp.SetInt("tuples", 512)
			sp.SetStr("segment", "seg-000042")
			sp.SetBool("zone_skip", true)
			c := sp.Child("sub")
			c.End()
			sp.End()
		}
	}
	if n := testing.AllocsPerRun(1000, record(tr)); n != 0 {
		t.Errorf("enabled recording allocates %v per span", n)
	}
	tr.Finish()
	if n := testing.AllocsPerRun(1000, record(nil)); n != 0 {
		t.Errorf("disabled (nil-trace) recording allocates %v per span", n)
	}
	// The disabled recorder's Start itself is also allocation-free.
	off := NewRecorder(0)
	if n := testing.AllocsPerRun(1000, func() {
		tr := off.Start(Match, "q")
		tr.Start("filter").End()
		tr.Finish()
	}); n != 0 {
		t.Errorf("disabled recorder Start allocates %v per op", n)
	}
}

// TestConcurrentSpans: many goroutines record spans into one trace
// (the match fan-out shape) while readers poll the recorder; the
// committed tree is well-formed and the reader copies are stable.
func TestConcurrentSpans(t *testing.T) {
	r := NewRecorder(8)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, td := range r.All() {
					wellFormed(t, td)
				}
			}
		}()
	}
	for round := 0; round < 50; round++ {
		tr := r.Start(Match, "fanout")
		parent := tr.Start("filter")
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 4; k++ {
					sp := parent.Child("shard")
					sp.SetInt("worker", int64(g))
					sp.End()
				}
			}(g)
		}
		wg.Wait()
		parent.End()
		td, _ := tr.Finish()
		wellFormed(t, td)
		if want := 2 + 8*4; len(td.Spans) != want {
			t.Fatalf("round %d: %d spans, want %d", round, len(td.Spans), want)
		}
	}
	close(stop)
	readers.Wait()
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := randomID()
	h := Traceparent(id, 0x1234)
	got, parent, ok := ParseTraceparent(h)
	if !ok || got != id || parent != 0x1234 {
		t.Fatalf("round trip %q -> %v %x %v", h, got, parent, ok)
	}
	if h2 := Traceparent(id, 0); h2[36:52] != "0000000000000001" {
		t.Fatalf("zero span id not defaulted: %q", h2)
	}

	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if id, parent, ok := ParseTraceparent(valid); !ok || id.String() != "0af7651916cd43dd8448eb211c80319c" || parent == 0 {
		t.Fatalf("spec example rejected: %v %x %v", id, parent, ok)
	}
	// A future version with trailing fields parses (forward compat).
	if _, _, ok := ParseTraceparent("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); !ok {
		t.Error("future-version header rejected")
	}
	for _, bad := range []string{
		"",
		"00",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",      // missing flags
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // version ff
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",   // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",   // zero parent
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x", // v00 with extra
		"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // bad version hex
		"00-0af7651916cd43dd8448eb211c8031XX-b7ad6b7169203331-01",   // bad id hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033XX-01",   // bad parent hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-XX",   // bad flags hex
		"00x0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // bad separator
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("accepted invalid traceparent %q", bad)
		}
	}
}

// TestDisabledBetweenStartAndFinish: turning the recorder off while a
// trace is in flight must not record or crash.
func TestDisabledBetweenStartAndFinish(t *testing.T) {
	r := NewRecorder(2)
	tr := r.Start(Compact, "run")
	r.SetCapacity(0)
	tr.Start("merge").End()
	if _, ok := tr.Finish(); !ok {
		t.Fatal("in-flight trace lost its data")
	}
	if got := r.All(); got != nil {
		t.Fatalf("disabled recorder retained %+v", got)
	}
}

// TestCategoryNames pins the category labels the HTTP surface exposes.
func TestCategoryNames(t *testing.T) {
	want := map[Category]string{
		Ingest: "ingest", Match: "match", SubEval: "subeval",
		Demote: "demote", Compact: "compact",
	}
	cats := Categories()
	if len(cats) != len(want) {
		t.Fatalf("Categories() = %v", cats)
	}
	for _, c := range cats {
		if c.String() != want[c] {
			t.Errorf("category %d = %q, want %q", c, c, want[c])
		}
	}
	if Category(200).String() != "unknown" {
		t.Error("out-of-range category not labeled unknown")
	}
}

// Recording wall-clock sanity: span durations are measured with the
// monotonic clock, so a span spanning a sleep reads at least that long.
func TestSpanDuration(t *testing.T) {
	tr := New(Demote, "flush", ID{})
	sp := tr.Start("fsync")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	td, _ := tr.Finish()
	if d := td.Span("fsync").DurNS; d < int64(1*time.Millisecond) {
		t.Fatalf("span duration %dns, want >= ~2ms", d)
	}
}

// FuzzParseTraceparent: ParseTraceparent never panics; a header it
// accepts has a non-zero trace id and parent, and the version-00 header
// rebuilt from them parses back to the same values.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-00",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		id, parent, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if id.IsZero() || parent == 0 {
			t.Fatalf("%q accepted with id %v parent %x", h, id, parent)
		}
		rebuilt := Traceparent(id, parent)
		id2, parent2, ok := ParseTraceparent(rebuilt)
		if !ok || id2 != id || parent2 != parent {
			t.Fatalf("%q -> %q parses to %v %x %v", h, rebuilt, id2, parent2, ok)
		}
	})
}
