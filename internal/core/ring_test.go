package core

import (
	"math/rand"
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/window"
)

// TestRingStaleRefResolvesNil: once an object has expired, its ref
// resolves to nil — while its slot is empty, and after a later id has
// taken the slot over.
func TestRingStaleRefResolvesNil(t *testing.T) {
	r := newRing()
	objs := make([]*object, minRing+1)
	for id := range objs[:minRing] {
		objs[id] = &object{id: int64(id)}
		r.put(objs[id])
	}
	if len(r.slots) != minRing {
		t.Fatalf("ring grew to %d for %d live objects", len(r.slots), minRing)
	}
	r.pop() // id 0 expires
	r.pop() // id 1 expires
	if got := r.resolve(1); got != nil {
		t.Fatalf("ref 1 resolves to id %d after expiry, want nil", got.id)
	}
	objs[minRing] = &object{id: minRing}
	r.put(objs[minRing]) // takes over id 0's slot
	if len(r.slots) != minRing {
		t.Fatalf("ring grew to %d for %d live objects", len(r.slots), r.live)
	}
	if got := r.resolve(0); got != nil {
		t.Fatalf("stale ref 0 resolves to id %d, the slot's new object", got.id)
	}
	for id := 2; id <= minRing; id++ {
		if got := r.resolve(uint32(id)); got != objs[id] {
			t.Fatalf("live ref %d resolves to %v", id, got)
		}
	}
}

// TestRingGrowKeepsLive drives the ring with synthetic ids — arrivals with
// gaps (ids of rejected tuples), expiries from the front, and spells of
// arrivals that force it to double — against a model of the live set:
// after every step every live id resolves to its object, every expired id
// to nil, and the ring's span and count match the model.
func TestRingGrowKeepsLive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := newRing()
	var live []*object // the model, oldest first
	var expired []int64
	next, doublings := int64(0), 0
	for step := 0; step < 20000; step++ {
		phase := step / 2000 % 2 // alternate spells of growth and of churn
		if len(live) > 0 && rng.Intn(4) < 1+2*phase {
			r.pop()
			expired = append(expired, live[0].id)
			live = live[1:]
		} else {
			next += 1 + int64(rng.Intn(3)/2) // a third of arrivals skip an id
			o := &object{id: next}
			before := len(r.slots)
			r.put(o)
			if len(r.slots) > before {
				doublings++
			}
			live = append(live, o)
		}
		if r.live != len(live) {
			t.Fatalf("step %d: ring counts %d live, model %d", step, r.live, len(live))
		}
		if len(live) > 0 {
			if r.lo != live[0].id || r.hi != live[len(live)-1].id+1 {
				t.Fatalf("step %d: span [%d, %d), model [%d, %d]", step, r.lo, r.hi, live[0].id, live[len(live)-1].id)
			}
			if r.front() != live[0] {
				t.Fatalf("step %d: front is not the oldest live object", step)
			}
		}
		for _, o := range live {
			if got := r.resolve(uint32(o.id)); got != o {
				t.Fatalf("step %d: live id %d resolves to %v", step, o.id, got)
			}
		}
		for _, id := range expired[max(0, len(expired)-2*len(r.slots)):] {
			if got := r.resolve(uint32(id)); got != nil {
				t.Fatalf("step %d: expired id %d resolves to id %d", step, id, got.id)
			}
		}
	}
	if doublings < 4 {
		t.Fatalf("the ring doubled %d times; the walk does not cover growth", doublings)
	}
}

// TestSpanGuard: a tuple whose id would make the live ids span maxSpan is
// rejected by Push and PushBatch, before it takes an id or expires
// anything. Ids near the bound are synthetic: the ring only ever holds a
// few objects.
func TestSpanGuard(t *testing.T) {
	// Time-based, so that a huge id is not a huge position.
	ex, err := New(Config{Dim: 1, ThetaR: 1, ThetaC: 1,
		Window: window.Spec{Kind: window.TimeBased, Win: 4, Slide: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// The bound itself, with the oldest id from the ring or from a batch's
	// pending segment.
	if err := ex.checkSpan(maxSpan+3, 3); err == nil {
		t.Error("pending span of maxSpan+1 ids admitted")
	}
	if err := ex.checkSpan(maxSpan+2, 3); err != nil {
		t.Errorf("pending span of maxSpan ids rejected: %v", err)
	}
	if err := ex.checkSpan(1<<40, -1); err != nil {
		t.Errorf("empty window state rejected a tuple: %v", err)
	}
	if _, _, err := ex.Push(geom.Point{0}, 0); err != nil { // id 0, window 0
		t.Fatal(err)
	}
	if err := ex.checkSpan(maxSpan-1, 7); err != nil {
		t.Errorf("span of maxSpan ids from the ring rejected: %v", err)
	}
	if err := ex.checkSpan(maxSpan, -1); err == nil {
		t.Error("span of maxSpan+1 ids from the ring admitted")
	}

	ex.nextID = maxSpan // as if 2^31 tuples had arrived since id 0
	if _, _, err := ex.Push(geom.Point{0.5}, 0); err == nil {
		t.Fatal("Push admitted a tuple maxSpan ids after a live one")
	}
	if _, err := ex.PushBatch([]geom.Point{{0.5}, {0.6}}, []int64{1, 1}); err == nil {
		t.Fatal("PushBatch admitted a tuple maxSpan ids after a live one")
	}
	if ex.nextID != maxSpan || ex.Stats().Objects != 1 || ex.CurrentWindow() != 0 {
		t.Fatalf("a rejected tuple changed the state: next id %d, %d objects, window %d",
			ex.nextID, ex.Stats().Objects, ex.CurrentWindow())
	}
	// Once id 0 has expired the same tuple is admitted, and its ref space
	// starts afresh.
	ex.Flush()
	if n := ex.Stats().Objects; n != 0 {
		t.Fatalf("%d objects after window 0, want 0", n)
	}
	id, _, err := ex.Push(geom.Point{4.5}, 4)
	if err != nil || id != maxSpan {
		t.Fatalf("Push after expiry: id %d, %v; want id %d", id, err, int64(maxSpan))
	}
	if ex.ring.lo != maxSpan || len(ex.ring.slots) != minRing {
		t.Fatalf("ring span starts at %d with %d slots, want %d with %d", ex.ring.lo, len(ex.ring.slots), int64(maxSpan), minRing)
	}
}
