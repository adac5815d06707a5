package sub

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/match"
	"streamsum/internal/sgs"
	"streamsum/internal/track"
)

const thetaR = 0.5

func blob(rng *rand.Rand, n int, cx, cy, spread float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
	}
	return pts
}

func translate(pts []geom.Point, dx, dy float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{p[0] + dx, p[1] + dy}
	}
	return out
}

// summarize builds the SGS of the largest cluster in a point cloud.
func summarize(t *testing.T, pts []geom.Point, id int64) *sgs.Summary {
	t.Helper()
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	res, err := dbscan.Run(pts, ids, dbscan.Params{ThetaR: thetaR, ThetaC: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("fixture produced no cluster")
	}
	best := 0
	for i, c := range res.Clusters {
		if len(c.Members) > len(res.Clusters[best].Members) {
			best = i
		}
	}
	var cpts []geom.Point
	var isCore []bool
	for _, m := range res.Clusters[best].Members {
		cpts = append(cpts, pts[m])
		isCore = append(isCore, res.IsCore[m])
	}
	geo, err := grid.NewGeometry(2, thetaR)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sgs.FromCluster(geo, cpts, isCore, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func entryOf(s *sgs.Summary) *archive.Entry {
	return &archive.Entry{
		ID: s.ID, Summary: s, MBR: s.MBR(), Features: s.Features(),
		Bytes: sgs.EncodedSize(s),
	}
}

// fixture builds nsubs subscription targets and nwin windows of entries
// from four families of clouds. Window entries are family clouds
// translated by integer cell multiples (a cell-aligned twin matches its
// family's targets at distance ~0) with occasional extra points mixed in,
// so some pairs match closely, some marginally, and cross-family pairs
// don't.
func fixture(t *testing.T, nsubs, nwin, perWin int) (targets []*sgs.Summary, windows [][]*archive.Entry) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	geo, err := grid.NewGeometry(2, thetaR)
	if err != nil {
		t.Fatal(err)
	}
	side := geo.Side()
	const fams = 4
	clouds := make([][]geom.Point, fams)
	for f := range clouds {
		clouds[f] = blob(rng, 80+20*f, float64(f)*40, float64(f)*25, 0.8)
	}
	for i := 0; i < nsubs; i++ {
		targets = append(targets, summarize(t, clouds[i%fams], int64(1000+i)))
	}
	id := int64(0)
	for w := 0; w < nwin; w++ {
		var win []*archive.Entry
		for c := 0; c < perWin; c++ {
			f := (w + c) % fams
			dx := float64((w*perWin+c)%5) * 3 * side
			dy := float64(c%3) * 2 * side
			pts := translate(clouds[f], dx, dy)
			if (w+c)%3 == 0 {
				// Perturbed twin: extra mass nudges the features and cells.
				pts = append(pts, blob(rng, 8, float64(f)*40+dx, float64(f)*25+dy, 0.5)...)
			}
			s := summarize(t, pts, id)
			id++
			win = append(win, entryOf(s))
		}
		windows = append(windows, win)
	}
	return targets, windows
}

// bruteMatches computes the expected (seq, entryID, distance) stream for
// one subscription the way a per-entry one-shot matcher would.
func bruteMatches(target *sgs.Summary, w match.Weights, thresh float64, windows [][]*archive.Entry) []Event {
	tf := target.Features().Vector()
	tmbr := target.MBR()
	var out []Event
	for seq, win := range windows {
		for _, e := range win {
			if w.PositionSensitive && !tmbr.Intersects(e.MBR) {
				continue
			}
			if match.FeatureDistance(tf, e.Features.Vector(), w) > thresh {
				continue
			}
			d := match.RefineDistance(target, e.Summary, w, match.DefaultAlignBudget)
			if d <= thresh {
				out = append(out, Event{Kind: MatchEvent, Seq: uint64(seq), EntryID: e.ID, Distance: d})
			}
		}
	}
	return out
}

// collect drains a subscription's channel into a slice on a goroutine;
// call the returned func after Sync+Cancel to get the events.
func collect(s *Subscription) func() []Event {
	var mu sync.Mutex
	var got []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range s.Events() {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		}
	}()
	return func() []Event {
		<-done
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

// stripPayload reduces events to the comparable core (entries carry
// pointers that differ between runs).
func stripPayload(evs []Event) []Event {
	if len(evs) == 0 {
		return nil
	}
	out := make([]Event, len(evs))
	for i, ev := range evs {
		out[i] = Event{Kind: ev.Kind, Seq: ev.Seq, EntryID: ev.EntryID, Distance: ev.Distance}
		if ev.Track != nil {
			out[i].EntryID = int64(ev.Track.Kind)
			out[i].Track = &track.Event{Kind: ev.Track.Kind, TrackID: ev.Track.TrackID}
		}
	}
	return out
}

func TestOfferMatchesBruteForce(t *testing.T) {
	targets, windows := fixture(t, 12, 6, 4)
	reg, err := NewRegistry(Config{Dim: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ws := match.EqualWeights()
	pos := match.Weights{PositionSensitive: true, Volume: 0.25, Status: 0.25, Density: 0.25, Connectivity: 0.25}
	type regd struct {
		s      *Subscription
		target *sgs.Summary
		w      match.Weights
		thresh float64
		got    func() []Event
	}
	var subs []regd
	for i, tgt := range targets {
		w := ws
		if i%3 == 0 {
			w = pos
		}
		thresh := 0.15 + 0.1*float64(i%5)
		s, err := reg.Subscribe(Options{Target: tgt, Threshold: thresh, Weights: &w})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, regd{s, tgt, w, thresh, collect(s)})
	}
	for _, win := range windows {
		if err := reg.Offer(win); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range subs {
		r.s.Sync()
		r.s.Cancel()
	}
	total := 0
	for _, r := range subs {
		want := bruteMatches(r.target, r.w, r.thresh, windows)
		got := stripPayload(r.got())
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		// bruteMatches leaves SubID zero; align before comparing.
		for i := range got {
			got[i].SubID = 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sub %d: got %v, want %v", r.s.ID(), got, want)
		}
		total += len(got)
	}
	if total == 0 {
		t.Fatal("fixture produced no match events at all; test is vacuous")
	}
	st := reg.Stats()
	if st.Windows != uint64(len(windows)) || st.Events != uint64(total) {
		t.Fatalf("stats = %+v, want %d windows / %d events", st, len(windows), total)
	}
}

func TestUnsubscribeAndClassMaintenance(t *testing.T) {
	targets, windows := fixture(t, 4, 2, 3)
	reg, err := NewRegistry(Config{Dim: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two subs in the same class; the wider threshold sets the class bound.
	wide, err := reg.Subscribe(Options{Target: targets[0], Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := reg.Subscribe(Options{Target: targets[1], Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	gotNarrow := collect(narrow)
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
	// Dropping the wide sub must shrink the class bound, not break the
	// narrow one's matching.
	if !reg.Unsubscribe(wide.ID()) {
		t.Fatal("Unsubscribe returned false for a live id")
	}
	if reg.Unsubscribe(wide.ID()) {
		t.Fatal("double Unsubscribe returned true")
	}
	if _, ok := <-wide.Events(); ok {
		t.Fatal("canceled subscription's channel still open")
	}
	for _, win := range windows {
		if err := reg.Offer(win); err != nil {
			t.Fatal(err)
		}
	}
	narrow.Sync()
	narrow.Cancel()
	want := bruteMatches(targets[1], match.EqualWeights(), 0.2, windows)
	got := stripPayload(gotNarrow())
	for i := range got {
		got[i].SubID = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after unsubscribing class max: got %v, want %v", got, want)
	}
	if reg.Len() != 0 {
		t.Fatalf("Len = %d after cancels, want 0", reg.Len())
	}
}

func TestTrackOnlySubscription(t *testing.T) {
	reg, err := NewRegistry(Config{Dim: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Subscribe(Options{}); err == nil {
		t.Fatal("Subscribe with neither target nor Track succeeded")
	}
	if reg.WantsTrack() {
		t.Fatal("WantsTrack true on empty registry")
	}
	s, err := reg.Subscribe(Options{Track: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reg.WantsTrack() {
		t.Fatal("WantsTrack false with a track subscription")
	}
	got := collect(s)
	if err := reg.Offer(nil); err != nil { // window 0: no clusters
		t.Fatal(err)
	}
	evs := []track.Event{{Kind: track.Appeared, TrackID: 3}, {Kind: track.Merged, TrackID: 1}}
	reg.OfferTrack(evs)
	s.Sync()
	s.Cancel()
	stream := got()
	if len(stream) != 2 {
		t.Fatalf("got %d events, want 2", len(stream))
	}
	for i, ev := range stream {
		if ev.Kind != EvolutionEvent || ev.Seq != 0 || ev.Track.Kind != evs[i].Kind || ev.Track.TrackID != evs[i].TrackID {
			t.Fatalf("event %d = %+v, want evolution %v", i, ev, evs[i])
		}
	}
}

// TestChurnRace hammers subscribe/unsubscribe against a concurrent Offer
// loop; the race detector is the assertion. Each churner cancels two of
// every three subscriptions at once and keeps the third in a rolling set
// of at most 8, so the registry, and with it each Offer, stays bounded
// however fast the churners run.
func TestChurnRace(t *testing.T) {
	targets, windows := fixture(t, 8, 4, 3)
	reg, err := NewRegistry(Config{Dim: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kept []*Subscription
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := reg.Subscribe(Options{Target: targets[(g+i)%len(targets)], Threshold: 0.3, Track: i%2 == 0})
				if err != nil {
					t.Error(err)
					return
				}
				go func() { // consumer that may or may not keep up
					for range s.Events() {
					}
				}()
				if i%3 != 0 {
					s.Cancel()
				} else if kept = append(kept, s); len(kept) > 8 {
					kept[0].Cancel()
					kept = kept[1:]
				}
			}
		}(g)
	}
	for round := 0; round < 20; round++ {
		for _, win := range windows {
			if err := reg.Offer(win); err != nil {
				t.Fatal(err)
			}
			reg.OfferTrack([]track.Event{{Kind: track.Continued, TrackID: int64(round)}})
		}
	}
	close(stop)
	wg.Wait()
	reg.Close()
	if reg.Len() != 0 {
		t.Fatalf("Len = %d after Close, want 0", reg.Len())
	}
}

func TestSubscribeValidation(t *testing.T) {
	targets, _ := fixture(t, 1, 0, 0)
	reg, err := NewRegistry(Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{Target: targets[0], Threshold: -0.1},
		{Target: targets[0], Threshold: 1.5},
		{Target: &sgs.Summary{Dim: 2}, Threshold: 0.2},
		{Target: targets[0], Threshold: 0.2, Weights: &match.Weights{Volume: 2}},
	}
	for i, o := range cases {
		if _, err := reg.Subscribe(o); err == nil {
			t.Fatalf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	if _, err := NewRegistry(Config{}); err == nil {
		t.Fatal("NewRegistry without dimension succeeded")
	}
	// Dimension mismatch.
	if _, err := reg.Subscribe(Options{Target: &sgs.Summary{Dim: 3, Cells: targets[0].Cells, Side: 1}, Threshold: 0.2}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if s := fmt.Sprint(MatchEvent, " ", EvolutionEvent, " ", EventKind(9)); s != "match evolution unknown" {
		t.Fatalf("EventKind strings = %q", s)
	}
}
