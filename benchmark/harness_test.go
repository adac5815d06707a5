package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"streamsum"
	"streamsum/internal/match"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {1, 1}} {
		if got := s.percentileMs(c.p); got != c.want {
			t.Errorf("p%g = %g ms, want %g", c.p, got, c.want)
		}
	}
	if got := (samples{}).percentileMs(50); got != 0 {
		t.Errorf("empty sample: %g", got)
	}
	if got := s.sum(); got != 5050*time.Millisecond {
		t.Errorf("sum = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"lower is better, got slower", steady(100), steady(110), "lower", 0.07, "worse"},
		{"lower is better, within bound", steady(100), steady(105), "lower", 0.07, "ok"},
		{"higher is better, got lower", steady(100), steady(90), "higher", 0.07, "worse"},
		{"higher is better, got higher", steady(100), steady(130), "higher", 0.07, "ok"},
		{"spread wider than bound", []float64{80, 100, 120, 90, 110}, steady(100), "lower", 0.07, "unresolved"},
		{"single runs compare by value", []float64{100}, []float64{120}, "lower", 0.07, "worse"},
	} {
		if got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// fakeClock advances only when slept on or told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopSchedule(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := newSchedule(clk, 10) // one operation every 100 ms
	start := clk.now

	// On time: wait sleeps to the due time, nothing is late.
	for i := 0; i < 3; i++ {
		due := s.wait(i)
		if want := start.Add(time.Duration(i) * 100 * time.Millisecond); !due.Equal(want) || !clk.now.Equal(want) {
			t.Fatalf("op %d: due %v now %v, want %v", i, due, clk.now, want)
		}
		clk.Sleep(30 * time.Millisecond) // the operation itself
	}
	if s.backlogMax != 0 || s.late.sum() != 0 {
		t.Fatalf("on-time run: backlog %d late %v", s.backlogMax, s.late.sum())
	}

	// A 450 ms stall: operation 3 was due at 300 ms and is issued at 680 ms.
	clk.Sleep(450 * time.Millisecond)
	due := s.wait(3)
	if want := start.Add(300 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("due time moved with the stall: %v, want %v", due, want)
	}
	if got := s.late[3]; got != 380*time.Millisecond {
		t.Fatalf("lateness %v, want 380ms", got)
	}
	// By 680 ms operations 0..6 have come due; 0..3 are issued.
	if s.backlogMax != 3 {
		t.Fatalf("backlog %d, want 3", s.backlogMax)
	}
	// The schedule does not slow down: the next operations are issued at
	// once until it has caught up.
	before := clk.now
	s.wait(4)
	if !clk.now.Equal(before) {
		t.Fatal("a late operation slept")
	}

	// Ending within one interval of the last due time leaves no backlog;
	// ending 250 ms after it leaves two slides' worth.
	last := s.due(9)
	if got := s.backlogAt(last.Add(90*time.Millisecond), 10); got != 0 {
		t.Fatalf("backlog at end %d, want 0", got)
	}
	if got := s.backlogAt(last.Add(250*time.Millisecond), 10); got != 2 {
		t.Fatalf("backlog at end %d, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "slide", Start: 0, End: 100, Parent: -1},
		{Name: "core.pushbatch", Start: 5, End: 45, Parent: 0},
		{Name: "archive.window", Start: 50, End: 95, Parent: 0},
		{Name: "archive.putbatch", Start: 52, End: 62, Parent: 2},
		{Name: "sub.offer", Start: 70, End: 90, Parent: 2},
		// Overlapping children are covered once; a child that outlives its
		// parent is clipped to it.
		{Name: "x.parent", Start: 200, End: 300, Parent: -1},
		{Name: "x.a", Start: 210, End: 250, Parent: 5},
		{Name: "x.b", Start: 240, End: 270, Parent: 5},
		{Name: "x.c", Start: 290, End: 320, Parent: 5},
	}
	want := []time.Duration{15, 40, 15, 10, 20, 30, 40, 30, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	busy := busyByLayer(spans)
	// archive = hand-off minus the offer it waited for.
	if busy["archive"] != 25 || busy["sub"] != 20 || busy["core"] != 40 {
		t.Fatalf("busy %v", busy)
	}
}

func TestMergeSpansRebasesParents(t *testing.T) {
	a := &recorder{spans: []span{{Name: "slide", Parent: -1}, {Name: "core.pushbatch", Parent: 0}}}
	b := &recorder{spans: []span{{Name: "query", Parent: -1}, {Name: "match.run", Parent: 0}}}
	got := mergeSpans(a, b)
	if got[3].Parent != 2 || got[2].Parent != -1 || got[1].Parent != 0 {
		t.Fatalf("parents %d %d %d", got[1].Parent, got[2].Parent, got[3].Parent)
	}
}

// smallBase archives a few GMTI windows.
func smallBase(t *testing.T) *streamsum.Engine {
	t.Helper()
	w := workloadByName("match_ram")
	eng, err := streamsum.New(w.options(""))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	data := w.stream(1, 12000)
	for i := 0; i+1000 <= len(data.Points); i += 1000 {
		if _, err := eng.PushBatch(data.Points[i:i+1000], nil); err != nil {
			t.Fatal(err)
		}
	}
	if eng.PatternBase().Len() < 64 {
		t.Fatalf("only %d summaries archived", eng.PatternBase().Len())
	}
	return eng
}

func TestQueryPlanDeterministicPerSeed(t *testing.T) {
	base := smallBase(t).PatternBase()
	w := *workloadByName("mixed_disk")
	draw := func(seed int64) []int64 {
		p, err := newQueryPlan(&w, seed, base, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, 400)
		for i := range ids {
			q := p.next()
			ids[i] = q.archivedID
			if q.opts.Weights != nil {
				ids[i] = -ids[i] - 1 // the mix is part of the sequence
			}
		}
		return ids
	}
	a, b, c := draw(2011), draw(2011), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different queries")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same queries")
	}
	sensitive := 0
	distinct := map[int64]bool{}
	for _, id := range a {
		if id < 0 {
			sensitive++
			id = -id - 1
		}
		distinct[id] = true
	}
	if len(distinct) < 100 {
		t.Fatalf("only %d distinct targets in %d draws", len(distinct), len(a))
	}
	if sensitive < len(a)/10 || sensitive > len(a)*3/10 {
		t.Fatalf("%d of %d queries position-sensitive, want about a fifth", sensitive, len(a))
	}
}

// TestThresholdForSelectivity: a query's threshold lets the workload's share
// of the planned-over history through the cluster-feature gate, whatever the
// target.
func TestThresholdForSelectivity(t *testing.T) {
	base := smallBase(t).PatternBase()
	w := *workloadByName("mixed_disk")
	for _, share := range []float64{0.1, 0.5, 1} {
		w.querySelectivity = share
		p, err := newQueryPlan(&w, 5, base, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			q := p.next()
			weights := streamsum.EqualWeights()
			if q.opts.Weights != nil {
				weights = *q.opts.Weights
			}
			pass := 0
			f := q.opts.Target.Features().Vector()
			for _, h := range p.history {
				if match.FeatureDistance(f, h, weights) <= q.opts.Threshold {
					pass++
				}
			}
			// Ties at the threshold may let a few more through.
			want := int(math.Ceil(share * float64(len(p.history))))
			if pass < want || pass > want+len(p.history)/20 {
				t.Fatalf("selectivity %g: %d of %d pass at threshold %g, want about %d", share, pass, len(p.history), q.opts.Threshold, want)
			}
		}
	}
}

func TestHeldOutShare(t *testing.T) {
	eng := smallBase(t)
	w := workloadByName("match_ram")
	some, err := archivedSample(eng.PatternBase(), rngFor(1, "held-out"), 1)
	if err != nil {
		t.Fatal(err)
	}
	held := []*streamsum.Summary{some[0].Summary.Clone()}
	p, err := newQueryPlan(w, 3, eng.PatternBase(), held)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < 400; i++ {
		if p.next().archivedID < 0 {
			n++
		}
	}
	if n < 60 || n > 140 {
		t.Fatalf("%d of 400 targets held out, want about a quarter", n)
	}
}

func TestCheckMatchResult(t *testing.T) {
	q := query{opts: streamsum.MatchOptions{Threshold: 0.25, Limit: 3}, archivedID: 7}
	m := func(id int64, d float64) streamsum.Match { return streamsum.Match{ID: id, Distance: d} }
	for _, c := range []struct {
		name string
		got  []streamsum.Match
		ok   bool
	}{
		{"target first", []streamsum.Match{m(7, 0), m(9, 0.1)}, true},
		{"identical twin with a lower id first", []streamsum.Match{m(3, 0), m(7, 0)}, true},
		{"twins fill the limit", []streamsum.Match{m(1, 0), m(2, 0), m(3, 0)}, true},
		{"target missing", []streamsum.Match{m(3, 0), m(9, 0.1)}, false},
		{"no self match", []streamsum.Match{m(7, 0.01)}, false},
		{"empty", nil, false},
		{"unordered", []streamsum.Match{m(7, 0), m(9, 0.2), m(8, 0.1)}, false},
		{"over threshold", []streamsum.Match{m(7, 0), m(9, 0.3)}, false},
		{"over limit", []streamsum.Match{m(7, 0), m(8, 0.1), m(9, 0.1), m(10, 0.2)}, false},
	} {
		if msg := checkMatchResult(q, c.got); (msg == "") != c.ok {
			t.Errorf("%s: %q", c.name, msg)
		}
	}
	held := query{opts: q.opts, archivedID: -1}
	if msg := checkMatchResult(held, nil); msg != "" {
		t.Errorf("held-out target with no match: %q", msg)
	}
}

func TestScaledSizes(t *testing.T) {
	w := workloadByName("ingest_stt")
	half := w.scaled(nominalSeconds / 2)
	if half.phases[0].slides != w.phases[0].slides/2 {
		t.Fatalf("half run pushes %d slides", half.phases[0].slides)
	}
	if half.fixture == nil || half.fixture.phases[1].queries != w.fixture.phases[1].queries/2 {
		t.Fatal("the fixture did not scale with its workload")
	}
	if w.phases[0].slides != workloadByName("ingest_stt").phases[0].slides {
		t.Fatal("scaling changed the table")
	}
	if tiny := w.scaled(0.001); tiny.phases[0].slides != 1 {
		t.Fatalf("a phase scaled away: %d slides", tiny.phases[0].slides)
	}
}

// minSamples is the smallest sample a reported timing may rest on: p95 needs
// ten samples beyond it.
const minSamples = 200

// TestSizesTable holds the one table to the rules the harness relies on.
func TestSizesTable(t *testing.T) {
	for _, w := range workloads {
		// Every timing must rest on at least minSamples at the nominal
		// length, from the workload's own phases or from its probe.
		slides, queries, monitored := 0, 0, 0
		analyst := false
		for _, ps := range [][]phase{w.phases, fixturePhases(w)} {
			for _, p := range ps {
				if (p.slides > 0) == (p.queries > 0) {
					t.Errorf("%s: a phase must be either ingest or analyst", w.name)
				}
				slides = max(slides, p.slides)
				queries = max(queries, p.queries)
				if p.monitored {
					monitored = max(monitored, p.slides)
				}
				analyst = analyst || p.analyst
			}
		}
		if slides < minSamples || (queries < minSamples && !analyst) || monitored == 0 {
			t.Errorf("%s: %d slides, %d queries, %d monitored slides", w.name, slides, queries, monitored)
		}
		if w.warm < int(w.options("x").Win/w.options("x").Slide) {
			t.Errorf("%s: warm-up does not fill the first window", w.name)
		}
		if len(w.why) > 200 || len(w.why) == 0 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
}

func fixturePhases(w *workload) []phase {
	if w.fixture == nil {
		return nil
	}
	return w.fixture.phases
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness: same workloads,
// same metrics, same units and directions, the nominal run length.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if def.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, sizes are calibrated for %d", def.RunSeconds, nominalSeconds)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d exist", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %q differs from the table's %q", i, def.Workloads[i].Name, w.name)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(def.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := def.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("end_to_end[%d] = %+v, harness reports %+v", i, d, m)
		}
		if d.Bound == nil || *d.Bound < 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside [0, 0.25]", d.Name)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(def.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		d := def.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, harness reports %+v", i, d, m)
		}
	}
}

// TestVerdictSchema: the last line of a run carries exactly the four keys
// the driver reads, and every metric a value and a unit.
func TestVerdictSchema(t *testing.T) {
	rec := &record{verdict: verdict{Metrics: map[string]metricValue{}}}
	res := &passResult{tuples: 1000, setupS: []float64{0.5}, heapLiveMB: []float64{8}} // one episode's readings
	res.tally.checks = map[string]int{}
	rec.fill(res, endToEnd, res.endToEndValues())
	line, err := json.Marshal(rec.verdict)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		v, ok := metrics[m.name]
		if !ok || len(v) != 2 || v["unit"] != m.unit {
			t.Errorf("%s: %v", m.name, v)
		}
		if _, isNum := v["value"].(float64); !isNum {
			t.Errorf("%s: value %v is not a number", m.name, v["value"])
		}
	}
}

// TestSmoke runs every workload end to end, both passes (the untraced one
// only with -short), at a fortieth of the nominal length in two episodes
// with every output check on.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && testing.Short() {
				continue
			}
			rec, err := runWorkload(w, 2011, 0.5, trace, 2, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			// Keeping the open-loop schedule is a matter of speed, not of
			// correctness: a slow test host (the race detector) may miss it.
			failed := 0
			for _, f := range rec.Failures {
				if !strings.HasPrefix(f, "check (backlog)") {
					failed++
				}
			}
			if failed > 0 || rec.Attempted == 0 {
				t.Errorf("%s trace %d: %d of %d failed: %v", w.name, trace, rec.Failed, rec.Attempted, rec.Failures)
			}
			kinds := []string{"a", "b", "c", "d"}
			if trace == 1 {
				// The layer pass covers the workload's own phases only;
				// what it always has is the comparison of its outputs
				// with the facade's.
				kinds = []string{"passes"}
			}
			for _, kind := range kinds {
				if rec.Checks[kind] == 0 {
					t.Errorf("%s trace %d: check (%s) never ran", w.name, trace, kind)
				}
			}
			if w.disk && rec.Checks["e"] == 0 {
				t.Errorf("%s trace %d: check (e) never ran", w.name, trace)
			}
			catalogue := endToEnd
			if trace == 1 {
				catalogue = perLayer
			}
			if len(rec.Metrics) != len(catalogue) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(catalogue))
			}
			if trace == 0 {
				for name, v := range rec.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: %s = %g", w.name, name, v.Value)
					}
				}
			}
		}
	}
}
