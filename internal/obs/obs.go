package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// L is one metric label pair. Labels distinguish series within a
// family (e.g. mode="mmap" under sgs_segstore_record_loads_total).
type L struct {
	Key, Value string
}

// Counter is a monotonically increasing counter. The zero value is
// ready to use; Inc/Add are lock-free and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value. The zero value is ready to
// use; Set/Add/Sub are lock-free and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: fixed upper bounds in nanoseconds,
// geometric ×4 from 1µs to ~67s, plus an implicit +Inf bucket. Fixed
// bounds keep Observe a bounded loop over an embedded array — no
// allocation, no lock — at the cost of ~2× worst-case relative error
// on quantile estimates, which is fine for phase latencies spanning
// six orders of magnitude.
const numBounds = 14

var bucketBounds = func() [numBounds]int64 {
	var b [numBounds]int64
	v := int64(1000) // 1µs
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram. The zero value is
// ready to use; Observe is lock-free and allocation-free.
type Histogram struct {
	counts [numBounds + 1]atomic.Uint64 // last slot is +Inf
	sum    atomic.Int64                 // total observed, ns
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := 0
	for i < numBounds && ns > bucketBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Buckets are cumulative counts per upper bound (seconds), ending with
// the +Inf bucket, matching Prometheus exposition semantics.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds in seconds; last is +Inf
	Counts []uint64  // cumulative count per bound
	Sum    float64   // total observed, seconds
	Count  uint64
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: make([]float64, numBounds+1),
		Counts: make([]uint64, numBounds+1),
	}
	var cum uint64
	for i := 0; i <= numBounds; i++ {
		if i < numBounds {
			s.Bounds[i] = float64(bucketBounds[i]) / 1e9
		} else {
			s.Bounds[i] = inf
		}
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	s.Count = cum
	s.Sum = float64(h.sum.Load()) / 1e9
	return s
}

var inf = func() float64 {
	f, _ := strconv.ParseFloat("+Inf", 64)
	return f
}()

// metric kinds, in Prometheus TYPE vocabulary.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// metric is one registered series: a family name plus a rendered label
// set and a way to read its current value(s).
type metric struct {
	name   string
	labels string // pre-rendered `{k="v",...}` or ""
	kind   string
	help   string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // gauge funcs (scrape-time reads)
}

// Registry is a named collection of metrics with a snapshot API and a
// Prometheus text exposition writer. Registration takes a lock; reads
// of registered counters/gauges/histograms never do.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric // name+labels -> metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// Default is the process-wide registry used by the package-level
// constructors. All instrumented packages register here.
var Default = NewRegistry()

func renderLabels(labels []L) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register adds m, panicking on a duplicate series or a family whose
// kind disagrees with an earlier registration. Misregistration is a
// programming error caught at init time, not a runtime condition.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.name + m.labels
	if old, ok := r.index[key]; ok {
		if m.fn != nil && old.fn != nil {
			// Gauge funcs replace: they read external state (engine
			// sizes, queue depths) that is re-bound when a new engine
			// starts, tests included.
			old.fn = m.fn
			old.help = m.help
			return
		}
		panic(fmt.Sprintf("obs: duplicate metric %s", key))
	}
	for _, old := range r.metrics {
		if old.name == m.name && old.kind != m.kind {
			panic(fmt.Sprintf("obs: metric family %s registered as both %s and %s", m.name, old.kind, m.kind))
		}
	}
	r.index[key] = m
	r.metrics = append(r.metrics, m)
}

// NewCounter registers and returns a counter series.
func (r *Registry) NewCounter(name, help string, labels ...L) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, labels: renderLabels(labels), kind: kindCounter, help: help, counter: c})
	return c
}

// NewGauge registers and returns a gauge series.
func (r *Registry) NewGauge(name, help string, labels ...L) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, labels: renderLabels(labels), kind: kindGauge, help: help, gauge: g})
	return g
}

// NewHistogram registers and returns a histogram series.
func (r *Registry) NewHistogram(name, help string, labels ...L) *Histogram {
	h := &Histogram{}
	r.register(&metric{name: name, labels: renderLabels(labels), kind: kindHistogram, help: help, hist: h})
	return h
}

// RegisterGaugeFunc registers a gauge whose value is read by fn at
// snapshot time. Re-registering the same (name, labels) replaces the
// previous function — the hook for process-lifetime series backed by
// restartable state (an engine's queue depths, tier sizes).
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64, labels ...L) {
	r.register(&metric{name: name, labels: renderLabels(labels), kind: kindGauge, help: help, fn: fn})
}

// Package-level constructors on Default.

// NewCounter registers a counter series in the Default registry.
func NewCounter(name, help string, labels ...L) *Counter {
	return Default.NewCounter(name, help, labels...)
}

// NewGauge registers a gauge series in the Default registry.
func NewGauge(name, help string, labels ...L) *Gauge {
	return Default.NewGauge(name, help, labels...)
}

// NewHistogram registers a histogram series in the Default registry.
func NewHistogram(name, help string, labels ...L) *Histogram {
	return Default.NewHistogram(name, help, labels...)
}

// RegisterGaugeFunc registers a scrape-time gauge in the Default
// registry with replace semantics.
func RegisterGaugeFunc(name, help string, fn func() float64, labels ...L) {
	Default.RegisterGaugeFunc(name, help, fn, labels...)
}

// Sample is one flattened series value in a snapshot. Histogram series
// carry their full state in Hist; scalar series use Value.
type Sample struct {
	Name   string // family name
	Labels string // rendered label set, "" when unlabeled
	Kind   string // "counter", "gauge" or "histogram"
	Help   string
	Value  float64
	Hist   *HistogramSnapshot // non-nil iff Kind == "histogram"
}

// Gather returns a point-in-time snapshot of every registered series,
// sorted by family name then label set. Gauge funcs are invoked here.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	out := make([]Sample, 0, len(metrics))
	for _, m := range metrics {
		s := Sample{Name: m.name, Labels: m.labels, Kind: m.kind, Help: m.help}
		switch {
		case m.counter != nil:
			s.Value = float64(m.counter.Value())
		case m.gauge != nil:
			s.Value = float64(m.gauge.Value())
		case m.fn != nil:
			s.Value = m.fn()
		case m.hist != nil:
			hs := m.hist.snapshot()
			s.Hist = &hs
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// WritePrometheus writes the registry's current state in Prometheus
// text exposition format (version 0.0.4). HELP and TYPE are emitted
// once per family; series within a family are ordered by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Gather()
	var b strings.Builder
	last := ""
	for i := range samples {
		s := &samples[i]
		if s.Name != last {
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, strings.ReplaceAll(s.Help, "\n", " "))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Kind)
			last = s.Name
		}
		if s.Hist != nil {
			writeHistogram(&b, s)
			continue
		}
		b.WriteString(s.Name)
		b.WriteString(s.Labels)
		b.WriteByte(' ')
		b.WriteString(formatValue(s.Value))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, s *Sample) {
	for i, bound := range s.Hist.Bounds {
		le := "+Inf"
		if bound != inf {
			le = formatValue(bound)
		}
		b.WriteString(s.Name)
		b.WriteString(mergeLabels(s.Labels, `le="`+le+`"`))
		fmt.Fprintf(b, " %d\n", s.Hist.Counts[i])
	}
	b.WriteString(s.Name + "_sum")
	b.WriteString(s.Labels)
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Hist.Sum))
	b.WriteByte('\n')
	b.WriteString(s.Name + "_count")
	b.WriteString(s.Labels)
	fmt.Fprintf(b, " %d\n", s.Hist.Count)
}

// mergeLabels appends extra (an already-rendered `k="v"` pair) to a
// rendered label set, producing the _bucket series' label string.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "_bucket{" + extra + "}"
	}
	return "_bucket" + labels[:len(labels)-1] + "," + extra + "}"
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
