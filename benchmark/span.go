package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// A span is one timed call into a layer, recorded from outside it.
// Times are nanoseconds since the recorder's epoch; Parent indexes the
// span that caused this one (-1 for the root of a request); spans of one
// slide or one query share Request.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int64  `json:"request"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of one goroutine in memory. It is not
// synchronised: the ingest goroutine and the analyst goroutine each own one,
// and the two are merged when the workload ends.
type recorder struct {
	epoch time.Time
	spans []span
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int, request int64) int {
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Request: request,
		Start: int64(time.Since(r.epoch)),
	})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	r.spans[i].End = int64(time.Since(r.epoch))
	return r.spans[i].dur()
}

// mergeSpans concatenates the recorders' spans, re-basing parent indexes.
func mergeSpans(recs ...*recorder) []span {
	var out []span
	for _, r := range recs {
		base := len(out)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerOf is the module a span belongs to: the part of its name before the
// first dot ("archive.putbatch" -> "archive").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// busyByLayer sums self time per layer: the time each module itself was
// working, with the calls it made into other modules taken out.
func busyByLayer(spans []span) map[string]time.Duration {
	busy := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		busy[layerOf(spans[i].Name)] += d
	}
	return busy
}

// totalByName sums span durations and counts per span name.
func totalByName(spans []span) (map[string]time.Duration, map[string]int) {
	total, count := make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		total[s.Name] += s.dur()
		count[s.Name]++
	}
	return total, count
}

// traceFile is what the layer pass writes when a workload ends.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}
