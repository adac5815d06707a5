// Command benchmark is the one benchmark of streamsum: four named
// workloads, eleven end-to-end metrics measured through the public facade,
// and a layer pass that times the calls into each layer from outside. See
// README.md in this directory.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <n>]   (every workload, one process each)
//	benchmark compare [--bounds BENCHMARK.json] a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"streamsum"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of a run's standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run reports; it is written to --out and
// collected into results.json by the all-workloads mode.
type record struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Trace        int            `json:"trace"`
	Host         hostStamp      `json:"host"`
	ResultDigest string         `json:"result_digest"`
	Samples      map[string]int `json:"samples"`
	SubPairs     uint64         `json:"sub_pairs"`
	SubEvents    uint64         `json:"sub_events"`
	Checks       map[string]int `json:"checks"`
	Failures     []string       `json:"failures,omitempty"`
	verdict
}

// results is the file the all-workloads mode writes and compare reads.
type results struct {
	Runs []record `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run this workload in this process (default: every workload, one child process each)")
		seed    = flag.Int64("seed", 2011, "seed of every generated input")
		seconds = flag.Float64("seconds", nominalSeconds, "nominal length of the timed phases; scales every operation count")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics through the facade; 1: the layer pass and its per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "out"), "directory for run records and trace files")
		repeat  = flag.Int("repeat", 1, "all-workloads mode: runs per workload")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *out, *repeat))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
		os.Exit(2)
	}
	rec, err := runWorkload(w, *seed, *seconds, *trace, episodes, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	report(os.Stdout, rec)
	if err := writeJSON(recordPath(*out, w.name, *trace), rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(rec.verdict)
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func recordPath(out, workload string, trace int) string {
	return filepath.Join(out, fmt.Sprintf("run-%s-trace%d.json", workload, trace))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

// runWorkload runs one workload in this process: the untraced pass for
// --trace 0, its length split over the given number of episodes, or the
// layer pass and its untraced reference run for --trace 1.
func runWorkload(w *workload, seed int64, seconds float64, trace, episodes int, out string) (*record, error) {
	scratch, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	rec := &record{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Host: stampHost(),
		verdict: verdict{Metrics: make(map[string]metricValue)},
	}
	if trace == 0 {
		res, err := runPass(runConfig{
			w: w.scaled(seconds / float64(episodes)), seed: seed, episodes: episodes, scratch: scratch, newSystem: newFacade,
		})
		if err != nil {
			return nil, err
		}
		if seconds >= nominalSeconds { // shorter runs are for smoke tests
			res.checkSamples()
		}
		rec.fill(res, endToEnd, res.endToEndValues())
		rec.Samples = res.sampleCounts()
		rec.SubPairs, rec.SubEvents = res.subPairs, res.subEvents
		return rec, nil
	}

	// The layer pass covers the workload's own phases; its reference run
	// does the same work through the facade first. Each gets half the run's
	// length, in one episode.
	half := w.withoutFixture().scaled(seconds / 2)
	fac, err := runPass(runConfig{w: half, seed: seed, episodes: 1, scratch: scratch, newSystem: newFacade})
	if err != nil {
		return nil, err
	}
	var l *layered
	rp := &replays{}
	concurrentAnalyst := false
	for _, p := range half.phases {
		concurrentAnalyst = concurrentAnalyst || p.analyst
	}
	var storeDir string
	lay, err := runPass(runConfig{
		w: half, seed: seed, episodes: 1, scratch: scratch,
		newSystem: func(o streamsum.Options) (system, error) {
			var err error
			l, err = newLayered(o, !concurrentAnalyst)
			return l, err
		},
		beforeClose: func(r *run) error {
			rp.cellsLive = l.ex.Stats().Cells
			storeDir = r.storeDir
			return rp.replaySGS(l.base, seed)
		},
		afterClose: func(r *run) error {
			if !w.disk {
				return nil
			}
			return rp.replaySegstore(storeDir, l.opts.Dim)
		},
	})
	if err != nil {
		return nil, err
	}
	if w.parallelReplay {
		if err := rp.replayParallel(half, seed); err != nil {
			return nil, err
		}
	}
	// The reference run's operations and checks count too, and the two
	// passes, having done the same work, must have produced the same
	// outputs.
	differ := 0
	if fac.digest != lay.digest {
		differ = 1
	}
	lay.tally.check("passes", 1, differ, "the layer pass's outputs differ from the facade's")
	lay.tally.merge(&fac.tally)
	spans := mergeSpans(&l.ingest, &l.query)
	rec.fill(lay, perLayer, layerMetrics(fac, lay, l, rp, spans))
	rec.Samples = map[string]int{"spans": len(spans)}
	return rec, writeTrace(filepath.Join(out, fmt.Sprintf("trace-%s.json", w.name)), traceFile{Workload: w.name, Seed: seed, Spans: spans})
}

// fill sets the record's metrics, in catalogue order, and its counts.
func (rec *record) fill(res *passResult, catalogue []metric, values map[string]float64) {
	for _, m := range catalogue {
		rec.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	rec.ResultDigest = res.digest
	t := &res.tally
	rec.Attempted, rec.Failed, rec.Correct = t.attempted, t.failed, t.failed == 0
	rec.Checks, rec.Failures = t.checks, t.failures
}

// report prints the run for a reader; the machine-readable verdict follows
// it as the last line.
func report(out *os.File, rec *record) {
	h := rec.Host
	fmt.Fprintf(out, "streamsum benchmark: workload=%s seed=%d seconds=%g trace=%d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(out, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s vcs=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Revision)
	catalogue := endToEnd
	if rec.Trace == 1 {
		catalogue = perLayer
	}
	for _, m := range catalogue {
		v := rec.Metrics[m.name]
		line := fmt.Sprintf("  %-34s %14.4f %s", m.name, v.Value, v.Unit)
		for family, n := range rec.Samples { // window_p95_ms rests on Samples["window"]
			if strings.HasPrefix(m.name, family+"_p") {
				line += fmt.Sprintf("  (n=%d)", n)
			}
		}
		fmt.Fprintln(out, line)
	}
	kinds := make([]string, 0, len(rec.Checks))
	for k := range rec.Checks {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprint(out, "checks:")
	for _, k := range kinds {
		fmt.Fprintf(out, " %s=%d", k, rec.Checks[k])
	}
	if rec.Trace == 0 {
		fmt.Fprintf(out, "\nstanding queries: %d pairs refined, %d events delivered", rec.SubPairs, rec.SubEvents)
	}
	fmt.Fprintf(out, "\nfailed_share: %d/%d\nresult_digest: %s\n", rec.Failed, rec.Attempted, rec.ResultDigest)
	for _, f := range rec.Failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
}

// runAll runs every workload in a child process of its own, so that heap,
// GC state and mappings do not leak from one into the next, and collects
// the records into results.json.
func runAll(seed int64, seconds float64, trace int, out string, repeat int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var all results
	code := 0
	for _, w := range workloads {
		for rep := 0; rep < repeat; rep++ {
			for t := 0; t <= trace; t++ {
				cmd := exec.Command(self,
					"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
					"--trace", fmt.Sprint(t), "--out", out)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				os.Remove(recordPath(out, w.name, t)) // never read a stale record
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
					code = 1
				}
				var rec record
				b, err := os.ReadFile(recordPath(out, w.name, t))
				if err == nil {
					err = json.Unmarshal(b, &rec)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
					code = 1
					continue
				}
				all.Runs = append(all.Runs, rec)
			}
		}
	}
	path := filepath.Join(out, "results.json")
	if err := writeJSON(path, all); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println("results written to", path)
	return code
}
