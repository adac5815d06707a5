package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, the median and the third quartile
// as Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method). It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 for fewer than two runs, which cannot show one.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, q2)
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// judge applies a regression bound: a spread wider than the bound on either
// side leaves the pair unresolved, not unchanged.
func judge(a, b []float64, better string, bound float64) string {
	switch {
	case max(spread(a), spread(b)) > bound:
		return "unresolved"
	case worseBy(median(a), median(b), better) > bound:
		return "worse"
	}
	return "ok"
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// untraced groups a file's --trace 0 values by workload and metric, and its
// result digests by workload.
func (r *results) untraced() (map[string]map[string][]float64, map[string]map[string]bool) {
	values := make(map[string]map[string][]float64)
	digests := make(map[string]map[string]bool)
	for _, rec := range r.Runs {
		if rec.Trace != 0 {
			continue
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = make(map[string][]float64)
			digests[rec.Workload] = make(map[string]bool)
		}
		for name, v := range rec.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], v.Value)
		}
		digests[rec.Workload][fmt.Sprintf("seed %d: %s", rec.Seed, rec.ResultDigest)] = true
	}
	return values, digests
}

// compareMain prints one row per (workload, end-to-end metric) of two
// results files, the medians of a and of b and b's change against a with the
// metric's bound, and returns 1 if any row is worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "the benchmark definition that holds the regression bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [--bounds BENCHMARK.json] a.json b.json")
		return 2
	}
	var def benchmarkFile
	raw, err := os.ReadFile(*bounds)
	if err == nil {
		err = json.Unmarshal(raw, &def)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	av, ad := a.untraced()
	bv, bd := b.untraced()
	code := 0
	fmt.Printf("%-11s %-20s %14s %14s %10s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b-a, % of a", "bound", "verdict")
	for _, w := range workloads {
		if av[w.name] == nil || bv[w.name] == nil {
			continue
		}
		for _, m := range def.EndToEnd {
			xa, xb := av[w.name][m.Name], bv[w.name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict := judge(xa, xb, m.Better, m.Bound)
			if verdict == "worse" {
				code = 1
			}
			change := ratio(median(xb)-median(xa), median(xa))
			fmt.Printf("%-11s %-20s %14.4f %14.4f %+9.1f%% %6.0f%%  %-10s %s is better, runs %d/%d\n",
				w.name, m.Name, median(xa), median(xb), 100*change, 100*m.Bound, verdict, m.Better, len(xa), len(xb))
		}
		same := "identical"
		for d := range ad[w.name] {
			if !bd[w.name][d] {
				same = "DIFFERENT (or other seeds)"
			}
		}
		fmt.Printf("%-11s %-20s %s\n", w.name, "result_digest", same)
	}
	return code
}
