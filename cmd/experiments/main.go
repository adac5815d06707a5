// Command experiments regenerates every figure of the paper's evaluation
// (§8) and prints paper-style result tables.
//
// Usage:
//
//	experiments fig7 [-windows N] [-case 1|2|3|all] [-slide N|all] [-seed S]
//	experiments fig8 [-sizes 100,1000,10000] [-queries N] [-seed S]
//	experiments fig9 [-archive N] [-targets N] [-seed S]
//	experiments timevar [-windows N] [-seed S]
//	experiments resolution [-levels N] [-theta N] [-seed S]
//	experiments all [-quick]
//
// Absolute numbers depend on the host; the shapes (who wins, by what
// factor, where the crossovers are) reproduce the paper. No
// paper-vs-measured record is committed yet; ROADMAP.md item 12 plans one.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamsum/internal/experiments"
	"streamsum/internal/gen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "fig7":
		err = runFig7(args)
	case "fig8":
		err = runFig8(args)
	case "fig9":
		err = runFig9(args)
	case "timevar":
		err = runTimeVar(args)
	case "resolution":
		err = runResolution(args)
	case "all":
		err = runAll(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments <fig7|fig8|fig9|timevar|resolution|all> [flags]
run "experiments <subcommand> -h" for flags`)
}

func runFig7(args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ExitOnError)
	windows := fs.Int("windows", 20, "complete windows per configuration")
	caseSel := fs.String("case", "all", "parameter case: 1, 2, 3 or all")
	slideSel := fs.String("slide", "all", "slide size: 100, 1000, 5000 or all")
	seed := fs.Int64("seed", 2011, "workload seed")
	_ = fs.Parse(args)

	cases := experiments.Cases
	if *caseSel != "all" {
		i, err := strconv.Atoi(*caseSel)
		if err != nil || i < 1 || i > 3 {
			return fmt.Errorf("bad -case %q", *caseSel)
		}
		cases = cases[i-1 : i]
	}
	slides := experiments.Slides
	if *slideSel != "all" {
		v, err := strconv.ParseInt(*slideSel, 10, 64)
		if err != nil {
			return fmt.Errorf("bad -slide %q", *slideSel)
		}
		slides = []int64{v}
	}

	fmt.Println("Figure 7 — response time and memory of cluster extraction + summarization")
	fmt.Printf("STT 4-D, win=%d, %d windows per cell, seed %d\n\n", experiments.Fig7Win, *windows, *seed)
	for _, pc := range cases {
		for _, slide := range slides {
			need := experiments.Fig7Win + int64(*windows)*slide
			data := gen.STT(gen.STTConfig{Seed: *seed}, int(need))
			fmt.Printf("%s (θr=%.2f θc=%d), slide=%d:\n", pc.Name, pc.ThetaR, pc.ThetaC, slide)
			fmt.Printf("  %-14s %14s %12s %12s %10s %10s\n", "method", "resp/window", "p95", "peak heap", "clusters", "overhead")
			var baseline experiments.Fig7Result
			byMethod := map[string]experiments.Fig7Result{}
			for _, m := range experiments.Methods {
				res, err := experiments.RunFig7(experiments.Fig7Config{
					Case: pc, Slide: slide, Method: m, Windows: *windows,
					Seed: *seed, Data: &data,
				})
				if err != nil {
					return err
				}
				byMethod[m] = res
				over := ""
				if m == "Extra-N" {
					baseline = res
				} else {
					over = fmt.Sprintf("%+.1f%%", 100*experiments.Fig7Overhead(res, baseline))
				}
				fmt.Printf("  %-14s %14v %12v %10.1fMB %10d %10s\n",
					m, res.AvgResponse.Round(time.Microsecond),
					res.P95Response.Round(time.Microsecond),
					float64(res.PeakHeapBytes)/(1<<20), res.Clusters, over)
			}
			fmt.Printf("  → summarization overhead of C-SGS over its own extraction: %+.1f%% (paper: ≤6%%)\n\n",
				100*experiments.Fig7Overhead(byMethod["C-SGS"], byMethod["C-SGS-full"]))
		}
	}
	return nil
}

func runFig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ExitOnError)
	sizes := fs.String("sizes", "100,1000,10000", "archive sizes, comma separated")
	queries := fs.Int("queries", 100, "to-be-matched clusters")
	expq := fs.Int("expensive-queries", 10, "queries for pairwise methods (RSP, SkPS)")
	seed := fs.Int64("seed", 2011, "workload seed")
	_ = fs.Parse(args)

	fmt.Println("Figure 8 — cluster matching query response time and storage")
	fmt.Printf("threshold 0.2, %d queries (%d for pairwise methods), seed %d\n\n", *queries, *expq, *seed)
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad -sizes entry %q", s)
		}
		results, err := experiments.RunFig8(experiments.Fig8Config{
			ArchiveSize: n, Queries: *queries, ExpensiveQueries: *expq, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("archive of %d clusters:\n", n)
		fmt.Printf("  %-6s %14s %12s %10s %14s\n", "method", "avg query", "storage", "matches", "grid-level %")
		for _, r := range results {
			extra := ""
			if r.Method == "SGS" {
				extra = fmt.Sprintf("%.1f%%", 100*r.FilterFrac)
			}
			fmt.Printf("  %-6s %14v %10.2fMB %10d %14s\n",
				r.Method, r.AvgQuery.Round(time.Microsecond),
				float64(r.StoreBytes)/(1<<20), r.Matches, extra)
		}
		for _, r := range results {
			if r.Method == "SGS" {
				fmt.Printf("  SGS compression rate vs full representation: %.1f%% (avg %.0f cells/cluster)\n\n",
					100*r.CompressionRate, r.AvgCells)
			}
		}
	}
	return nil
}

func runFig9(args []string) error {
	fs := flag.NewFlagSet("fig9", flag.ExitOnError)
	archiveN := fs.Int("archive", 300, "archived clusters")
	targets := fs.Int("targets", 24, "to-be-matched clusters")
	dim := fs.Int("dim", 2, "workload dimensionality (paper's STT matching is 4-D)")
	seed := fs.Int64("seed", 2011, "workload seed")
	_ = fs.Parse(args)

	fmt.Println("Figure 9 — matching quality (simulated analyst study; see internal/quality)")
	fmt.Printf("archive %d, %d targets, %d-D, top-3 matches per method, seed %d\n\n", *archiveN, *targets, *dim, *seed)
	results, err := experiments.RunFig9(experiments.Fig9Config{
		ArchiveSize: *archiveN, Targets: *targets, Dim: *dim, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s %12s %12s %14s\n", "method", "very similar", "similar", "not similar", "similar rate")
	for _, r := range results {
		v, s, n := r.Tally.Rates()
		fmt.Printf("%-6s %11.0f%% %11.0f%% %11.0f%% %13.0f%%\n",
			r.Method, 100*v, 100*s, 100*n, 100*r.Tally.SimilarRate())
	}
	// Per-shape breakdown: where each summarization loses fidelity.
	shapes := map[string]bool{}
	for _, r := range results {
		for sh := range r.ByShape {
			shapes[sh] = true
		}
	}
	var order []string
	for sh := range shapes {
		order = append(order, sh)
	}
	sort.Strings(order)
	fmt.Printf("\nsimilar rate by target shape:\n%-6s", "method")
	for _, sh := range order {
		fmt.Printf(" %10s", sh)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("%-6s", r.Method)
		for _, sh := range order {
			if tl := r.ByShape[sh]; tl != nil && tl.Total() > 0 {
				fmt.Printf(" %9.0f%%", 100*tl.SimilarRate())
			} else {
				fmt.Printf(" %10s", "-")
			}
		}
		fmt.Println()
	}
	return nil
}

func runTimeVar(args []string) error {
	fs := flag.NewFlagSet("timevar", flag.ExitOnError)
	windows := fs.Int("windows", 20, "complete windows")
	seed := fs.Int64("seed", 2011, "workload seed")
	_ = fs.Parse(args)

	fmt.Println("Tech-report experiment — time-based windows, fluctuating input rate")
	results, err := experiments.RunTimeVar(experiments.TimeVarConfig{Windows: *windows, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %14s %14s %10s\n", "method", "avg resp", "max resp", "clusters")
	for _, r := range results {
		fmt.Printf("%-8s %14v %14v %10d\n", r.Method,
			r.AvgResponse.Round(time.Microsecond), r.MaxResponse.Round(time.Microsecond), r.Clusters)
	}
	return nil
}

func runResolution(args []string) error {
	fs := flag.NewFlagSet("resolution", flag.ExitOnError)
	levels := fs.Int("levels", 2, "max resolution level")
	theta := fs.Int("theta", 3, "compression rate θ")
	archiveN := fs.Int("archive", 200, "archived clusters")
	targets := fs.Int("targets", 16, "targets")
	seed := fs.Int64("seed", 2011, "workload seed")
	_ = fs.Parse(args)

	fmt.Println("Tech-report experiment — multi-resolution SGS matching (§6.1 trade-off)")
	results, err := experiments.RunResolution(experiments.ResolutionConfig{
		Levels: *levels, Theta: *theta, ArchiveSize: *archiveN, Targets: *targets, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s %10s %14s %12s\n", "level", "storage", "avg cells", "avg query", "top-1 sim")
	for _, r := range results {
		fmt.Printf("L%-5d %10.2fKB %10.1f %14v %12.3f\n",
			r.Level, float64(r.StoreBytes)/1024, r.AvgCells,
			r.AvgQuery.Round(time.Microsecond), r.AvgTopSim)
	}
	return nil
}

func runAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced scales for a fast smoke run")
	_ = fs.Parse(args)
	if *quick {
		if err := runFig7([]string{"-windows", "5", "-case", "2", "-slide", "1000"}); err != nil {
			return err
		}
		if err := runFig8([]string{"-sizes", "100,1000", "-queries", "20", "-expensive-queries", "3"}); err != nil {
			return err
		}
		if err := runFig9([]string{"-archive", "100", "-targets", "10"}); err != nil {
			return err
		}
		if err := runTimeVar([]string{"-windows", "10"}); err != nil {
			return err
		}
		return runResolution([]string{"-archive", "60", "-targets", "8"})
	}
	for _, f := range []func([]string) error{runFig7, runFig8, runFig9, runTimeVar, runResolution} {
		if err := f(nil); err != nil {
			return err
		}
	}
	return nil
}
