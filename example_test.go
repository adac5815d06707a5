package streamsum_test

import (
	"fmt"
	"math/rand"

	"streamsum"
)

// Two compact clumps of tuples, pushed through a tumbling window.
func demoPoints() []streamsum.Point {
	rng := rand.New(rand.NewSource(7))
	pts := make([]streamsum.Point, 0, 400)
	for i := 0; i < 200; i++ {
		pts = append(pts, streamsum.Point{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4})
	}
	for i := 0; i < 200; i++ {
		pts = append(pts, streamsum.Point{10 + rng.NormFloat64()*0.4, 10 + rng.NormFloat64()*0.4})
	}
	return pts
}

// Example shows end-to-end continuous clustering: push tuples, receive
// per-window clusters in full and summarized representation.
func Example() {
	eng, err := streamsum.New(streamsum.Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4,
		Win: 400, Slide: 400,
	})
	if err != nil {
		panic(err)
	}
	for _, p := range demoPoints() {
		if _, err := eng.Push(p, 0); err != nil {
			panic(err)
		}
	}
	w, err := eng.Flush()
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", len(w.Clusters))
	for _, c := range w.Clusters {
		fmt.Printf("members=%d cells=%d\n", len(c.Members), c.Summary.NumCells())
	}
	// Output:
	// clusters: 2
	// members=200 cells=12
	// members=200 cells=15
}

// ExampleSummarizeStatic summarizes a static point set (no stream) and
// prints the clusters' features.
func ExampleSummarizeStatic() {
	clusters, err := streamsum.SummarizeStatic(demoPoints(), 1.0, 4)
	if err != nil {
		panic(err)
	}
	for _, c := range clusters {
		f := c.Summary.Features()
		fmt.Printf("pop=%d cells=%.0f core=%.0f\n",
			c.Summary.TotalPopulation(), f.Volume, f.StatusCount)
	}
	// Output:
	// pop=200 cells=12 core=12
	// pop=200 cells=15 core=15
}

// ExampleOptions configures an engine explicitly: query parameters (the
// DETECT clause of Figure 2) plus the execution-side knobs the query
// language does not cover. Parallelism only changes how much hardware the
// engine uses — never the output itself.
func ExampleOptions() {
	eng, err := streamsum.New(streamsum.Options{
		Dim:    2,   // tuple dimensionality
		ThetaR: 1.0, // neighbor range threshold θr
		ThetaC: 4,   // neighbor count threshold θc
		Win:    400, // window size, in tuples (TimeBased switches to ticks)
		Slide:  400, // slide size

		Parallelism: 4, // goroutines per fan-out (discovery, summaries, matching)
	})
	if err != nil {
		panic(err)
	}
	if _, err := eng.PushBatch(demoPoints(), nil); err != nil {
		panic(err)
	}
	w, err := eng.Flush()
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", len(w.Clusters))
	// Output:
	// clusters: 2
}

// ExampleEngine_PushBatch feeds a whole slide per call — the
// high-throughput ingest path. Results are byte-identical to pushing the
// tuples one at a time; batching only changes where neighbors are found
// (a parallel fan-out over frozen state), never how state is updated.
func ExampleEngine_PushBatch() {
	eng, err := streamsum.New(streamsum.Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4,
		Win: 400, Slide: 200,
	})
	if err != nil {
		panic(err)
	}
	pts := demoPoints()
	for lo := 0; lo < len(pts); lo += 200 { // one slide per batch
		ws, err := eng.PushBatch(pts[lo:lo+200], nil)
		if err != nil {
			panic(err)
		}
		for _, w := range ws {
			fmt.Printf("window %d: %d clusters\n", w.Window, len(w.Clusters))
		}
	}
	w, err := eng.Flush() // the final window is still filling; force it
	if err != nil {
		panic(err)
	}
	fmt.Printf("window %d: %d clusters\n", w.Window, len(w.Clusters))
	// Output:
	// window 0: 2 clusters
}

// ExampleOptionsFromQuery parses a DETECT query in the paper's query
// language (Figure 2) and fills in the execution-side knobs before
// building the engine.
func ExampleOptionsFromQuery() {
	opts, err := streamsum.OptionsFromQuery(`
		DETECT DensityBasedClusters f+s FROM s
		USING theta_range = 1.0 AND theta_cnt = 4
		IN WINDOWS WITH win = 400 AND slide = 400`, 2)
	if err != nil {
		panic(err)
	}
	opts.Parallelism = 4 // a knob the query language leaves to the runtime
	eng, err := streamsum.New(opts)
	if err != nil {
		panic(err)
	}
	if _, err := eng.PushBatch(demoPoints(), nil); err != nil {
		panic(err)
	}
	w, err := eng.Flush()
	if err != nil {
		panic(err)
	}
	fmt.Printf("win=%d slide=%d summarized=%v clusters=%d\n",
		opts.Win, opts.Slide, !opts.FullOnly, len(w.Clusters))
	// Output:
	// win=400 slide=400 summarized=true clusters=2
}

// ExampleEngine_MatchQuery archives extracted clusters and retrieves the
// ones similar to a target using the paper's query language.
func ExampleEngine_MatchQuery() {
	eng, err := streamsum.New(streamsum.Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4,
		Win: 400, Slide: 400,
		Archive: &streamsum.ArchiveOptions{},
	})
	if err != nil {
		panic(err)
	}
	var target *streamsum.Summary
	for _, p := range demoPoints() {
		if _, err := eng.Push(p, 0); err != nil {
			panic(err)
		}
	}
	w, err := eng.Flush()
	if err != nil {
		panic(err)
	}
	for _, c := range w.Clusters {
		target = c.Summary
	}

	matches, _, err := eng.MatchQuery(`
		GIVEN DensityBasedCluster input
		SELECT DensityBasedClusters FROM History
		WHERE Distance <= 0.2 LIMIT 1`, target)
	if err != nil {
		panic(err)
	}
	fmt.Printf("archived=%d matches=%d distance=%.1f\n",
		eng.PatternBase().Len(), len(matches), matches[0].Distance)
	// Output:
	// archived=2 matches=1 distance=0.0
}

// ExampleRegenerate synthesizes an approximate full representation of a
// cluster from its summary alone: every cell's exact population,
// scattered inside the cell.
func ExampleRegenerate() {
	clusters, err := streamsum.SummarizeStatic(demoPoints(), 1.0, 4)
	if err != nil {
		panic(err)
	}
	s := clusters[0].Summary
	pts := streamsum.Regenerate(s, streamsum.RegenOptions{Seed: 1})
	again, err := streamsum.SummarizeStatic(pts, 1.0, 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("members=%d regenerated=%d reclustered=%d\n", len(clusters[0].Members), len(pts), len(again[0].Members))
	// Output:
	// members=200 regenerated=200 reclustered=200
}

// ExampleDiffSummaries compares two snapshots of one cluster: the clump
// after 100 and after all 200 of its tuples.
func ExampleDiffSummaries() {
	summarize := func(pts []streamsum.Point) *streamsum.Summary {
		clusters, err := streamsum.SummarizeStatic(pts, 1.0, 4)
		if err != nil {
			panic(err)
		}
		return clusters[0].Summary
	}
	pts := demoPoints()[:200]
	d, err := streamsum.DiffSummaries(summarize(pts[:100]), summarize(pts))
	if err != nil {
		panic(err)
	}
	fmt.Printf("added=%d removed=%d promoted=%d population%+d jaccard=%.2f\n",
		len(d.Added), len(d.Removed), len(d.Promoted), d.PopulationDelta, d.CellJaccard)
	// Output:
	// added=2 removed=0 promoted=0 population+100 jaccard=0.83
}

// ExampleNewMatchTrace records one query's span tree: the filter phase
// with one child per shard, then refine and order, with their counts as
// attributes (wall times, not printed here, ride on every span).
func ExampleNewMatchTrace() {
	eng, err := streamsum.New(streamsum.Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 400, Slide: 400,
		Archive: &streamsum.ArchiveOptions{}, Parallelism: 1,
	})
	if err != nil {
		panic(err)
	}
	if _, err := eng.PushBatch(demoPoints(), nil); err != nil {
		panic(err)
	}
	w, err := eng.Flush()
	if err != nil {
		panic(err)
	}
	tr := streamsum.NewMatchTrace()
	if _, _, err := eng.Match(streamsum.MatchOptions{Target: w.Clusters[0].Summary, Threshold: 0.2, Trace: tr}); err != nil {
		panic(err)
	}
	td, _ := tr.Finish()
	for _, sp := range td.Spans {
		fmt.Println(sp.Name, sp.Attrs)
	}
	// Output:
	// match map[]
	// filter map[candidates:2 segments_probed:0 segments_skipped:0 shards:1]
	// shard map[candidates:2 kept:1 segment:mem]
	// refine map[disk_loads:0 profile_pruned:0 pruned:0 refined:1 size_pruned:0 topk_skipped:0]
	// order map[matches:1]
}
