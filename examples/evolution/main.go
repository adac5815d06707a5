// Cluster evolution monitoring: track congestion areas across windows
// (stable identities, merge/split events) and archive each *distinct*
// pattern once using evolution-driven selective archiving — the paper's
// §6.2 future-work direction, built on SGS matching.
package main

import (
	"fmt"
	"log"

	"streamsum"
	"streamsum/internal/gen"
)

func main() {
	feed := gen.GMTI(gen.GMTIConfig{Convoys: 5, Seed: 31}, 40000)

	eng, err := streamsum.New(streamsum.Options{
		Dim: 2, ThetaR: 1.2, ThetaC: 6,
		Win: 4000, Slide: 1000,
		Archive:        &streamsum.ArchiveOptions{MinPopulation: 15},
		ArchiveNovelty: 0.45, // archive only patterns not yet represented
	})
	if err != nil {
		log.Fatal(err)
	}
	tracker := streamsum.NewTracker()

	counts := map[streamsum.TrackKind]int{}
	lifespan := map[int64]int{}
	for i, p := range feed.Points {
		results, err := eng.Push(p, feed.TS[i])
		if err != nil {
			log.Fatal(err)
		}
		for _, w := range results {
			for _, ev := range tracker.Advance(w) {
				counts[ev.Kind]++
				if ev.Kind != streamsum.TrackVanished {
					lifespan[ev.TrackID]++
				}
				switch ev.Kind {
				case streamsum.TrackMerged:
					fmt.Printf("window %3d: tracks %v merged into track %d (%d vehicles)\n",
						w.Window, ev.Predecessors, ev.TrackID, len(ev.Cluster.Members))
				case streamsum.TrackSplit:
					fmt.Printf("window %3d: track %d split off from %v (%d vehicles)\n",
						w.Window, ev.TrackID, ev.Predecessors, len(ev.Cluster.Members))
				}
			}
		}
	}

	fmt.Println("\nevolution summary:")
	for _, k := range []streamsum.TrackKind{
		streamsum.TrackAppeared, streamsum.TrackContinued, streamsum.TrackMerged,
		streamsum.TrackSplit, streamsum.TrackVanished,
	} {
		fmt.Printf("  %-10v %4d\n", k, counts[k])
	}
	longest, lid := 0, int64(-1)
	for id, n := range lifespan {
		// Ties go to the smallest id, so the line does not depend on map
		// iteration order.
		if n > longest || n == longest && id < lid {
			longest, lid = n, id
		}
	}
	fmt.Printf("  longest-lived track: %d (%d windows)\n", lid, longest)
	fmt.Printf("\npattern base: %d distinct patterns archived (novelty threshold 0.45)\n",
		eng.PatternBase().Len())
}
