// Offline analysis of an archived stream history: persist the pattern
// base to a segment store during extraction, reopen it later (raw tuples
// long gone), then analyze the archived patterns — regenerate approximate
// full representations and diff snapshots of the same tracked pattern.
package main

import (
	"fmt"
	"log"
	"os"

	"streamsum"
	"streamsum/internal/archive"
	"streamsum/internal/gen"
)

func main() {
	dir, err := os.MkdirTemp("", "offline-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Online phase: extract, archive, persist --------------------------
	feed := gen.GMTI(gen.GMTIConfig{Convoys: 5, Seed: 41}, 30000)
	eng, err := streamsum.New(streamsum.Options{
		Dim: 2, ThetaR: 1.2, ThetaC: 6, Win: 4000, Slide: 2000,
		Archive:   &streamsum.ArchiveOptions{MinPopulation: 20},
		StorePath: dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range feed.Points {
		if _, err := eng.Push(p, feed.TS[i]); err != nil {
			log.Fatal(err)
		}
	}
	// Close flushes the memory tier to the store: the directory is now a
	// complete record of the archived history.
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online phase: archived %d clusters (%.1f KB persisted)\n",
		eng.PatternBase().Len(), float64(eng.PatternBase().Bytes())/1024)

	// --- Offline phase: reopen and analyze --------------------------------
	history, err := archive.New(archive.Config{Dim: 2, StorePath: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer history.Close()
	fmt.Printf("offline phase: reopened %d clusters\n\n", history.Len())

	// Disk-resident entries carry no summary until LoadSummary reads it.
	var entries []*archive.Entry
	history.All(func(e *archive.Entry) bool {
		sum, lerr := e.LoadSummary()
		if lerr != nil {
			err = lerr
			return false
		}
		entries = append(entries, e.WithSummary(sum))
		return true
	})
	if err != nil {
		log.Fatal(err)
	}

	// Pick two snapshots of (likely) the same drifting pattern: the pair of
	// entries from different windows with the highest cell overlap.
	var a, b *archive.Entry
	bestJ := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			if entries[i].Summary.Window == entries[j].Summary.Window {
				continue // same window → different patterns by construction
			}
			if d, err := streamsum.DiffSummaries(entries[i].Summary, entries[j].Summary); err == nil {
				if d.CellJaccard > bestJ {
					bestJ, a, b = d.CellJaccard, entries[i], entries[j]
				}
			}
		}
	}
	if a == nil {
		log.Fatal("no comparable snapshots")
	}
	d, err := streamsum.DiffSummaries(a.Summary, b.Summary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evolution of pattern %d → %d (windows %d → %d):\n  %v\n\n",
		a.ID, b.ID, a.Summary.Window, b.Summary.Window, d)

	// Regenerate an approximate full representation of an archived cluster
	// whose raw tuples no longer exist.
	pts := streamsum.Regenerate(b.Summary, streamsum.RegenOptions{})
	fmt.Printf("regenerated %d approximate member positions from %d cells (%d bytes of summary)\n",
		len(pts), b.Summary.NumCells(), b.Bytes)
	fmt.Print(b.Summary.Render())
}
