// Command sgstool inspects pattern-base files written by sgsd or the
// archive API, and disk-tier store directories written with sgsd -store.
//
// Usage:
//
//	sgstool list  base.sgsb             # one line per archived cluster
//	sgstool show  base.sgsb -id 3       # details + ASCII rendering
//	sgstool stats base.sgsb             # aggregate statistics
//	sgstool match base.sgsb -id 3 -threshold 0.3 -limit 5
//	                                    # match one archived cluster
//	                                    # against the rest of the base
//	sgstool inspect store.dir           # per-segment stats of a disk tier
//	sgstool compact store.dir           # merge undersized segments, drop
//	                                    # tombstoned summaries
//
// File subcommands read through one pattern-base snapshot, the same
// read-only view matching queries use against a live archiver. inspect
// reads the segment footers for the per-segment lines, then decodes
// every live summary blob twice through a decoded-summary cache
// (internal/sumcache) — a validation pass whose warm hit ratio and
// resident bytes appear on the final "sumcache:" line.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"streamsum/internal/archive"
	"streamsum/internal/match"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
	"streamsum/internal/sumcache"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: sgstool <list|show|stats|match|inspect|compact> <file|storedir> [flags]")
		os.Exit(2)
	}
	cmd, path := os.Args[1], os.Args[2]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	id := fs.Int64("id", 0, "archive id (show, match)")
	threshold := fs.Float64("threshold", 0.3, "distance threshold (match)")
	limit := fs.Int("limit", 5, "max matches (match)")
	matchWorkers := fs.Int("match-workers", 0, "parallel matching workers for the filter and refine phases (0 = one per CPU, 1 = sequential)")
	dim := fs.Int("dim", 0, "data dimensionality (default: taken from the first record; inspect/compact probe 2..8)")
	_ = fs.Parse(os.Args[3:])

	switch cmd {
	case "inspect", "compact":
		if err := storeCmd(cmd, path, *dim); err != nil {
			log.Fatal(err)
		}
		return
	}

	base, err := load(path, *dim)
	if err != nil {
		log.Fatal(err)
	}
	// One snapshot serves every subcommand: a consistent point-in-time
	// view, searched without ever taking the base lock.
	snap := base.Snapshot()

	switch cmd {
	case "list":
		fmt.Printf("%6s %8s %8s %8s %8s %10s %8s\n", "id", "window", "cells", "core", "pop", "density", "bytes")
		snap.All(func(e *archive.Entry) bool {
			f := e.Features
			fmt.Printf("%6d %8d %8.0f %8.0f %8d %10.2f %8d\n",
				e.ID, e.Summary.Window, f.Volume, f.StatusCount,
				e.Summary.TotalPopulation(), f.AvgDensity, e.Bytes)
			return true
		})
	case "show":
		e := snap.Get(*id)
		if e == nil {
			log.Fatalf("sgstool: no cluster %d", *id)
		}
		f := e.Features
		fmt.Printf("cluster %d (window %d, level %d)\n", e.ID, e.Summary.Window, e.Summary.Level)
		fmt.Printf("  cells=%0.f core=%0.f population=%d\n", f.Volume, f.StatusCount, e.Summary.TotalPopulation())
		fmt.Printf("  avg density=%.3f avg connectivity=%.3f\n", f.AvgDensity, f.AvgConnectivity)
		fmt.Printf("  MBR=%v\n  encoded=%d bytes\n\n", e.MBR, e.Bytes)
		fmt.Print(e.Summary.Render())
	case "stats":
		n, cells, pop, bytes := 0, 0, 0, 0
		snap.All(func(e *archive.Entry) bool {
			n++
			cells += e.Summary.NumCells()
			pop += e.Summary.TotalPopulation()
			bytes += e.Bytes
			return true
		})
		if n == 0 {
			fmt.Println("empty pattern base")
			return
		}
		fmt.Printf("clusters:        %d\n", n)
		fmt.Printf("total cells:     %d (avg %.1f per cluster)\n", cells, float64(cells)/float64(n))
		fmt.Printf("total population:%d\n", pop)
		fmt.Printf("summary bytes:   %d (avg %.0f per cluster, %.1f per cell)\n",
			bytes, float64(bytes)/float64(n), float64(bytes)/float64(cells))
		full := pop * 8 * dimOf(snap)
		fmt.Printf("full-rep bytes:  ~%d → compression %.1f%%\n", full, 100*(1-float64(bytes)/float64(full)))
	case "match":
		e := snap.Get(*id)
		if e == nil {
			log.Fatalf("sgstool: no cluster %d", *id)
		}
		ms, stats, err := match.Run(snap, match.Query{
			Target: e.Summary, Threshold: *threshold, Limit: *limit + 1,
			Workers: *matchWorkers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("filter: %d candidates, %d grid-level matches\n", stats.IndexCandidates, stats.Refined)
		shown := 0
		for _, m := range ms {
			if m.ID == *id {
				continue // skip the target itself
			}
			fmt.Printf("  cluster %6d  distance %.4f  (window %d, %d cells)\n",
				m.ID, m.Distance, m.Entry.Summary.Window, m.Entry.Summary.NumCells())
			shown++
			if shown >= *limit {
				break
			}
		}
		if shown == 0 {
			fmt.Println("  no matches within threshold")
		}
	default:
		log.Fatalf("sgstool: unknown subcommand %q", cmd)
	}
}

// storeCmd handles the disk-tier subcommands. The store records its
// dimensionality in the manifest, so opening probes 2..8 unless -dim
// pins it.
func storeCmd(cmd, dir string, dim int) error {
	st, err := openStore(dir, dim)
	if err != nil {
		return err
	}
	defer st.Close()
	switch cmd {
	case "inspect":
		printStore(os.Stdout, st)
	case "compact":
		before := st.Stats()
		if err := st.CompactNow(); err != nil {
			return err
		}
		after := st.Stats()
		fmt.Printf("compacted: %d -> %d segments, %d -> %d records, %.1f -> %.1f KB, %d tombstones dropped\n",
			before.Segments, after.Segments, before.Records, after.Records,
			float64(before.Bytes)/1024, float64(after.Bytes)/1024,
			before.Tombstones-after.Tombstones)
	}
	return nil
}

func openStore(dir string, dim int) (*segstore.Store, error) {
	// segstore.Open creates missing directories (it serves writers); a
	// read-only tool must not turn a typo into a fresh empty store.
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("sgstool: %v", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("sgstool: %s is not a store directory", dir)
	}
	try := func(d int) (*segstore.Store, error) {
		return segstore.Open(dir, segstore.Options{Dim: d, NoBackgroundCompaction: true})
	}
	if dim != 0 {
		return try(dim)
	}
	for d := 2; d <= 8; d++ {
		st, err := try(d)
		if err == nil {
			return st, nil
		}
		// The manifest matched this dimensionality but a segment did not
		// validate (a pre-v3 one, say): report it rather than keep probing.
		if errors.Is(err, segstore.ErrBadSegment) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("sgstool: could not determine store dimensionality; pass -dim")
}

func printStore(w io.Writer, st *segstore.Store) {
	s := st.Stats()
	fmt.Fprintf(w, "segments: %d  records: %d live / %d total  bytes: %.1f KB live / %.1f KB total  tombstones: %d\n",
		s.Segments, s.LiveRecords, s.Records,
		float64(s.LiveBytes)/1024, float64(s.Bytes)/1024, s.Tombstones)
	v := st.View()
	fmt.Fprintf(w, "%-24s %6s %8s %8s %10s %10s %10s\n",
		"segment", "mapped", "records", "dead", "col", "blob", "ids")
	for _, seg := range v.Segments() {
		recs := seg.Records()
		dead := 0
		lo, hi := int64(-1), int64(-1)
		for _, r := range recs {
			if v.Dead(r.ID) {
				dead++
			}
			if lo < 0 || r.ID < lo {
				lo = r.ID
			}
			if r.ID > hi {
				hi = r.ID
			}
		}
		col, blob := seg.Regions()
		fmt.Fprintf(w, "%-24s %6v %8d %8d %10d %10d %4d..%-4d\n",
			filepath.Base(seg.Path()), seg.Mapped(), len(recs), dead, col, blob, lo, hi)
		mbr, fmin, fmax := seg.Zone()
		fmt.Fprintf(w, "%24s zone mbr=%v feat=[%g..%g %g..%g %g..%g %g..%g]\n",
			"", mbr,
			fmin[0], fmax[0], fmin[1], fmax[1], fmin[2], fmax[2], fmin[3], fmax[3])
	}
	printCacheSmoke(w, v, s.LiveBytes)
}

// printCacheSmoke decodes every live record twice through a decoded-
// summary cache sized to hold them all — a blob-validation pass that
// doubles as a residency check: the warm pass must hit for every record
// the cache retained. The budget is scaled so each shard's share covers
// the full live payload (the cache stripes its bound across shards, and
// ids need not spread evenly).
func printCacheSmoke(w io.Writer, v *segstore.View, liveBytes int) {
	c := sumcache.New(sumcache.NumShards * (liveBytes + 1))
	decode := func() error {
		for _, seg := range v.Segments() {
			for _, r := range seg.Records() {
				if v.Dead(r.ID) {
					continue
				}
				if _, err := c.GetOrLoad(seg, r.ID, int(r.Len), func() (*sgs.Summary, error) {
					return seg.Load(r)
				}); err != nil {
					return fmt.Errorf("record %d: %v", r.ID, err)
				}
			}
		}
		return nil
	}
	for pass := 0; pass < 2; pass++ {
		if err := decode(); err != nil {
			fmt.Fprintf(w, "sumcache: decode failed: %v\n", err)
			return
		}
	}
	st := c.Stats()
	ratio := 0.0
	if st.Hits+st.Misses > 0 {
		ratio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	fmt.Fprintf(w, "sumcache: warm hit ratio %.2f  resident %d summaries, %.1f KB\n",
		ratio, st.Entries, float64(st.Bytes)/1024)
}

func load(path string, dim int) (*archive.Base, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, fmt.Errorf("sgstool: %v", err)
	}
	isLog := string(magic[:]) == "SGSLOG1\n"

	try := func(d int) (*archive.Base, error) {
		b, err := archive.New(archive.Config{Dim: d})
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(0, 0); err != nil {
			return nil, err
		}
		if isLog {
			n, torn, err := b.LoadAppended(f)
			if err != nil {
				return nil, err
			}
			if torn {
				fmt.Fprintf(os.Stderr, "sgstool: log tail torn; recovered %d records\n", n)
			}
			if n == 0 {
				return nil, fmt.Errorf("sgstool: no records recovered")
			}
			return b, nil
		}
		if err := b.Load(f); err != nil {
			return nil, err
		}
		return b, nil
	}
	if dim != 0 {
		return try(dim)
	}
	// Peek the dimensionality: try each supported value.
	for d := 2; d <= 8; d++ {
		if b, err := try(d); err == nil {
			return b, nil
		}
	}
	return nil, fmt.Errorf("sgstool: could not determine dimensionality; pass -dim")
}

func dimOf(s *archive.Snapshot) int {
	d := 2
	s.All(func(e *archive.Entry) bool {
		d = e.Summary.Dim
		return false
	})
	return d
}
