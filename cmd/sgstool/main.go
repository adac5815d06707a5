// Command sgstool inspects a pattern base on disk: the segment store
// directory written by sgsd -store or by an engine with StorePath set.
//
// Usage:
//
//	sgstool list    store.dir           # one line per archived cluster
//	sgstool show    store.dir -id 3     # details + ASCII rendering
//	sgstool stats   store.dir           # aggregate statistics
//	sgstool match   store.dir -id 3 -threshold 0.3 -limit 5
//	                                    # match one archived cluster
//	                                    # against the rest of the base
//	sgstool inspect store.dir           # per-segment stats of the store
//	sgstool compact store.dir           # merge undersized segments, drop
//	                                    # tombstoned summaries
//
// The dimensionality comes from the store's MANIFEST. list, show, stats
// and match open the directory as a pattern base and read through one
// snapshot, the same read-only view matching queries use against a live
// archiver; the session never writes. inspect reads the segment footers
// for the per-segment lines, then decodes every live summary once and
// reports the failures on its final "decode:" line. A store is held by
// one process at a time: run sgstool after the sgsd that writes it has
// exited.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"

	"streamsum/internal/archive"
	"streamsum/internal/match"
	"streamsum/internal/segstore"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: sgstool <list|show|stats|match|inspect|compact> <storedir> [flags]")
		os.Exit(2)
	}
	if err := run(os.Stdout, os.Args[1], os.Args[2], os.Args[3:]); err != nil {
		log.Fatal(err)
	}
}

// run executes one subcommand against the store at dir.
func run(w io.Writer, cmd, dir string, args []string) error {
	flags := flag.NewFlagSet(cmd, flag.ContinueOnError)
	id := flags.Int64("id", 0, "archive id (show, match)")
	threshold := flags.Float64("threshold", 0.3, "distance threshold (match)")
	limit := flags.Int("limit", 5, "max matches (match)")
	matchWorkers := flags.Int("match-workers", 0, "parallel matching workers for the filter and refine phases (0 = one per CPU, 1 = sequential)")
	if err := flags.Parse(args); err != nil {
		return err
	}

	switch cmd {
	case "inspect", "compact":
		return storeCmd(w, cmd, dir)
	case "list", "show", "stats", "match":
	default:
		return fmt.Errorf("sgstool: unknown subcommand %q", cmd)
	}

	dim, err := storeDim(dir)
	if err != nil {
		return err
	}
	base, err := archive.New(archive.Config{Dim: dim, StorePath: dir})
	if err != nil {
		return openErr(err)
	}
	defer base.Close()
	// One snapshot serves every subcommand: a consistent point-in-time
	// view, searched without ever taking the base lock. Entries visited
	// by All carry no summary; LoadSummary reads it from its segment.
	snap := base.Snapshot()

	switch cmd {
	case "list":
		fmt.Fprintf(w, "%6s %8s %8s %8s %8s %10s %8s\n", "id", "window", "cells", "core", "pop", "density", "bytes")
		snap.All(func(e *archive.Entry) bool {
			sum, lerr := e.LoadSummary()
			if lerr != nil {
				err = lerr
				return false
			}
			f := e.Features
			fmt.Fprintf(w, "%6d %8d %8.0f %8.0f %8d %10.2f %8d\n",
				e.ID, sum.Window, f.Volume, f.StatusCount,
				sum.TotalPopulation(), f.AvgDensity, e.Bytes)
			return true
		})
		return err
	case "show":
		e := snap.Get(*id)
		if e == nil {
			return fmt.Errorf("sgstool: no cluster %d", *id)
		}
		f := e.Features
		fmt.Fprintf(w, "cluster %d (window %d, level %d)\n", e.ID, e.Summary.Window, e.Summary.Level)
		fmt.Fprintf(w, "  cells=%0.f core=%0.f population=%d\n", f.Volume, f.StatusCount, e.Summary.TotalPopulation())
		fmt.Fprintf(w, "  avg density=%.3f avg connectivity=%.3f\n", f.AvgDensity, f.AvgConnectivity)
		fmt.Fprintf(w, "  MBR=%v\n  encoded=%d bytes\n\n", e.MBR, e.Bytes)
		fmt.Fprint(w, e.Summary.Render())
	case "stats":
		n, cells, pop, bytes := 0, 0, 0, 0
		snap.All(func(e *archive.Entry) bool {
			sum, lerr := e.LoadSummary()
			if lerr != nil {
				err = lerr
				return false
			}
			n++
			cells += sum.NumCells()
			pop += sum.TotalPopulation()
			bytes += e.Bytes
			return true
		})
		if err != nil {
			return err
		}
		if n == 0 {
			fmt.Fprintln(w, "empty pattern base")
			return nil
		}
		fmt.Fprintf(w, "clusters:        %d\n", n)
		fmt.Fprintf(w, "total cells:     %d (avg %.1f per cluster)\n", cells, float64(cells)/float64(n))
		fmt.Fprintf(w, "total population:%d\n", pop)
		fmt.Fprintf(w, "summary bytes:   %d (avg %.0f per cluster, %.1f per cell)\n",
			bytes, float64(bytes)/float64(n), float64(bytes)/float64(cells))
		full := pop * 8 * dim
		fmt.Fprintf(w, "full-rep bytes:  ~%d → compression %.1f%%\n", full, 100*(1-float64(bytes)/float64(full)))
	case "match":
		e := snap.Get(*id)
		if e == nil {
			return fmt.Errorf("sgstool: no cluster %d", *id)
		}
		ms, stats, err := match.Run(snap, match.Query{
			Target: e.Summary, Threshold: *threshold, Limit: *limit + 1,
			Workers: *matchWorkers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "filter: %d candidates, %d grid-level matches\n", stats.IndexCandidates, stats.Refined)
		shown := 0
		for _, m := range ms {
			if m.ID == *id {
				continue // skip the target itself
			}
			sum, err := m.Entry.LoadSummary()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  cluster %6d  distance %.4f  (window %d, %d cells)\n",
				m.ID, m.Distance, sum.Window, sum.NumCells())
			shown++
			if shown >= *limit {
				break
			}
		}
		if shown == 0 {
			fmt.Fprintln(w, "  no matches within threshold")
		}
	}
	return nil
}

// storeCmd handles the segment-level subcommands.
func storeCmd(w io.Writer, cmd, dir string) error {
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	switch cmd {
	case "inspect":
		return printStore(w, st)
	case "compact":
		before := st.Stats()
		if err := st.CompactNow(); err != nil {
			return err
		}
		after := st.Stats()
		fmt.Fprintf(w, "compacted: %d -> %d segments, %d -> %d records, %.1f -> %.1f KB, %d tombstones dropped\n",
			before.Segments, after.Segments, before.Records, after.Records,
			float64(before.Bytes)/1024, float64(after.Bytes)/1024,
			before.Tombstones-after.Tombstones)
	}
	return nil
}

// storeDim returns the dimensionality recorded in dir's MANIFEST. It
// refuses a path that is not an existing store: segstore.Open creates
// missing directories (it serves writers), and a read-only tool must not
// turn a typo into a fresh empty store.
func storeDim(dir string) (int, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return 0, fmt.Errorf("sgstool: %v", err)
	}
	if !st.IsDir() {
		return 0, fmt.Errorf("sgstool: %s is not a store directory", dir)
	}
	dim, err := segstore.ManifestDim(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("sgstool: %s is not a store directory (no MANIFEST)", dir)
	}
	return dim, err
}

func openStore(dir string) (*segstore.Store, error) {
	dim, err := storeDim(dir)
	if err != nil {
		return nil, err
	}
	st, err := segstore.Open(dir, segstore.Options{Dim: dim, NoBackgroundCompaction: true})
	if err != nil {
		return nil, openErr(err)
	}
	return st, nil
}

// openErr names the likely holder when another opener has the store.
func openErr(err error) error {
	if errors.Is(err, segstore.ErrLocked) {
		return fmt.Errorf("sgstool: %w (is an sgsd -store still running on it?)", err)
	}
	return err
}

func printStore(w io.Writer, st *segstore.Store) error {
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
	return checkDecode(w, v)
}

// checkDecode decodes every live summary once, prints a line per record
// that fails, and ends with the "decode:" count line.
func checkDecode(w io.Writer, v *segstore.View) error {
	live, failed := 0, 0
	for _, seg := range v.Segments() {
		for _, r := range seg.Records() {
			if v.Dead(r.ID) {
				continue
			}
			live++
			if _, err := seg.Load(r); err != nil {
				failed++
				fmt.Fprintf(w, "record %d in %s: %v\n", r.ID, filepath.Base(seg.Path()), err)
			}
		}
	}
	fmt.Fprintf(w, "decode: %d live summaries, %d failed\n", live, failed)
	if failed > 0 {
		return fmt.Errorf("sgstool: %d of %d live summaries failed to decode", failed, live)
	}
	return nil
}
