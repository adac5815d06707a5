package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
)

// storeEntries builds n flush entries from real clustered summaries.
func storeEntries(t *testing.T, n int) []segstore.FlushEntry {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	thetaR := 0.5
	geo, err := grid.NewGeometry(2, thetaR)
	if err != nil {
		t.Fatal(err)
	}
	var out []segstore.FlushEntry
	for len(out) < n {
		cx, cy := rng.Float64()*50, rng.Float64()*50
		var pts []geom.Point
		for i := 0; i < 100; i++ {
			pts = append(pts, geom.Point{cx + rng.NormFloat64(), cy + rng.NormFloat64()})
		}
		ids := make([]int64, len(pts))
		for i := range ids {
			ids[i] = int64(i)
		}
		res, err := dbscan.Run(pts, ids, dbscan.Params{ThetaR: thetaR, ThetaC: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range res.Clusters {
			var cpts []geom.Point
			var isCore []bool
			for _, id := range cl.Members {
				cpts = append(cpts, pts[id])
				isCore = append(isCore, res.IsCore[id])
			}
			id := int64(len(out))
			s, err := sgs.FromCluster(geo, cpts, isCore, id, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.ID = id
			out = append(out, segstore.FlushEntry{
				ID: id, Blob: sgs.Marshal(s), MBR: s.MBR(), Feat: s.Features().Vector(),
			})
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// TestOpenStoreRefusesNonexistent: a read-only tool must not turn a typo
// into a fresh empty store directory (segstore.Open creates missing
// dirs for writers).
func TestOpenStoreRefusesNonexistent(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-store")
	if _, err := openStore(missing, 2); err == nil {
		t.Fatal("openStore accepted a nonexistent path")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("openStore created the missing directory")
	}
	// A plain file is refused too.
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := openStore(file, 2); err == nil {
		t.Fatal("openStore accepted a non-directory path")
	}
}

// TestOpenStoreReportsBadSegment: when the manifest fits but a listed
// segment does not validate, openStore reports the segment error (here
// the pre-v3 migration message) instead of giving up on the
// dimensionality probe.
func TestOpenStoreReportsBadSegment(t *testing.T) {
	dir := t.TempDir()
	st, err := segstore.Open(dir, segstore.Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(storeEntries(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("SGSLOG1\n"), make([]byte, 64)...)
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000.sgsseg"), old, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = openStore(dir, 0)
	if !errors.Is(err, segstore.ErrBadSegment) || !strings.Contains(err.Error(), "sgstool compact") {
		t.Fatalf("openStore: %v, want the pre-v3 segment error", err)
	}
}

// TestInspectOutput pins the inspect listing: per-segment mapping,
// record counts, columnar/blob region sizes and the zone filter line.
func TestInspectOutput(t *testing.T) {
	dir := t.TempDir()
	st, err := segstore.Open(dir, segstore.Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	entries := storeEntries(t, 6)
	if err := st.Flush(entries[:3]); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(entries[3:]); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Tombstone(entries[1].ID); err != nil || !ok {
		t.Fatalf("tombstone: ok=%v err=%v", ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := openStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var buf bytes.Buffer
	printStore(&buf, st2)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, column header, two lines (stats + zone) per segment, then
	// the sumcache smoke line.
	if len(lines) != 2+2*2+1 {
		t.Fatalf("inspect printed %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "segments: 2  records: 5 live / 6 total") {
		t.Fatalf("summary line: %q", lines[0])
	}
	for _, seg := range []int{2, 4} {
		f := strings.Fields(lines[seg])
		// segment name, mapped, records, dead, col, blob, ids
		if len(f) != 7 {
			t.Fatalf("segment line %q: %d fields", lines[seg], len(f))
		}
		if f[4] == "0" || f[5] == "0" {
			t.Fatalf("zero-sized region in %q", lines[seg])
		}
		if !strings.Contains(lines[seg+1], "zone mbr=") || !strings.Contains(lines[seg+1], "feat=[") {
			t.Fatalf("zone line missing: %q", lines[seg+1])
		}
	}
	if !strings.Contains(lines[2], " 3 ") || !strings.Contains(lines[2], " 1 ") {
		t.Fatalf("first segment should show 3 records 1 dead: %q", lines[2])
	}
	// The cache smoke pass decodes every live record twice: the warm pass
	// hits for all of them (ratio 0.50) and they all stay resident.
	cacheLine := lines[len(lines)-1]
	if !strings.HasPrefix(cacheLine, "sumcache: warm hit ratio 0.50  resident 5 summaries") {
		t.Fatalf("cache line: %q", cacheLine)
	}
}
