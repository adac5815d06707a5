package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamsum"
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
	if _, err := openStore(missing); err == nil {
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
	if _, err := openStore(file); err == nil || !strings.Contains(err.Error(), "not a store directory") {
		t.Fatalf("openStore(plain file): %v, want \"not a store directory\"", err)
	}
	// So is a directory without a MANIFEST.
	if _, err := openStore(t.TempDir()); err == nil || !strings.Contains(err.Error(), "not a store directory") {
		t.Fatalf("openStore(empty dir): %v, want \"not a store directory\"", err)
	}
}

// TestOpenStoreReportsBadSegment: when a segment the manifest lists does
// not validate, openStore reports the segment error (here the pre-v3
// migration message).
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
	// A v1/v2 segment header (segstore's preV3Head).
	old := append([]byte{'S', 'G', 'S', 'L', 'O', 'G', '1', '\n'}, make([]byte, 64)...)
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000.sgsseg"), old, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = openStore(dir)
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

	st2, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var buf bytes.Buffer
	if err := printStore(&buf, st2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, column header, two lines (stats + zone) per segment, then
	// the decode line.
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
	// The decode pass reads every live record once; none fails.
	if last := lines[len(lines)-1]; last != "decode: 5 live summaries, 0 failed" {
		t.Fatalf("decode line: %q", last)
	}
}

// engineStore runs an engine with a store over a clustered dim-
// dimensional stream, closes it, and returns the store directory and the
// number of clusters archived. The memory tier is capped so the history
// spans several segments.
func engineStore(t *testing.T, dim int) (string, int) {
	t.Helper()
	dir := t.TempDir()
	eng, err := streamsum.New(streamsum.Options{
		Dim: dim, ThetaR: 1, ThetaC: 4, Win: 400, Slide: 200,
		Archive: &streamsum.ArchiveOptions{}, StorePath: dir, StoreMaxMemBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(dim)))
	centers := make([]geom.Point, 3)
	for i := range centers {
		centers[i] = make(geom.Point, dim)
		for d := range centers[i] {
			centers[i][d] = rng.Float64() * 40
		}
	}
	for i := 0; i < 2400; i++ {
		c := centers[rng.Intn(len(centers))]
		p := make(geom.Point, dim)
		for d := range p {
			c[d] += 0.02
			p[d] = c[d] + rng.NormFloat64()*0.3
		}
		if _, err := eng.Push(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	n := eng.PatternBase().Len()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("dim %d: engine archived %d clusters; the store checks nothing", dim, n)
	}
	return dir, n
}

// runOut runs one sgstool subcommand and returns its output.
func runOut(t *testing.T, cmd, dir string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, cmd, dir, args); err != nil {
		t.Fatalf("sgstool %s %v: %v", cmd, args, err)
	}
	return buf.String()
}

// TestReadCommandsOnEngineStore: list, show, stats and match read a store
// an engine wrote, at dimension 1 and 4, taking the dimensionality from
// the MANIFEST. Every cluster lives on disk, so each command has to load
// the summaries from their segments.
func TestReadCommandsOnEngineStore(t *testing.T) {
	for _, dim := range []int{1, 4} {
		dir, n := engineStore(t, dim)
		list := strings.Split(strings.TrimRight(runOut(t, "list", dir), "\n"), "\n")
		if len(list) != n+1 {
			t.Fatalf("dim %d: list printed %d lines for %d clusters", dim, len(list), n)
		}
		if f := strings.Fields(list[1]); f[0] != "0" {
			t.Fatalf("dim %d: first list row %q", dim, list[1])
		}
		if out := runOut(t, "stats", dir); !strings.Contains(out, fmt.Sprintf("clusters:        %d\n", n)) {
			t.Fatalf("dim %d: stats:\n%s", dim, out)
		}
		if out := runOut(t, "show", dir, "-id", "1"); !strings.HasPrefix(out, "cluster 1 (window ") {
			t.Fatalf("dim %d: show:\n%s", dim, out)
		}
		out := runOut(t, "match", dir, "-id", "0", "-threshold", "1", "-limit", "3")
		if !strings.HasPrefix(out, "filter: ") || !strings.Contains(out, "  cluster ") {
			t.Fatalf("dim %d: match:\n%s", dim, out)
		}
		if out := runOut(t, "inspect", dir); !strings.Contains(out, fmt.Sprintf("decode: %d live summaries, 0 failed", n)) {
			t.Fatalf("dim %d: inspect:\n%s", dim, out)
		}
	}
	file := filepath.Join(t.TempDir(), "base")
	if err := os.WriteFile(file, []byte("not a store"), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"list", "stats", "inspect"} {
		if err := run(&bytes.Buffer{}, cmd, file, nil); err == nil || !strings.Contains(err.Error(), "not a store directory") {
			t.Fatalf("%s on a plain file: %v, want \"not a store directory\"", cmd, err)
		}
	}
}

// TestStoreHeldElsewhere: while another opener holds the store, every
// subcommand fails with segstore.ErrLocked and touches nothing.
func TestStoreHeldElsewhere(t *testing.T) {
	dir, _ := engineStore(t, 2)
	st, err := segstore.Open(dir, segstore.Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"list", "inspect", "compact"} {
		if err := run(&bytes.Buffer{}, cmd, dir, nil); !errors.Is(err, segstore.ErrLocked) {
			t.Fatalf("%s on a held store: %v, want ErrLocked", cmd, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	runOut(t, "list", dir)
}
