package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamsum/internal/geom"
)

// footerOffOf reads a segment file's footer offset from its trailer.
func footerOffOf(t *testing.T, raw []byte) int64 {
	t.Helper()
	if len(raw) < trailerSize {
		t.Fatal("segment too short")
	}
	return int64(binary.LittleEndian.Uint64(raw[len(raw)-trailerSize:]))
}

// preV3Segment hand-builds a one-record v2 segment, the record-log
// format read before v3: the preV3Head header, a length-prefixed blob,
// an "SGSFTR2\n" footer (record directory plus zone block) and a trailer
// whose footer CRC is valid.
func preV3Segment() []byte {
	le := binary.LittleEndian
	blob := []byte("blob")
	out := le.AppendUint32(append([]byte(nil), preV3Head[:]...), uint32(len(blob)))
	out = append(out, blob...)
	footerOff := len(out)
	footer := le.AppendUint32([]byte("SGSFTR2\n\x02"), 1) // dim 2, one record
	footer = le.AppendUint64(footer, 7)                   // id
	footer = le.AppendUint64(footer, 12)                  // blob offset
	footer = le.AppendUint32(footer, uint32(len(blob)))
	// Record MBR min/max and features, then the zone: MBR, feature min, max.
	for _, v := range []float64{0, 0, 1, 1, 1, 2, 3, 4, 0, 0, 1, 1, 1, 2, 3, 4, 1, 2, 3, 4} {
		footer = le.AppendUint64(footer, math.Float64bits(v))
	}
	out = append(out, footer...)
	out = le.AppendUint64(out, uint64(footerOff))
	out = le.AppendUint32(out, uint32(len(footer)))
	out = le.AppendUint32(out, crc32.ChecksumIEEE(footer))
	return append(out, endMagic[:]...)
}

// wantPreV3 checks err is the pre-v3 rejection: ErrBadSegment plus the
// migration hint.
func wantPreV3(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), "pre-v3") ||
		!strings.Contains(err.Error(), "sgstool compact") {
		t.Fatalf("pre-v3 segment: err = %v, want ErrBadSegment naming the migration", err)
	}
}

// TestPreV3SegmentRejected: v1/v2 segments are no longer read. Both the
// old header and (behind a v3 header) the old footer are recognized and
// rejected with the migration message, by OpenSegment and by Store.Open
// when the manifest lists such a file.
func TestPreV3SegmentRejected(t *testing.T) {
	raw := preV3Segment()
	path := filepath.Join(t.TempDir(), "old"+segSuffix)
	for _, head := range [][8]byte{preV3Head, segMagicV3} {
		bad := append(head[:], raw[8:]...)
		if err := os.WriteFile(path, bad, 0o666); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSegment(path)
		wantPreV3(t, err)
	}

	dir := t.TempDir()
	st, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(makeEntries(t, 2, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000"+segSuffix), raw, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	wantPreV3(t, err)
}

// TestV3CorruptionRejected flips bytes inside the columnar region and
// the footer: the region CRCs must reject the file whole. (The
// recovery sweep in TestSegstoreRecovery covers truncation — torn
// columnar and torn blob regions — at every byte offset.)
func TestV3CorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 6, 9, 0)
	path := filepath.Join(dir, "flip"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	colLen, _ := seg.Regions()
	if err := seg.close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One flip near the start, middle and end of the columnar region,
	// and one in the footer's zone block.
	footerOff := footerOffOf(t, raw)
	flips := []int{
		len(segMagicV3),
		len(segMagicV3) + colLen/2,
		len(segMagicV3) + colLen - 1,
		int(footerOff) + footerV3Head + 3,
	}
	for _, off := range flips {
		bad := append([]byte{}, raw...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o666); err != nil {
			t.Fatal(err)
		}
		if seg, err := OpenSegment(path); err == nil {
			seg.close()
			t.Fatalf("byte %d corrupted but segment accepted", off)
		}
	}
	// A resealed footer claiming more records than the file holds (the
	// columnar region runs past the footer, the blob length goes
	// negative) must fail the geometry check before anything is sized
	// from the count.
	bad := append([]byte{}, raw...)
	p := bad[footerOff+8:]
	l := layoutV3(1000, 2)
	binary.LittleEndian.PutUint32(p[1:], 1000)
	binary.LittleEndian.PutUint64(p[13:], uint64(l.size))
	binary.LittleEndian.PutUint64(p[21:], uint64(len(segMagicV3)+l.size))
	binary.LittleEndian.PutUint64(p[29:], uint64(footerOff-int64(len(segMagicV3)+l.size)))
	resealSegment(bad)
	if err := os.WriteFile(path, bad, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("oversized record count: err = %v, want ErrBadSegment", err)
	}
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	seg2, err := OpenSegment(path)
	if err != nil {
		t.Fatalf("intact segment rejected after flips: %v", err)
	}
	seg2.close()
}

// TestV3PreadFallback disables mmap and checks the full read path —
// open, probe, load — behaves identically on the pread fallback.
func TestV3PreadFallback(t *testing.T) {
	prev := SetMmapEnabled(false)
	defer SetMmapEnabled(prev)

	entries := makeEntries(t, 8, 11, 0)
	path := filepath.Join(t.TempDir(), "fallback"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	if seg.Mapped() {
		t.Fatal("segment mapped with mmap disabled")
	}
	for _, e := range entries {
		r, ok := seg.Get(e.ID)
		if !ok {
			t.Fatalf("id %d missing", e.ID)
		}
		blob, err := seg.LoadBlob(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(e.Blob) {
			t.Fatalf("id %d: blob mismatch on pread path", e.ID)
		}
		if _, err := seg.Load(r); err != nil {
			t.Fatal(err)
		}
	}
	// Scans read the heap copy of the columns; results must match the
	// mapped path (checked against a linear scan here).
	q := entries[2].MBR
	want := 0
	for _, e := range entries {
		if e.MBR.Intersects(q) {
			want++
		}
	}
	got := 0
	probed, _ := seg.Search(Probe{Location: true, MBR: q}, nil, func(Record) bool { got++; return true })
	if got != want || probed != want {
		t.Fatalf("pread location scan: got=%d probed=%d want=%d", got, probed, want)
	}
}

// TestOpenSegmentAllocs: OpenSegment decodes the columnar region once
// into typed columns, so the number of allocations an open makes does
// not depend on the record count, on either read path.
func TestOpenSegmentAllocs(t *testing.T) {
	dir := t.TempDir()
	sizes := []int{16, 256}
	for _, n := range sizes {
		path := filepath.Join(dir, fmt.Sprintf("allocs%d%s", n, segSuffix))
		if err := writeSegment(path, 2, makeEntries(t, n, 13, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, mmap := range []bool{true, false} {
		prev := SetMmapEnabled(mmap)
		allocs := make([]float64, len(sizes))
		for k, n := range sizes {
			path := filepath.Join(dir, fmt.Sprintf("allocs%d%s", n, segSuffix))
			allocs[k] = testing.AllocsPerRun(20, func() {
				seg, err := OpenSegment(path)
				if err != nil {
					t.Fatal(err)
				}
				seg.close()
			})
		}
		SetMmapEnabled(prev)
		if allocs[0] != allocs[1] {
			t.Errorf("mmap=%v: OpenSegment allocates %.0f times at %d records and %.0f at %d",
				mmap, allocs[0], sizes[0], allocs[1], sizes[1])
		}
	}
}

// TestV3ScanZeroAlloc pins the headline property: a scan over a
// segment's decoded columns performs zero allocations, both a gated
// feature scan whose gate rejects every candidate and a location scan
// that visits every record.
func TestV3ScanZeroAlloc(t *testing.T) {
	entries := makeEntries(t, 16, 13, 0)
	path := filepath.Join(t.TempDir(), "alloc"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()

	lo := [4]float64{0, 0, 0, 0}
	hi := [4]float64{1e9, 1e9, 1e9, 1e9}
	gate := func([4]float64) bool { return false }
	visit := func(Record) bool { return true }
	mbr, _, _ := seg.Zone()
	q := geom.MBR{Min: append(geom.Point{}, mbr.Min...), Max: append(geom.Point{}, mbr.Max...)}

	if n := testing.AllocsPerRun(100, func() {
		if seg.GatedSearchFeatures(lo, hi, gate, visit) != len(entries) {
			t.Fatal("feature scan missed records")
		}
	}); n != 0 {
		t.Fatalf("feature filter+gate scan allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if n, _ := seg.Search(Probe{Location: true, MBR: q}, nil, visit); n != len(entries) {
			t.Fatal("location scan missed records")
		}
	}); n != 0 {
		t.Fatalf("location filter+gate scan allocates %.1f/op", n)
	}
}

// TestV3LoadAllocs: a record load from a mapped segment allocates only
// what the decoded summary is made of (the summary, its cells and one
// connection arena).
func TestV3LoadAllocs(t *testing.T) {
	entries := makeEntries(t, 16, 13, 0)
	path := filepath.Join(t.TempDir(), "load"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	if !seg.Mapped() {
		t.Skip("segment not mapped on this platform")
	}
	for _, r := range seg.Records() {
		if n := testing.AllocsPerRun(20, func() {
			if _, err := seg.Load(r); err != nil {
				t.Fatal(err)
			}
		}); n > 3 {
			t.Fatalf("record %d: Load allocates %.1f/op, want at most 3", r.ID, n)
		}
	}
}
