package segstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
)

// Native fuzz targets for the store's two on-disk decoders: segment
// files and the manifest. Each harness reseals every checksum before
// decoding, so mutations get past the CRCs to the structure checks
// behind them. The seed corpora run in every plain `go test`.

// fuzzEntries builds n flush entries of dimension dim, one small
// diagonal run of core points (and so one summary) each.
func fuzzEntries(t testing.TB, dim, n int) []FlushEntry {
	t.Helper()
	geo, err := grid.NewGeometry(dim, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var out []FlushEntry
	for k := 0; k < n; k++ {
		pts := make([]geom.Point, 6)
		isCore := make([]bool, len(pts))
		for i := range pts {
			pts[i] = make(geom.Point, dim)
			for d := range pts[i] {
				pts[i][d] = float64(3*k) + 0.2*float64(i+d)
			}
			isCore[i] = true
		}
		s, err := sgs.FromCluster(geo, pts, isCore, int64(k), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.ID = int64(k)
		out = append(out, FlushEntry{ID: s.ID, Blob: sgs.Marshal(s), MBR: s.MBR(), Feat: s.Features().Vector()})
	}
	return out
}

// resealSegment recomputes the columnar-region CRC in the footer and the
// footer CRC in the trailer, wherever the (possibly mutated) trailer and
// footer still locate them.
func resealSegment(b []byte) {
	if len(b) < trailerSize {
		return
	}
	le := binary.LittleEndian
	tr := b[len(b)-trailerSize:]
	end := uint64(len(b) - trailerSize)
	footerOff, footerLen := le.Uint64(tr[0:]), uint64(le.Uint32(tr[8:]))
	if footerOff > end || footerLen != end-footerOff {
		return
	}
	footer := b[footerOff:end]
	if len(footer) >= footerV3Head {
		p := footer[8:]
		colOff, colLen := le.Uint64(p[5:]), le.Uint64(p[13:])
		if colOff <= footerOff && colLen <= footerOff-colOff {
			le.PutUint32(p[37:], crc32.ChecksumIEEE(b[colOff:colOff+colLen]))
		}
	}
	le.PutUint32(tr[12:], crc32.ChecksumIEEE(footer))
}

// FuzzOpenSegment: OpenSegment never panics. A segment it accepts keeps
// every record's blob inside the file, Load decodes or returns an error
// for each record, the mmap and pread read paths open it to identical
// records, and both column scans agree with a brute force over its
// records.
func FuzzOpenSegment(f *testing.F) {
	dir := f.TempDir()
	for _, c := range []struct{ dim, n int }{{1, 3}, {2, 0}, {2, 5}, {4, 3}} {
		path := filepath.Join(dir, "seed"+segSuffix)
		if err := writeSegment(path, c.dim, fuzzEntries(f, c.dim, c.n)); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(preV3Segment())

	f.Fuzz(func(t *testing.T, raw []byte) {
		b := append([]byte(nil), raw...)
		resealSegment(b)
		path := filepath.Join(t.TempDir(), "fuzz"+segSuffix)
		if err := os.WriteFile(path, b, 0o666); err != nil {
			t.Fatal(err)
		}
		seg, err := OpenSegment(path)
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("rejection is not ErrBadSegment: %v", err)
			}
			return
		}
		defer seg.close()
		recs := seg.Records()
		for _, r := range recs {
			if r.Off < 0 || r.Off+int64(r.Len) > int64(len(b)) {
				t.Fatalf("record %d spans [%d, +%d) in a %d-byte file", r.ID, r.Off, r.Len, len(b))
			}
			_, _ = seg.Load(r) // decoded or an error; either is an answer
		}

		prev := SetMmapEnabled(!seg.Mapped())
		other, err := OpenSegment(path)
		SetMmapEnabled(prev)
		if err != nil {
			t.Fatalf("mapped=%v accepts the segment, the other read path rejects it: %v", seg.Mapped(), err)
		}
		defer other.close()
		if got := other.Records(); !reflect.DeepEqual(recs, got) {
			t.Fatalf("read paths disagree:\n%v\n%v", recs, got)
		}

		inf := math.Inf(1)
		lo, hi := [4]float64{-inf, -inf, -inf, -inf}, [4]float64{inf, inf, inf, inf}
		if n := seg.GatedSearchFeatures(lo, hi, nil, func(Record) bool { return true }); n != seg.Len() {
			t.Fatalf("full-range search found %d of %d records", n, seg.Len())
		}
		// Query boxes drawn from the records themselves: each record's
		// MBR and its Max corner as a point box, its feature vector as a
		// point, and the box its feature vector spans with the next
		// record's. The point boxes touch the record only at a boundary.
		for k := range min(len(recs), 8) {
			lo, hi := recs[k].Feat, recs[(k+1)%len(recs)].Feat
			for d := range lo {
				lo[d], hi[d] = min(lo[d], hi[d]), max(lo[d], hi[d])
			}
			corner := geom.MBR{Min: recs[k].MBR.Max, Max: recs[k].MBR.Max}
			for _, q := range []geom.MBR{recs[k].MBR, corner} {
				checkScan(t, seg, recs, func(r Record) bool { return r.MBR.Intersects(q) }, Probe{Location: true, MBR: q})
			}
			for _, box := range [][2][4]float64{{recs[k].Feat, recs[k].Feat}, {lo, hi}} {
				checkScan(t, seg, recs, func(r Record) bool { return inBox(r.Feat, box[0], box[1]) }, Probe{Lo: box[0], Hi: box[1]})
			}
		}
	})
}

// checkScan compares probe p's column scan with a brute force over recs:
// the column scan must visit exactly the ids the predicate in selects, in
// record order, and the segment's search must either skip the segment on
// its zone or visit the same ids.
func checkScan(t *testing.T, seg *Segment, recs []Record, in func(Record) bool, p Probe) {
	t.Helper()
	name := "feature"
	if p.Location {
		name = "location"
	}
	var want, got, zgot []int64
	for _, r := range recs {
		if in(r) {
			want = append(want, r.ID)
		}
	}
	n, _ := seg.cols.Search(p, nil, func(i int) bool { got = append(got, seg.cols.IDs[i]); return true })
	if n != len(got) || !slices.Equal(got, want) {
		t.Fatalf("%s scan visited %v (count %d), brute force %v", name, got, n, want)
	}
	zn, admitted := seg.Search(p, nil, func(r Record) bool { zgot = append(zgot, r.ID); return true })
	if admitted && (zn != len(want) || !slices.Equal(zgot, want)) || !admitted && zn+len(zgot) != 0 {
		t.Fatalf("segment %s search (admitted %v) visited %v (count %d), brute force %v", name, admitted, zgot, zn, want)
	}
}

// inBox reports whether v lies in the inclusive box [lo, hi].
func inBox(v, lo, hi [4]float64) bool {
	for d := range v {
		if !(lo[d] <= v[d] && v[d] <= hi[d]) {
			return false
		}
	}
	return true
}

// FuzzManifest: Store.Open never panics on a manifest, and a store it
// opens serves only distinct segment files inside its own directory.
// Every input opens against the same segment files: all those the
// committed seed manifests name.
func FuzzManifest(f *testing.F) {
	seedDir := f.TempDir()
	st, err := Open(seedDir, Options{Dim: 2, TargetSegmentBytes: 1 << 20, NoBackgroundCompaction: true})
	if err != nil {
		f.Fatal(err)
	}
	segs := map[string][]byte{}
	// record adds the manifest of each committed step as a seed and keeps
	// every segment file written so far.
	record := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
		des, err := os.ReadDir(seedDir)
		if err != nil {
			f.Fatal(err)
		}
		for _, de := range des {
			raw, err := os.ReadFile(filepath.Join(seedDir, de.Name()))
			if err != nil {
				f.Fatal(err)
			}
			if de.Name() == manifestName {
				f.Add(raw)
			} else if strings.HasSuffix(de.Name(), segSuffix) {
				segs[de.Name()] = raw
			}
		}
	}
	record(st.Flush(makeEntries(f, 3, 1, 0)))
	record(st.Flush(makeEntries(f, 3, 2, 100)))
	_, err = st.Tombstone(1)
	record(err)
	record(st.CompactNow())
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(hugeCountManifest())
	f.Add(manifestListing("../seg-00000000" + segSuffix))
	f.Add(manifestListing("seg-00000000"+segSuffix, "seg-00000000"+segSuffix))

	f.Fuzz(func(t *testing.T, man []byte) {
		b := append([]byte(nil), man...)
		if len(b) >= 4 {
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		}
		dir := t.TempDir()
		for name, raw := range segs {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), b, 0o666); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
		if err != nil {
			return
		}
		defer st.Close()
		seen := map[string]bool{}
		for _, seg := range st.View().Segments() {
			if filepath.Dir(seg.Path()) != dir || seen[seg.Path()] {
				t.Fatalf("store serves %s (directory %s, seen before: %v)", seg.Path(), dir, seen[seg.Path()])
			}
			seen[seg.Path()] = true
		}
		if s := st.Stats(); s.LiveRecords < 0 || s.LiveRecords > s.Records {
			t.Fatalf("stats: %+v", s)
		}
	})
}
