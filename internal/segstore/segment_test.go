package segstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"streamsum/internal/dbscan"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
)

// makeEntries builds n flush entries from real clustered summaries, ids
// starting at firstID.
func makeEntries(t testing.TB, n int, seed, firstID int64) []FlushEntry {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	thetaR := 0.5
	geo, err := grid.NewGeometry(2, thetaR)
	if err != nil {
		t.Fatal(err)
	}
	var out []FlushEntry
	for len(out) < n {
		cx, cy := rng.Float64()*50, rng.Float64()*50
		var pts []geom.Point
		for i := 0; i < 80+rng.Intn(80); i++ {
			pts = append(pts, geom.Point{cx + rng.NormFloat64()*0.8, cy + rng.NormFloat64()*0.8})
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
			id := firstID + int64(len(out))
			s, err := sgs.FromCluster(geo, cpts, isCore, id, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.ID = id
			out = append(out, FlushEntry{
				ID: id, Blob: sgs.Marshal(s), MBR: s.MBR(), Feat: s.Features().Vector(),
			})
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func TestSegmentRoundTrip(t *testing.T) {
	entries := makeEntries(t, 8, 1, 100)
	path := filepath.Join(t.TempDir(), "seg-00000000"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	if seg.Len() != len(entries) || seg.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", seg.Len(), seg.Dim())
	}
	for i, e := range entries {
		r := seg.Records()[i]
		if r.ID != e.ID || int(r.Len) != len(e.Blob) {
			t.Fatalf("record %d: id=%d len=%d", i, r.ID, r.Len)
		}
		got, ok := seg.Get(e.ID)
		if !ok || got.ID != e.ID {
			t.Fatalf("Get(%d) missing", e.ID)
		}
		s, err := seg.Load(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(sgs.Marshal(s)) != string(e.Blob) {
			t.Fatalf("record %d: loaded summary does not round-trip", i)
		}
	}
	// Index probes agree with a linear scan.
	want := 0
	q := entries[3].MBR
	for _, e := range entries {
		if e.MBR.Intersects(q) {
			want++
		}
	}
	got := 0
	seg.Search(Probe{Location: true, MBR: q}, nil, func(Record) bool { got++; return true })
	if got != want {
		t.Fatalf("location Search: %d hits, linear scan %d", got, want)
	}
	lo := [4]float64{0, 0, 0, 0}
	hi := entries[0].Feat
	want = 0
	for _, e := range entries {
		in := true
		for d := 0; d < 4; d++ {
			if e.Feat[d] < lo[d] || e.Feat[d] > hi[d] {
				in = false
			}
		}
		if in {
			want++
		}
	}
	got = 0
	seg.Search(Probe{Lo: lo, Hi: hi}, nil, func(Record) bool { got++; return true })
	if got != want {
		t.Fatalf("feature Search: %d hits, linear scan %d", got, want)
	}
}

func TestStoreFlushTombstoneCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Dim: 2, TargetSegmentBytes: 1 << 20, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var all []FlushEntry
	for i := 0; i < 4; i++ {
		batch := makeEntries(t, 5, int64(10+i), int64(100*i))
		all = append(all, batch...)
		if err := st.Flush(batch); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.Segments != 4 || s.LiveRecords != 20 {
		t.Fatalf("stats after flush: %+v", s)
	}

	// Tombstone a few ids; view pinned before sees them gone already
	// (views copy tombstones at creation, not lazily)? No — pin first.
	before := st.View()
	dead := []int64{all[0].ID, all[7].ID, all[13].ID}
	for _, id := range dead {
		ok, err := st.Tombstone(id)
		if err != nil || !ok {
			t.Fatalf("Tombstone(%d): ok=%v err=%v", id, ok, err)
		}
	}
	if ok, _ := st.Tombstone(dead[0]); ok {
		t.Fatal("double tombstone reported live")
	}
	if ok, _ := st.Tombstone(999999); ok {
		t.Fatal("unknown id tombstoned")
	}
	if before.Len() != 20 {
		t.Fatalf("pinned view shrank: %d", before.Len())
	}
	after := st.View()
	if after.Len() != 17 {
		t.Fatalf("view after tombstones: %d", after.Len())
	}
	if _, _, ok := after.Get(dead[0]); ok {
		t.Fatal("tombstoned id visible through view")
	}

	// Compact: all four segments are under the target, so they merge into
	// one, dropping the tombstoned records and their tombstones.
	if err := st.CompactNow(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Segments != 1 || s.LiveRecords != 17 || s.Records != 17 || s.Tombstones != 0 {
		t.Fatalf("stats after compaction: %+v", s)
	}
	// Order preserved, dead ids gone.
	v := st.View()
	var got []int64
	for _, seg := range v.Segments() {
		for _, r := range seg.Records() {
			got = append(got, r.ID)
		}
	}
	var want []int64
	deadSet := map[int64]bool{dead[0]: true, dead[1]: true, dead[2]: true}
	for _, e := range all {
		if !deadSet[e.ID] {
			want = append(want, e.ID)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("merged ids: %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order broken at %d: %v want %v", i, got, want)
		}
	}
	// The pinned pre-compaction view still reads records whose files were
	// unlinked by the merge.
	seg0 := before.Segments()[0]
	sum, err := seg0.Load(seg0.Records()[0])
	if err != nil {
		t.Fatalf("pinned view read after compaction: %v", err)
	}
	if sum.NumCells() == 0 {
		t.Fatal("empty summary from pinned view")
	}

	// The merged segment survives a reopen: FIFO order holds, and a point
	// probe on each record's own feature vector finds it.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got = got[:0]
	for _, seg := range st2.View().Segments() {
		for _, r := range seg.Records() {
			got = append(got, r.ID)
			hit := false
			probed := seg.GatedSearchFeatures(r.Feat, r.Feat, nil, func(c Record) bool {
				hit = c.ID == r.ID
				return !hit
			})
			if !hit || probed == 0 {
				t.Fatalf("point probe missed record %d after reopen", r.ID)
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("order after reopen: %v want %v", got, want)
	}
}

func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := makeEntries(t, 6, 2, 40)
	if err := st.Flush(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Tombstone(batch[2].ID); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Orphans from an uncommitted flush must be swept on open.
	orphan := filepath.Join(dir, "seg-00000099"+segSuffix)
	if err := os.WriteFile(orphan, []byte("torn junk"), 0o666); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "seg-00000100"+segSuffix+".tmp")
	if err := os.WriteFile(tmp, []byte("tmp junk"), 0o666); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan segment not removed")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("tmp file not removed")
	}
	s := st2.Stats()
	if s.Segments != 1 || s.Records != 6 || s.LiveRecords != 5 || s.Tombstones != 1 {
		t.Fatalf("reopened stats: %+v", s)
	}
	if got, want := st2.MaxID(), batch[5].ID; got != want {
		t.Fatalf("MaxID = %d, want %d", got, want)
	}
	v := st2.View()
	if _, _, ok := v.Get(batch[2].ID); ok {
		t.Fatal("tombstone not persisted")
	}
	seg, r, ok := v.Get(batch[4].ID)
	if !ok {
		t.Fatal("live record missing after reopen")
	}
	if _, err := seg.Load(r); err != nil {
		t.Fatal(err)
	}
	// Dimension mismatch is refused.
	if _, err := Open(dir, Options{Dim: 3, NoBackgroundCompaction: true}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestSegstoreRecovery is the crash-consistency sweep (run twice in CI):
// a segment or manifest truncated at any byte offset must be rejected
// whole — recovery never loads a torn segment or trusts a torn manifest.
// The sweep runs under both read paths, mmap and the pread fallback.
func TestSegstoreRecovery(t *testing.T) {
	for _, path := range []struct {
		name string
		mmap bool
	}{{"mmap", true}, {"pread", false}} {
		t.Run(path.name, func(t *testing.T) {
			prev := SetMmapEnabled(path.mmap)
			defer SetMmapEnabled(prev)
			recoverySweep(t)
		})
	}
}

func recoverySweep(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(makeEntries(t, 4, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(makeEntries(t, 3, 4, 50)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segPath := filepath.Join(dir, "seg-00000000"+segSuffix)
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	sweepDir := t.TempDir()
	cutPath := filepath.Join(sweepDir, "cut"+segSuffix)
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(cutPath, full[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		if seg, err := OpenSegment(cutPath); err == nil {
			seg.close()
			t.Fatalf("segment truncated at byte %d/%d accepted", cut, len(full))
		}
	}
	if err := os.WriteFile(cutPath, full, 0o666); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(cutPath)
	if err != nil {
		t.Fatalf("intact segment rejected: %v", err)
	}
	seg.close()

	// A torn segment listed by an intact manifest fails store recovery.
	if err := os.WriteFile(segPath, full[:len(full)-1], 0o666); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true}); err == nil {
		st.Close()
		t.Fatal("store opened over a torn segment")
	}
	if err := os.WriteFile(segPath, full, 0o666); err != nil {
		t.Fatal(err)
	}

	// Manifest sweep: any truncation (including to zero bytes) fails the
	// CRC or structure checks; the intact manifest opens clean.
	manPath := filepath.Join(dir, manifestName)
	man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(man); cut++ {
		if err := os.WriteFile(manPath, man[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		if st, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true}); err == nil {
			st.Close()
			t.Fatalf("manifest truncated at byte %d/%d accepted", cut, len(man))
		}
	}
	if err := os.WriteFile(manPath, man, 0o666); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatalf("intact store rejected after sweep: %v", err)
	}
	defer st2.Close()
	if s := st2.Stats(); s.Segments != 2 || s.LiveRecords != 7 {
		t.Fatalf("recovered stats: %+v", s)
	}
}

// sealManifest appends the CRC that loadManifest checks.
func sealManifest(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// manifestListing builds a CRC-valid dim-2 manifest listing names in
// order, with no tombstones.
func manifestListing(names ...string) []byte {
	le := binary.LittleEndian
	b := append(append([]byte{}, manifestMagic[:]...), 2)
	b = le.AppendUint64(b, uint64(len(names))) // next file sequence number
	b = le.AppendUint32(b, uint32(len(names)))
	for _, n := range names {
		b = append(le.AppendUint16(b, uint16(len(n))), n...)
	}
	return sealManifest(le.AppendUint32(b, 0))
}

// wantBadManifest installs man as dir's MANIFEST and checks that Open
// refuses it with ErrBadManifest.
func wantBadManifest(t *testing.T, dir string, man []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o666); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err == nil {
		st.Close()
	}
	if !errors.Is(err, ErrBadManifest) {
		t.Fatalf("manifest %q: err = %v, want ErrBadManifest", man, err)
	}
}

// hugeCountManifest is a 33-byte manifest with a valid CRC that claims
// 2^32-1 segments.
func hugeCountManifest() []byte {
	body := append(append([]byte{}, manifestMagic[:]...), 2)
	body = binary.LittleEndian.AppendUint64(body, 0)
	body = binary.LittleEndian.AppendUint32(body, math.MaxUint32)
	return sealManifest(append(body, make([]byte, 8)...))
}

// TestManifestHugeSegmentCount: hugeCountManifest is refused. The claim
// used to size an allocation directly, which killed the process with a
// fatal out-of-memory error.
func TestManifestHugeSegmentCount(t *testing.T) {
	man := hugeCountManifest()
	if len(man) != 33 {
		t.Fatalf("fixture is %d bytes", len(man))
	}
	wantBadManifest(t, t.TempDir(), man)
}

// TestManifestPathTraversal: a listed name must be a bare seg-*.sgsseg
// basename. Otherwise Open would serve a file outside the store
// directory, and a later compaction would unlink it.
func TestManifestPathTraversal(t *testing.T) {
	root := t.TempDir()
	victim := filepath.Join(root, "seg-00000000"+segSuffix)
	if err := writeSegment(victim, 2, makeEntries(t, 2, 6, 0)); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "store")
	if err := os.Mkdir(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../seg-00000000" + segSuffix, victim, "old.sgsb"} {
		wantBadManifest(t, dir, manifestListing(name))
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("file outside the store: %v", err)
	}
}

// TestManifestDuplicateName: one file listed twice would open as two
// segments (every id served twice, and a merge would unlink it), so the
// manifest is refused; listed once, the same file opens.
func TestManifestDuplicateName(t *testing.T) {
	dir := t.TempDir()
	name := "seg-00000000" + segSuffix
	if err := writeSegment(filepath.Join(dir, name), 2, makeEntries(t, 2, 6, 0)); err != nil {
		t.Fatal(err)
	}
	wantBadManifest(t, dir, manifestListing(name, name))
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifestListing(name), 0o666); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s := st.Stats(); s.Segments != 1 || s.Records != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestSegmentZone checks the footer's filter zone: it must bound every
// record, disjoint queries must return nothing (the skip path), and an
// in-zone point probe must find every record.
func TestSegmentZone(t *testing.T) {
	dir := t.TempDir()
	entries := makeEntries(t, 12, 3, 0)
	path := filepath.Join(dir, "zone.sgsseg")
	if err := writeSegment(path, 2, entries); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	mbr, fmin, fmax := seg.Zone()
	for _, r := range seg.Records() {
		if !mbr.Intersects(r.MBR) {
			t.Fatalf("zone MBR %v misses record %d MBR %v", mbr, r.ID, r.MBR)
		}
		for d := 0; d < 4; d++ {
			if r.Feat[d] < fmin[d] || r.Feat[d] > fmax[d] {
				t.Fatalf("record %d feature %d = %g outside zone [%g, %g]", r.ID, d, r.Feat[d], fmin[d], fmax[d])
			}
		}
	}

	// A feature range strictly above the zone max must visit nothing.
	var lo, hi [4]float64
	for d := 0; d < 4; d++ {
		lo[d], hi[d] = fmax[d]+1, fmax[d]+2
	}
	if _, admitted := seg.Search(Probe{Lo: lo, Hi: hi}, nil, func(r Record) bool {
		t.Fatalf("disjoint feature range visited record %d", r.ID)
		return false
	}); admitted {
		t.Fatal("zone admitted a disjoint feature range")
	}
	// A location box outside the union MBR must visit nothing.
	far := geom.MBR{Min: geom.Point{mbr.Max[0] + 10, mbr.Max[1] + 10}, Max: geom.Point{mbr.Max[0] + 11, mbr.Max[1] + 11}}
	if _, admitted := seg.Search(Probe{Location: true, MBR: far}, nil, func(r Record) bool {
		t.Fatalf("disjoint location box visited record %d", r.ID)
		return false
	}); admitted {
		t.Fatal("zone admitted a disjoint location box")
	}
	// In-zone queries still work: probing each record's own feature
	// vector must find it.
	for _, r := range seg.Records() {
		found := false
		seg.Search(Probe{Lo: r.Feat, Hi: r.Feat}, nil, func(got Record) bool {
			if got.ID == r.ID {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("point probe missed record %d", r.ID)
		}
	}
}
