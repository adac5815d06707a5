package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

var manifestMagic = [8]byte{'S', 'G', 'S', 'M', 'A', 'N', '1', '\n'}

const (
	manifestName = "MANIFEST"
	lockName     = "LOCK"
	segPrefix    = "seg-"
	segSuffix    = ".sgsseg"
)

// ErrBadManifest is returned when the store's MANIFEST file fails
// validation (bad magic, torn bytes, CRC mismatch). The manifest is
// replaced atomically, so a damaged one signals external interference,
// not a crash — recovery refuses to guess.
var ErrBadManifest = errors.New("segstore: bad manifest")

// ErrLocked is returned by Open when another Store, in this process or
// another, holds the directory open. Open removes the files the manifest
// it reads does not list, so a second opener could delete a segment the
// first is about to commit; the directory's LOCK file admits one.
var ErrLocked = errors.New("segstore: store directory is locked by another opener")

// Options configures a store.
type Options struct {
	// Dim is the data-space dimensionality (required).
	Dim int
	// TargetSegmentBytes is the compaction goal: adjacent runs of
	// segments whose live payload is below this merge into one.
	// Default 256 KiB.
	TargetSegmentBytes int
	// NoBackgroundCompaction disables the compactor goroutine; CompactNow
	// still works (tools, deterministic tests).
	NoBackgroundCompaction bool
}

func (o *Options) fill() {
	if o.TargetSegmentBytes <= 0 {
		o.TargetSegmentBytes = 256 << 10
	}
}

// Stats is a point-in-time summary of the store for diagnostics and
// monitoring endpoints.
type Stats struct {
	Segments    int
	Records     int // including tombstoned records not yet compacted away
	LiveRecords int
	Bytes       int // encoded payload bytes on disk, including tombstoned
	LiveBytes   int
	Tombstones  int
	Compactions uint64

	SegmentsMapped int // segments serving reads from a memory mapping
}

// Store is a directory of immutable segments tracked by an atomically
// rewritten manifest. All exported methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	cmu sync.Mutex // serializes compactions (background loop vs CompactNow)

	mu          sync.Mutex
	seq         uint64 // next segment file number
	segs        []*Segment
	tombs       map[int64]struct{}
	maxID       int64
	compactions uint64
	closed      bool
	lock        *os.File // holds the flock on dir/LOCK until Close

	wake chan struct{} // buffered(1) compactor signal
	done chan struct{} // closed when the compactor exits
}

// Open opens (or creates) the store rooted at dir. Segment files present
// in the directory but not listed in the manifest are leftovers of an
// uncommitted flush or compaction and are removed; a segment the
// manifest does list must validate, or Open fails. One Store at a time
// holds a directory: Open fails with ErrLocked until the holder Closes.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Dim < 1 {
		return nil, fmt.Errorf("segstore: dimension required")
	}
	opts.fill()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{
		dir: dir, opts: opts,
		maxID: -1,
		lock:  lock,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	if err := st.load(); err != nil {
		for _, seg := range st.segs {
			_ = seg.close()
		}
		_ = unlockDir(lock)
		return nil, err
	}
	if opts.NoBackgroundCompaction {
		close(st.done)
	} else {
		go st.compactLoop()
	}
	return st, nil
}

// load reads the manifest, opens the segments it lists and removes the
// uncommitted leftovers beside them.
func (st *Store) load() error {
	m, err := readManifest(st.dir)
	if errors.Is(err, fs.ErrNotExist) {
		m = &manifest{dim: st.opts.Dim, tombs: make(map[int64]struct{})}
	} else if err != nil {
		return err
	}
	if m.dim != st.opts.Dim {
		return fmt.Errorf("segstore: manifest dimension %d != store dimension %d", m.dim, st.opts.Dim)
	}
	st.seq, st.tombs = m.seq, m.tombs
	listed := make(map[string]bool, len(m.names))
	for _, name := range m.names {
		listed[name] = true
		seg, err := OpenSegment(filepath.Join(st.dir, name))
		if err != nil {
			return err
		}
		st.segs = append(st.segs, seg)
		if seg.Dim() != st.opts.Dim {
			return fmt.Errorf("segstore: %s: dimension %d != store dimension %d", name, seg.Dim(), st.opts.Dim)
		}
		if n := seg.Len(); n > 0 {
			st.maxID = max(st.maxID, seg.cols.IDs[n-1])
		}
	}
	// Remove uncommitted leftovers (their entries were still owned by the
	// memory tier when the crash hit).
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	for _, de := range entries {
		name := de.Name()
		if listed[name] || name == manifestName {
			continue
		}
		if strings.HasSuffix(name, segSuffix) || strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(st.dir, name))
		}
	}
	return nil
}

// ManifestDim returns the dimensionality recorded in the MANIFEST of the
// store at dir, without opening the store or taking its lock. A
// directory without a MANIFEST (no store, or one that never committed a
// flush) yields an error wrapping fs.ErrNotExist.
func ManifestDim(dir string) (int, error) {
	m, err := readManifest(dir)
	if err != nil {
		return 0, err
	}
	return m.dim, nil
}

// manifest is a decoded MANIFEST.
type manifest struct {
	dim   int
	seq   uint64             // next segment file number
	names []string           // listed segment files, archive order
	tombs map[int64]struct{} // tombstoned ids
}

// readManifest parses dir/MANIFEST. A missing manifest yields an error
// wrapping fs.ErrNotExist (Open reads it as a fresh store). Every listed
// name must be a distinct bare seg-*.sgsseg basename: compaction later
// unlinks listed files, so a name reaching outside the store directory,
// or one file listed twice, is refused rather than trusted.
func readManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	if len(b) < len(manifestMagic)+1+8+4+4+4 || [8]byte(b[:8]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	if crc32.ChecksumIEEE(b[:len(b)-4]) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadManifest)
	}
	p := b[8 : len(b)-4]
	m := &manifest{dim: int(p[0]), seq: binary.LittleEndian.Uint64(p[1:]), tombs: make(map[int64]struct{})}
	p = p[9:]
	nsegs := binary.LittleEndian.Uint32(p)
	p = p[4:]
	// Each name costs at least its 2-byte length, so the remaining bytes
	// bound the count whatever the header claims.
	m.names = make([]string, 0, min(uint64(nsegs), uint64(len(p)/2)))
	seen := make(map[string]bool)
	for i := uint32(0); i < nsegs; i++ {
		if len(p) < 2 {
			return nil, fmt.Errorf("%w: truncated segment list", ErrBadManifest)
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < n {
			return nil, fmt.Errorf("%w: truncated segment name", ErrBadManifest)
		}
		name := string(p[:n])
		p = p[n:]
		if filepath.Base(name) != name || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			return nil, fmt.Errorf("%w: segment name %q", ErrBadManifest, name)
		}
		if seen[name] {
			return nil, fmt.Errorf("%w: segment %q listed twice", ErrBadManifest, name)
		}
		seen[name] = true
		m.names = append(m.names, name)
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: truncated tombstones", ErrBadManifest)
	}
	ntombs := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if len(p) != int(ntombs)*8 {
		return nil, fmt.Errorf("%w: tombstone list size", ErrBadManifest)
	}
	for i := uint32(0); i < ntombs; i++ {
		m.tombs[int64(binary.LittleEndian.Uint64(p[i*8:]))] = struct{}{}
	}
	return m, nil
}

// commitManifestLocked atomically replaces MANIFEST with one describing
// segs + st.tombs. It is the commit point of every store mutation: only
// after it returns does the caller install segs as st.segs.
func (st *Store) commitManifestLocked(segs []*Segment) error {
	buf := make([]byte, 0, 64+len(segs)*40+len(st.tombs)*8)
	buf = append(buf, manifestMagic[:]...)
	buf = append(buf, byte(st.opts.Dim))
	var n8 [8]byte
	binary.LittleEndian.PutUint64(n8[:], st.seq)
	buf = append(buf, n8[:]...)
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(segs)))
	buf = append(buf, n4[:]...)
	for _, s := range segs {
		name := filepath.Base(s.path)
		var n2 [2]byte
		binary.LittleEndian.PutUint16(n2[:], uint16(len(name)))
		buf = append(buf, n2[:]...)
		buf = append(buf, name...)
	}
	// Sorted tombstones keep the manifest bytes deterministic for a given
	// logical state.
	tombs := make([]int64, 0, len(st.tombs))
	for id := range st.tombs {
		tombs = append(tombs, id)
	}
	sort.Slice(tombs, func(i, j int) bool { return tombs[i] < tombs[j] })
	binary.LittleEndian.PutUint32(n4[:], uint32(len(tombs)))
	buf = append(buf, n4[:]...)
	for _, id := range tombs {
		binary.LittleEndian.PutUint64(n8[:], uint64(id))
		buf = append(buf, n8[:]...)
	}
	binary.LittleEndian.PutUint32(n4[:], crc32.ChecksumIEEE(buf))
	buf = append(buf, n4[:]...)

	tmp := filepath.Join(st.dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, manifestName)); err != nil {
		return err
	}
	st.syncDir()
	return nil
}

// syncDir makes renames durable (best effort: some filesystems refuse
// directory fsync).
func (st *Store) syncDir() {
	if d, err := os.Open(st.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Flush writes entries (archive order) as one new immutable segment and
// commits it to the manifest. On error nothing is committed: the store's
// live state is unchanged and any partial file is an orphan the next
// Open removes.
func (st *Store) Flush(entries []FlushEntry) error {
	if len(entries) == 0 {
		return nil
	}
	p, err := st.PrepareFlush(entries)
	if err != nil {
		return err
	}
	return p.Commit()
}

// PendingSegment is a fully written and fsynced segment file that is not
// yet part of the store: until Commit, readers cannot see it, and a
// crash leaves only an orphan the next Open removes. The split lets the
// expensive phase — writing and syncing the record payload — run without
// any caller-side lock, while Commit (rename + manifest) stays cheap
// enough to serialize with readers.
type PendingSegment struct {
	st        *Store
	tmp, path string
	entries   int
	maxID     int64
	done      bool
}

// PrepareFlush writes entries (archive order) as an uncommitted segment
// file. The store lock is held only to reserve the file name — the
// payload write and fsync, the bulk of a demotion's cost, run
// concurrently with every other store operation.
func (st *Store) PrepareFlush(entries []FlushEntry) (*PendingSegment, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("segstore: empty flush")
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, fmt.Errorf("segstore: store is closed")
	}
	name := fmt.Sprintf("%s%08d%s", segPrefix, st.seq, segSuffix)
	st.seq++
	st.mu.Unlock()
	p := &PendingSegment{st: st, path: filepath.Join(st.dir, name), entries: len(entries), maxID: -1}
	p.tmp = p.path + ".tmp"
	for _, e := range entries {
		if e.ID > p.maxID {
			p.maxID = e.ID
		}
	}
	if err := writeSegment(p.tmp, st.opts.Dim, entries); err != nil {
		_ = os.Remove(p.tmp)
		return nil, err
	}
	return p, nil
}

// Commit renames the prepared file into place and commits it to the
// manifest — the commit point. On error nothing is committed and the
// pending file is cleaned up (or left as an orphan the next Open
// removes). Commit must be called exactly once.
func (p *PendingSegment) Commit() error {
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if p.done {
		return fmt.Errorf("segstore: pending segment already resolved")
	}
	p.done = true
	if st.closed {
		_ = os.Remove(p.tmp)
		return fmt.Errorf("segstore: store is closed")
	}
	if err := os.Rename(p.tmp, p.path); err != nil {
		_ = os.Remove(p.tmp)
		return err
	}
	st.syncDir()
	seg, err := OpenSegment(p.path)
	if err != nil {
		return err
	}
	newSegs := append(append([]*Segment(nil), st.segs...), seg)
	if err := st.commitManifestLocked(newSegs); err != nil {
		_ = seg.close()
		return err
	}
	st.segs = newSegs
	if p.maxID > st.maxID {
		st.maxID = p.maxID
	}
	metricFlushes.Inc()
	st.signalCompactLocked()
	return nil
}

// Tombstone marks an id deleted. It reports whether the id was live in
// some segment; the bytes are reclaimed by a later compaction.
func (st *Store) Tombstone(id int64) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false, fmt.Errorf("segstore: store is closed")
	}
	if _, dead := st.tombs[id]; dead {
		return false, nil
	}
	found := false
	for _, s := range st.segs {
		if s.cols.Find(id) >= 0 {
			found = true
			break
		}
	}
	if !found {
		return false, nil
	}
	st.tombs[id] = struct{}{}
	if err := st.commitManifestLocked(st.segs); err != nil {
		delete(st.tombs, id)
		return false, err
	}
	st.signalCompactLocked()
	return true, nil
}

// Find returns the record holding the given live (non-tombstoned) id.
func (st *Store) Find(id int64) (Record, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dead := st.tombs[id]; dead {
		return Record{}, false
	}
	for _, seg := range st.segs {
		if r, ok := seg.Get(id); ok {
			return r, true
		}
	}
	return Record{}, false
}

// MaxID returns the largest record id ever committed to the store (-1
// for an empty store); the archiver resumes id assignment above it.
func (st *Store) MaxID() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.maxID
}

// Stats returns current store statistics.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{Segments: len(st.segs), Tombstones: len(st.tombs), Compactions: st.compactions}
	for _, seg := range st.segs {
		s.Records += seg.Len()
		s.Bytes += seg.payload
		if seg.Mapped() {
			s.SegmentsMapped++
		}
	}
	s.LiveRecords, s.LiveBytes = s.Records, s.Bytes
	st.subtractTombsLocked(&s.LiveRecords, &s.LiveBytes)
	return s
}

// subtractTombsLocked deducts every tombstoned record still present in a
// live segment from the given live totals — O(tombstones × segments),
// never O(records); tombstones are rare and compaction reclaims them.
func (st *Store) subtractTombsLocked(count, bytes *int) {
	for id := range st.tombs {
		for _, seg := range st.segs {
			if r, ok := seg.Get(id); ok {
				*count--
				*bytes -= int(r.Len)
				break
			}
		}
	}
}

// View is an immutable point-in-time view of the store: the segment set
// and tombstones as of its creation. Flushes, tombstones and compactions
// committed later are not visible. A View needs no explicit release —
// segments it pins stay readable (even after compaction unlinks their
// files) until the View becomes unreachable.
type View struct {
	segs  []*Segment
	tombs map[int64]struct{}
	count int
	bytes int
}

// View pins the current store state.
func (st *Store) View() *View {
	st.mu.Lock()
	defer st.mu.Unlock()
	v := &View{segs: st.segs}
	if len(st.tombs) > 0 {
		v.tombs = make(map[int64]struct{}, len(st.tombs))
		for id := range st.tombs {
			v.tombs[id] = struct{}{}
		}
	}
	for _, seg := range st.segs {
		v.count += seg.Len()
		v.bytes += seg.payload
	}
	// Views are pinned on the snapshot path (every Base.Snapshot after a
	// mutation), so totals come from the cached per-segment sums rather
	// than a rescan of the history.
	st.subtractTombsLocked(&v.count, &v.bytes)
	return v
}

// Segments returns the pinned segments in archive (FIFO) order. The
// slice is shared and must not be modified.
func (v *View) Segments() []*Segment { return v.segs }

// Dead reports whether the id was tombstoned as of the view.
func (v *View) Dead(id int64) bool {
	_, dead := v.tombs[id]
	return dead
}

// Len returns the number of live records in the view.
func (v *View) Len() int { return v.count }

// Bytes returns the total encoded size of the view's live records.
func (v *View) Bytes() int { return v.bytes }

// Get returns the segment and record holding the given live id.
func (v *View) Get(id int64) (*Segment, Record, bool) {
	if v.Dead(id) {
		return nil, Record{}, false
	}
	for _, seg := range v.segs {
		if r, ok := seg.Get(id); ok {
			return seg, r, true
		}
	}
	return nil, Record{}, false
}

// Close stops the compactor, closes every live segment and releases the
// directory lock. Views pinned before Close must not be used afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	close(st.wake)
	st.mu.Unlock()
	<-st.done
	st.mu.Lock()
	defer st.mu.Unlock()
	var err error
	for _, seg := range st.segs {
		if cerr := seg.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if lerr := unlockDir(st.lock); lerr != nil && err == nil {
		err = lerr
	}
	// The segment list stays: Stats keeps answering from the in-memory
	// footers after Close (shutdown reporting); reads do not.
	return err
}
