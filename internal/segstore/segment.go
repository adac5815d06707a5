package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"

	"streamsum/internal/geom"
	"streamsum/internal/sgs"
)

var endMagic = [8]byte{'S', 'G', 'S', 'E', 'N', 'D', '1', '\n'}

// The v1/v2 record-log header and footer magics. Those formats are no
// longer read; OpenSegment recognizes them only to name the migration.
var (
	preV3Head    = [8]byte{'S', 'G', 'S', 'L', 'O', 'G', '1', '\n'}
	preV3Footers = [][8]byte{
		{'S', 'G', 'S', 'F', 'T', 'R', '1', '\n'},
		{'S', 'G', 'S', 'F', 'T', 'R', '2', '\n'},
	}
)

const trailerSize = 8 + 4 + 4 + 8 // footerOff u64 | footerLen u32 | crc u32 | end magic

// ErrBadSegment is returned when a segment file fails validation. A
// truncated or otherwise damaged segment is rejected whole — the store
// never serves a torn segment.
var ErrBadSegment = errors.New("segstore: bad segment file")

// errPreV3 rejects a v1/v2 segment, naming the migration path.
func errPreV3(path string) error {
	return fmt.Errorf("%w: %s: pre-v3 segment format is no longer read; "+
		"migrate the store by running `sgstool compact` on it with a build that still reads v1/v2 segments",
		ErrBadSegment, path)
}

// FlushEntry is one summary handed to the store for demotion: the
// encoded blob plus the index features the columnar region records, so
// the store never needs to decode what it writes.
type FlushEntry struct {
	ID   int64
	Blob []byte
	MBR  geom.MBR
	Feat [4]float64
}

// Record is one summary as indexed by a segment: its id, the byte range
// of its encoded blob within the segment file, and the filter-phase
// features (bounding rectangle and non-locational feature vector).
type Record struct {
	ID   int64
	Off  int64 // absolute blob offset within the file
	Len  uint32
	MBR  geom.MBR
	Feat [4]float64
}

// zone is a segment's filter zone: the union of its records' MBRs and
// the per-dimension min/max of their feature vectors. A query range that
// cannot intersect the zone cannot match any record, so the filter phase
// skips the whole segment without touching its columns.
type zone struct {
	mbr              geom.MBR
	featMin, featMax [4]float64
}

// admits reports whether p can admit a record inside the zone.
func (z *zone) admits(p Probe) bool {
	if p.Location {
		return z.mbr.Intersects(p.MBR)
	}
	for d := 0; d < 4; d++ {
		if p.Hi[d] < z.featMin[d] || p.Lo[d] > z.featMax[d] {
			return false
		}
	}
	return true
}

// Segment is one immutable on-disk segment, opened for reading. All
// methods are safe for concurrent use: the columns are decoded once at
// open and never mutated, and blob reads go through the read-only
// mapping (or pread on the fallback path).
type Segment struct {
	path     string
	f        *os.File
	payload  int // sum of record blob lengths, cached at open
	colBytes int // size of the on-disk columnar region
	zone     zone

	// cols holds the records' ids (ascending), MBRs and feature vectors;
	// offs and lens the byte range of each record's blob. mapped is the
	// whole-file read-only mapping (nil on the pread fallback), which
	// serves zero-copy blob reads.
	cols   Columns
	offs   []int64
	lens   []uint32
	mapped []byte
}

// OpenSegment validates and opens a segment file. Validation is
// all-or-nothing: end magic, trailer geometry, footer CRC, header magic,
// the columnar-region CRC and every record's byte range must check out,
// so a file truncated at any byte offset is rejected with ErrBadSegment
// rather than partially loaded. A pre-v3 file is rejected with
// ErrBadSegment and a message naming the migration.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	seg, err := openSegmentFile(path, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Keep pinned Views readable after a compaction unlinks the file: the
	// mapping and handle are released when the last reference drops, or
	// at Store.Close.
	runtime.SetFinalizer(seg, func(s *Segment) { s.release() })
	metricOpened.Inc()
	return seg, nil
}

func openSegmentFile(path string, f *os.File) (*Segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(segMagicV3))+trailerSize {
		return nil, fmt.Errorf("%w: %s: too short (%d bytes)", ErrBadSegment, path, size)
	}
	var head [8]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSegment, path, err)
	}
	if head == preV3Head {
		return nil, errPreV3(path)
	}
	if head != segMagicV3 {
		return nil, fmt.Errorf("%w: %s: bad header magic", ErrBadSegment, path)
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSegment, path, err)
	}
	if [8]byte(tr[16:24]) != endMagic {
		return nil, fmt.Errorf("%w: %s: bad end magic", ErrBadSegment, path)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:]))
	footerLen := int64(binary.LittleEndian.Uint32(tr[8:]))
	crc := binary.LittleEndian.Uint32(tr[12:])
	if footerOff < int64(len(segMagicV3)) || footerOff+footerLen+trailerSize != size {
		return nil, fmt.Errorf("%w: %s: trailer geometry", ErrBadSegment, path)
	}
	footer := make([]byte, footerLen)
	if _, err := io.ReadFull(io.NewSectionReader(f, footerOff, footerLen), footer); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSegment, path, err)
	}
	if crc32.ChecksumIEEE(footer) != crc {
		return nil, fmt.Errorf("%w: %s: footer CRC mismatch", ErrBadSegment, path)
	}
	if len(footer) >= 8 && slices.Contains(preV3Footers, [8]byte(footer[:8])) {
		return nil, errPreV3(path)
	}
	return openSegmentV3(path, f, size, footerOff, footer)
}

// Path returns the segment's file path.
func (s *Segment) Path() string { return s.path }

// Dim returns the data-space dimensionality.
func (s *Segment) Dim() int { return s.cols.Dim }

// Len returns the number of records in the segment (tombstones are a
// store-level concept; the segment itself is immutable).
func (s *Segment) Len() int { return s.cols.Len() }

// Bytes returns the total encoded size of the segment's record blobs.
func (s *Segment) Bytes() int { return s.payload }

// Regions returns the byte sizes of the segment's columnar and blob
// regions.
func (s *Segment) Regions() (colBytes, blobBytes int) { return s.colBytes, s.payload }

// Mapped reports whether the segment serves reads from a memory mapping
// (false on the pread fallback path).
func (s *Segment) Mapped() bool { return s.mapped != nil }

// record builds row i's Record. Its MBR views the decoded MBR column, so
// building one allocates nothing.
func (s *Segment) record(i int) Record {
	return Record{ID: s.cols.IDs[i], Off: s.offs[i], Len: s.lens[i], MBR: s.cols.RowMBR(i), Feat: s.cols.Feat[i]}
}

// Records returns the segment's records in archive (FIFO) order, in a
// slice of the caller's own.
func (s *Segment) Records() []Record {
	out := make([]Record, s.Len())
	for i := range out {
		out[i] = s.record(i)
	}
	return out
}

// Get returns the record with the given id.
func (s *Segment) Get(id int64) (Record, bool) {
	i := s.cols.Find(id)
	if i < 0 {
		return Record{}, false
	}
	return s.record(i), true
}

// Zone returns the segment's filter zone from its footer: the union MBR
// of its records and the per-dimension min/max of their feature vectors.
func (s *Segment) Zone() (mbr geom.MBR, featMin, featMax [4]float64) {
	return s.zone.mbr, s.zone.featMin, s.zone.featMax
}

// Search visits the records p admits whose feature vector passes gate
// (nil admits all; a rejected row builds no Record). It returns the
// number of records p admits, whatever the gate says, and whether the
// segment's zone admitted p: a probe outside the zone returns (0, false)
// without touching the columns. Iteration stops early if visit returns
// false (the count is then partial).
func (s *Segment) Search(p Probe, gate func([4]float64) bool, visit func(Record) bool) (probed int, admitted bool) {
	if !s.zone.admits(p) {
		metricZoneSkips.Inc()
		return 0, false
	}
	metricScans.Inc()
	probed, _ = s.cols.Search(p, gate, func(i int) bool { return visit(s.record(i)) })
	return probed, true
}

// GatedSearchFeatures is Search with the feature probe [lo, hi], returning
// the count only.
func (s *Segment) GatedSearchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(Record) bool) int {
	probed, _ := s.Search(Probe{Lo: lo, Hi: hi}, gate, visit)
	return probed
}

// blobPool recycles pread scratch buffers so the fallback refine path
// does not allocate a fresh blob per Load (the mmap path reads straight
// from the mapping and never needs one).
var blobPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// Load reads and decodes one record's summary. On the mmap path the blob
// is decoded directly from the mapping (zero copy, no syscall); on the
// pread fallback it is read into a pooled scratch buffer. Either way the
// only allocations are sgs.Unmarshal's: the summary, its cells and one
// connection arena. Safe for any number of concurrent callers.
func (s *Segment) Load(r Record) (*sgs.Summary, error) {
	if s.mapped != nil {
		metricLoadsMmap.Inc()
		sum, err := sgs.Unmarshal(s.mapped[r.Off : r.Off+int64(r.Len)])
		if err != nil {
			return nil, fmt.Errorf("segstore: %s: record %d: %w", s.path, r.ID, err)
		}
		return sum, nil
	}
	metricLoadsPread.Inc()
	bp := blobPool.Get().(*[]byte)
	defer blobPool.Put(bp)
	if cap(*bp) < int(r.Len) {
		*bp = make([]byte, r.Len)
	}
	blob := (*bp)[:r.Len]
	if _, err := s.f.ReadAt(blob, r.Off); err != nil {
		return nil, fmt.Errorf("segstore: %s: read record %d: %w", s.path, r.ID, err)
	}
	sum, err := sgs.Unmarshal(blob)
	if err != nil {
		return nil, fmt.Errorf("segstore: %s: record %d: %w", s.path, r.ID, err)
	}
	return sum, nil
}

// LoadBlob reads one record's raw encoded blob. On the mmap path the
// returned slice is a view into the mapping: it must not be modified and
// is valid only while the segment is reachable; copy it to retain it
// past the segment's lifetime.
func (s *Segment) LoadBlob(r Record) ([]byte, error) {
	if s.mapped != nil {
		return s.mapped[r.Off : r.Off+int64(r.Len)], nil
	}
	blob := make([]byte, r.Len)
	if _, err := s.f.ReadAt(blob, r.Off); err != nil {
		return nil, fmt.Errorf("segstore: %s: read record %d: %w", s.path, r.ID, err)
	}
	return blob, nil
}

// release unmaps and closes the segment's file. Idempotent; called by
// the open-failure paths, close, and the finalizer.
func (s *Segment) release() {
	if s.mapped != nil {
		_ = munmapFile(s.mapped)
		s.mapped = nil
	}
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
}

func (s *Segment) close() error {
	runtime.SetFinalizer(s, nil)
	if s.mapped != nil {
		_ = munmapFile(s.mapped)
		s.mapped = nil
	}
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
