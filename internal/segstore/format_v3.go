package segstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"streamsum/internal/geom"
)

// v3 segment format: the filter-phase features live in a densely packed
// fixed-width columnar region at the front of the file, laid out for
// sequential scanning straight out of a read-only mmap, and the
// variable-width summary blobs follow in their own region, touched only
// by refine survivors. See doc.go for the full layout.
var (
	segMagicV3    = [8]byte{'S', 'G', 'S', 'S', 'E', 'G', '3', '\n'}
	footerMagicV3 = [8]byte{'S', 'G', 'S', 'F', 'T', 'R', '3', '\n'}
)

// v3 fixed footer head: magic | dim u8 | count u32 | colOff u64 |
// colLen u64 | blobOff u64 | blobLen u64 | colCRC u32, then the zone
// block (union MBR + per-feature min/max).
const footerV3Head = 8 + 1 + 4 + 8*4 + 4

// colLayout describes the byte offsets of the six columns inside the
// columnar region for a given record count and dimensionality. Columns
// are arrays, one value (or one fixed-width group) per record: scanning
// the feature gate touches only the feats column, a location scan only
// the mbrs column.
type colLayout struct {
	ids   int // count × i64
	offs  int // count × u64 (absolute file offset of the record's blob)
	lens  int // count × u32
	mbrs  int // count × dim×f64 min, dim×f64 max
	feats int // count × 4×f64
	size  int
}

func layoutV3(count, dim int) colLayout {
	var l colLayout
	l.ids = 0
	l.offs = l.ids + count*8
	l.lens = l.offs + count*8
	end := l.lens + count*4
	end += (8 - end%8) % 8 // pad so the f64 columns stay 8-byte aligned
	l.mbrs = end
	l.feats = l.mbrs + count*dim*16
	l.size = l.feats + count*32
	return l
}

// writeSegment writes a complete v3 segment file at path (no atomicity
// — the caller writes to a temp name and renames). Entries must be in
// archive (FIFO) order and share the store's dimensionality.
func writeSegment(path string, dim int, entries []FlushEntry) error {
	count := len(entries)
	l := layoutV3(count, dim)
	col := make([]byte, l.size)
	blobOff := int64(len(segMagicV3)) + int64(l.size)
	off := blobOff
	for i, e := range entries {
		if e.MBR.Dim() != dim {
			return fmt.Errorf("segstore: entry %d dimension %d != store dimension %d", e.ID, e.MBR.Dim(), dim)
		}
		binary.LittleEndian.PutUint64(col[l.ids+i*8:], uint64(e.ID))
		binary.LittleEndian.PutUint64(col[l.offs+i*8:], uint64(off))
		binary.LittleEndian.PutUint32(col[l.lens+i*4:], uint32(len(e.Blob)))
		m := col[l.mbrs+i*dim*16:]
		for d := 0; d < dim; d++ {
			binary.LittleEndian.PutUint64(m[d*8:], math.Float64bits(e.MBR.Min[d]))
			binary.LittleEndian.PutUint64(m[(dim+d)*8:], math.Float64bits(e.MBR.Max[d]))
		}
		ft := col[l.feats+i*32:]
		for d := 0; d < 4; d++ {
			binary.LittleEndian.PutUint64(ft[d*8:], math.Float64bits(e.Feat[d]))
		}
		off += int64(len(e.Blob))
	}
	footerOff := off

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.Write(segMagicV3[:]); err != nil {
		return err
	}
	if _, err := w.Write(col); err != nil {
		return err
	}
	for _, e := range entries {
		if _, err := w.Write(e.Blob); err != nil {
			return err
		}
	}

	footer := make([]byte, 0, footerV3Head+zoneSize(dim))
	footer = append(footer, footerMagicV3[:]...)
	footer = append(footer, byte(dim))
	var n4 [4]byte
	var n8 [8]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(count))
	footer = append(footer, n4[:]...)
	for _, v := range []uint64{
		uint64(len(segMagicV3)),     // colOff
		uint64(l.size),              // colLen
		uint64(blobOff),             // blobOff
		uint64(footerOff - blobOff), // blobLen
	} {
		binary.LittleEndian.PutUint64(n8[:], v)
		footer = append(footer, n8[:]...)
	}
	binary.LittleEndian.PutUint32(n4[:], crc32.ChecksumIEEE(col))
	footer = append(footer, n4[:]...)
	footer = appendZone(footer, dim, zoneOfEntries(dim, entries))
	if _, err := w.Write(footer); err != nil {
		return err
	}

	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(footerOff))
	binary.LittleEndian.PutUint32(tr[8:], uint32(len(footer)))
	binary.LittleEndian.PutUint32(tr[12:], crc32.ChecksumIEEE(footer))
	copy(tr[16:], endMagic[:])
	if _, err := w.Write(tr[:]); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// zoneSize is the encoded size of a zone block.
func zoneSize(dim int) int { return dim*16 + 64 }

// appendZone encodes the footer's zone block: union MBR min/max, then
// per-feature min/max.
func appendZone(buf []byte, dim int, z zone) []byte {
	var n8 [8]byte
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(n8[:], math.Float64bits(v))
		buf = append(buf, n8[:]...)
	}
	for d := 0; d < dim; d++ {
		f64(z.mbr.Min[d])
	}
	for d := 0; d < dim; d++ {
		f64(z.mbr.Max[d])
	}
	for d := 0; d < 4; d++ {
		f64(z.featMin[d])
	}
	for d := 0; d < 4; d++ {
		f64(z.featMax[d])
	}
	return buf
}

// decodeZone decodes a zone block, returning the remaining bytes.
func decodeZone(b []byte, dim int) (zone, []byte, error) {
	var z zone
	if len(b) < zoneSize(dim) {
		return z, nil, fmt.Errorf("truncated zone block")
	}
	z.mbr = geom.MBR{Min: make(geom.Point, dim), Max: make(geom.Point, dim)}
	for d := 0; d < dim; d++ {
		z.mbr.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[d*8:]))
	}
	b = b[dim*8:]
	for d := 0; d < dim; d++ {
		z.mbr.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[d*8:]))
	}
	b = b[dim*8:]
	for d := 0; d < 4; d++ {
		z.featMin[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[d*8:]))
	}
	b = b[4*8:]
	for d := 0; d < 4; d++ {
		z.featMax[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[d*8:]))
	}
	return z, b[4*8:], nil
}

func zoneOfEntries(dim int, entries []FlushEntry) zone {
	z := zone{mbr: geom.EmptyMBR(dim)}
	for d := 0; d < 4; d++ {
		z.featMin[d] = math.Inf(1)
		z.featMax[d] = math.Inf(-1)
	}
	for _, e := range entries {
		z.mbr.Extend(e.MBR)
		for d := 0; d < 4; d++ {
			z.featMin[d] = math.Min(z.featMin[d], e.Feat[d])
			z.featMax[d] = math.Max(z.featMax[d], e.Feat[d])
		}
	}
	return z
}

// openSegmentV3 validates a v3 segment and builds its in-memory state:
// the columnar region either as a sub-slice of the file mapping (zero
// copy) or, on the pread fallback, as one heap copy read at open. The
// caller has already verified the header magic, the trailer geometry
// and the footer CRC.
func openSegmentV3(path string, f *os.File, size, footerOff int64, footer []byte) (*Segment, error) {
	if len(footer) < footerV3Head || [8]byte(footer[:8]) != footerMagicV3 {
		return nil, fmt.Errorf("%w: %s: bad footer magic", ErrBadSegment, path)
	}
	p := footer[8:]
	dim := int(p[0])
	if dim < 1 || dim > 8 {
		return nil, fmt.Errorf("%w: %s: footer dimension %d", ErrBadSegment, path, dim)
	}
	count := int(binary.LittleEndian.Uint32(p[1:]))
	colOff := int64(binary.LittleEndian.Uint64(p[5:]))
	colLen := int64(binary.LittleEndian.Uint64(p[13:]))
	blobOff := int64(binary.LittleEndian.Uint64(p[21:]))
	blobLen := int64(binary.LittleEndian.Uint64(p[29:]))
	colCRC := binary.LittleEndian.Uint32(p[37:])
	// blobLen >= 0 keeps the columnar region inside the file, which also
	// bounds count by the file size before anything is sized from it.
	l := layoutV3(count, dim)
	if colOff != int64(len(segMagicV3)) || colLen != int64(l.size) ||
		blobOff != colOff+colLen || blobLen < 0 || blobOff+blobLen != footerOff {
		return nil, fmt.Errorf("%w: %s: v3 region geometry", ErrBadSegment, path)
	}
	zone, rest, err := decodeZone(footer[footerV3Head:], dim)
	if err != nil || len(rest) != 0 {
		return nil, fmt.Errorf("%w: %s: v3 zone block", ErrBadSegment, path)
	}

	seg := &Segment{
		path: path, f: f, dim: dim, zone: zone,
		payload: int(blobLen),
		byID:    make(map[int64]int, count),
	}
	if MmapEnabled() {
		if m, err := mmapFile(f, size); err == nil {
			seg.mapped = m
			seg.col = m[colOff : colOff+colLen]
		}
	}
	if seg.col == nil {
		col := make([]byte, colLen)
		if _, err := f.ReadAt(col, colOff); err != nil {
			return nil, fmt.Errorf("%w: %s: read columnar region: %v", ErrBadSegment, path, err)
		}
		seg.col = col
	}
	if crc32.ChecksumIEEE(seg.col) != colCRC {
		seg.release()
		return nil, fmt.Errorf("%w: %s: columnar region CRC mismatch", ErrBadSegment, path)
	}
	seg.count = count
	seg.lay = l

	// Materialize the record directory (Get, Records, compaction). The
	// scans below never touch it for range tests — they read the columns —
	// but survivors are surfaced as Records.
	seg.recs = make([]Record, count)
	next := blobOff
	for i := 0; i < count; i++ {
		r := &seg.recs[i]
		r.ID = seg.idAt(i)
		r.Off = seg.offAt(i)
		r.Len = seg.lenAt(i)
		if r.Off != next || r.Off+int64(r.Len) > footerOff {
			seg.release()
			return nil, fmt.Errorf("%w: %s: record %d byte range", ErrBadSegment, path, i)
		}
		next = r.Off + int64(r.Len)
		if _, dup := seg.byID[r.ID]; dup {
			seg.release()
			return nil, fmt.Errorf("%w: %s: duplicate id %d", ErrBadSegment, path, r.ID)
		}
		seg.byID[r.ID] = i
		r.MBR = geom.MBR{Min: make(geom.Point, dim), Max: make(geom.Point, dim)}
		for d := 0; d < dim; d++ {
			r.MBR.Min[d] = seg.colF64(seg.lay.mbrs + (i*2*dim+d)*8)
			r.MBR.Max[d] = seg.colF64(seg.lay.mbrs + (i*2*dim+dim+d)*8)
		}
		if r.MBR.IsEmpty() {
			seg.release()
			return nil, fmt.Errorf("%w: %s: record %d has an empty MBR", ErrBadSegment, path, i)
		}
		for d := 0; d < 4; d++ {
			r.Feat[d] = seg.colF64(seg.lay.feats + (i*4+d)*8)
		}
	}
	if next != footerOff {
		seg.release()
		return nil, fmt.Errorf("%w: %s: blob region does not meet footer", ErrBadSegment, path)
	}
	return seg, nil
}

// Column accessors. The columnar region is a flat byte slice (mapped or
// heap-resident); these are straight loads, no allocation.

func (s *Segment) colF64(off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(s.col[off:]))
}

func (s *Segment) idAt(i int) int64 {
	return int64(binary.LittleEndian.Uint64(s.col[s.lay.ids+i*8:]))
}

func (s *Segment) offAt(i int) int64 {
	return int64(binary.LittleEndian.Uint64(s.col[s.lay.offs+i*8:]))
}

func (s *Segment) lenAt(i int) uint32 {
	return binary.LittleEndian.Uint32(s.col[s.lay.lens+i*4:])
}

// featAt reads record i's feature vector from the feats column.
func (s *Segment) featAt(i int) [4]float64 {
	ft := s.col[s.lay.feats+i*32:]
	return [4]float64{
		math.Float64frombits(binary.LittleEndian.Uint64(ft[0:])),
		math.Float64frombits(binary.LittleEndian.Uint64(ft[8:])),
		math.Float64frombits(binary.LittleEndian.Uint64(ft[16:])),
		math.Float64frombits(binary.LittleEndian.Uint64(ft[24:])),
	}
}

// scanFeatures linearly scans the feats column for records inside
// [lo, hi], applying gate (when non-nil) before visiting — the fused
// filter+gate pass. It returns the number of in-range records (the index
// candidates), the same count an index probe of the memory tier reports.
// The scan reads only the mapped (or heap) columns: zero allocation, no
// syscall.
func (s *Segment) scanFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(Record) bool) int {
	probed := 0
	for i := 0; i < s.count; i++ {
		v := s.featAt(i)
		if v[0] < lo[0] || v[0] > hi[0] || v[1] < lo[1] || v[1] > hi[1] ||
			v[2] < lo[2] || v[2] > hi[2] || v[3] < lo[3] || v[3] > hi[3] {
			continue
		}
		probed++
		if gate != nil && !gate(v) {
			continue
		}
		if !visit(s.recs[i]) {
			break
		}
	}
	return probed
}

// scanLocation linearly scans the mbrs column for records whose MBR
// intersects q (inclusive bounds, exactly geom.MBR.Intersects), applying
// gate before visiting. Returns the number of intersecting records.
func (s *Segment) scanLocation(q geom.MBR, gate func([4]float64) bool, visit func(Record) bool) int {
	if q.IsEmpty() {
		return 0
	}
	probed := 0
	dim := s.dim
	stride := 2 * dim * 8
	for i := 0; i < s.count; i++ {
		base := s.lay.mbrs + i*stride
		hit := true
		for d := 0; d < dim; d++ {
			min := s.colF64(base + d*8)
			max := s.colF64(base + (dim+d)*8)
			if max < q.Min[d] || q.Max[d] < min {
				hit = false
				break
			}
		}
		if !hit {
			continue
		}
		probed++
		if gate != nil && !gate(s.featAt(i)) {
			continue
		}
		if !visit(s.recs[i]) {
			break
		}
	}
	return probed
}
