package segstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"

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

// colLayout describes the byte offsets of the five columns inside the
// columnar region for a given record count and dimensionality. Columns
// are arrays, one value (or one fixed-width group) per record; the mbrs
// and feats columns have the row layout of Columns.
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
// archive (FIFO) order, so their ids strictly increase, and share the
// store's dimensionality.
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
		if i > 0 && e.ID <= entries[i-1].ID {
			return fmt.Errorf("segstore: entry id %d does not follow %d", e.ID, entries[i-1].ID)
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

// openSegmentV3 validates a v3 segment and decodes its columnar region
// once into typed columns. The region is read from the file mapping or,
// on the pread fallback, into a heap copy that is dropped after the
// decode; either way the mapping then serves blob loads only. The caller
// has already verified the header magic, the trailer geometry and the
// footer CRC.
func openSegmentV3(path string, f *os.File, size, footerOff int64, footer []byte) (*Segment, error) {
	if len(footer) < footerV3Head || [8]byte(footer[:8]) != footerMagicV3 {
		return nil, fmt.Errorf("%w: %s: bad footer magic", ErrBadSegment, path)
	}
	le := binary.LittleEndian
	p := footer[8:]
	dim := int(p[0])
	if dim < 1 || dim > 8 {
		return nil, fmt.Errorf("%w: %s: footer dimension %d", ErrBadSegment, path, dim)
	}
	count := int(le.Uint32(p[1:]))
	colOff := int64(le.Uint64(p[5:]))
	colLen := int64(le.Uint64(p[13:]))
	blobOff := int64(le.Uint64(p[21:]))
	blobLen := int64(le.Uint64(p[29:]))
	colCRC := le.Uint32(p[37:])
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

	seg := &Segment{path: path, f: f, zone: zone, payload: int(blobLen), colBytes: l.size}
	var col []byte
	if MmapEnabled() {
		if m, err := mmapFile(f, size); err == nil {
			seg.mapped = m
			col = m[colOff : colOff+colLen]
		}
	}
	if col == nil {
		col = make([]byte, colLen)
		if _, err := f.ReadAt(col, colOff); err != nil {
			return nil, fmt.Errorf("%w: %s: read columnar region: %v", ErrBadSegment, path, err)
		}
	}
	fail := func(format string, args ...any) (*Segment, error) {
		seg.release()
		return nil, fmt.Errorf("%w: %s: "+format, append([]any{ErrBadSegment, path}, args...)...)
	}
	if crc32.ChecksumIEEE(col) != colCRC {
		return fail("columnar region CRC mismatch")
	}

	f64 := func(off int) float64 { return math.Float64frombits(le.Uint64(col[off:])) }
	c := MakeColumns(dim, count)
	seg.offs = make([]int64, count)
	seg.lens = make([]uint32, count)
	next := blobOff
	for i := 0; i < count; i++ {
		id := int64(le.Uint64(col[l.ids+i*8:]))
		if i > 0 && id <= c.IDs[i-1] {
			return fail("record %d: id %d does not follow %d", i, id, c.IDs[i-1])
		}
		off, n := int64(le.Uint64(col[l.offs+i*8:])), le.Uint32(col[l.lens+i*4:])
		if off != next || off+int64(n) > footerOff {
			return fail("record %d byte range", i)
		}
		next = off + int64(n)
		seg.offs[i], seg.lens[i] = off, n
		c.IDs = append(c.IDs, id)
		for k := 0; k < 2*dim; k++ {
			c.MBR = append(c.MBR, f64(l.mbrs+(i*2*dim+k)*8))
		}
		ft := l.feats + i*32
		c.Feat = append(c.Feat, [4]float64{f64(ft), f64(ft + 8), f64(ft + 16), f64(ft + 24)})
		// A writer never stores a NaN (ingest rejects one), and a NaN
		// would fall inside every range the scans test.
		if c.RowMBR(i).IsEmpty() || slices.ContainsFunc(c.MBR[len(c.MBR)-2*dim:], math.IsNaN) ||
			slices.ContainsFunc(c.Feat[i][:], math.IsNaN) {
			return fail("record %d has an empty or NaN MBR or feature", i)
		}
	}
	if next != footerOff {
		return fail("blob region does not meet footer")
	}
	seg.cols = c
	return seg, nil
}
