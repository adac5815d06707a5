package archive

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"streamsum/internal/sgs"
)

// Persistence: the pattern base constitutes the queryable Stream History
// (§3.3), so it must survive process restarts. The on-disk format is a
// small header followed by length-prefixed sgs.Marshal blobs in archive
// (FIFO) order. Ids and filter features are recomputed on load.

var fileMagic = [8]byte{'S', 'G', 'S', 'B', 'A', 'S', 'E', '1'}

// ErrBadFile is returned when loading a corrupt pattern-base file.
var ErrBadFile = errors.New("archive: bad pattern base file")

// Save writes all archived summaries to w. It serializes a snapshot, so
// concurrent Puts neither block on nor corrupt the dump.
func (b *Base) Save(w io.Writer) error {
	snap := b.Snapshot()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	var n8 [8]byte
	binary.LittleEndian.PutUint64(n8[:], uint64(snap.Len()))
	if _, err := bw.Write(n8[:]); err != nil {
		return err
	}
	var werr error
	snap.All(func(e *Entry) bool {
		// Disk-resident entries stream through one at a time; the dump
		// never holds more than one of their summaries in memory.
		sum, err := e.LoadSummary()
		if err != nil {
			werr = err
			return false
		}
		blob := sgs.Marshal(sum)
		binary.LittleEndian.PutUint64(n8[:], uint64(len(blob)))
		if _, werr = bw.Write(n8[:]); werr != nil {
			return false
		}
		if _, werr = bw.Write(blob); werr != nil {
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// Load reads summaries written by Save into an empty pattern base created
// with the same dimensionality. Selection policies are not re-applied: the
// file's contents were already selected when first archived. Archive ids
// are reassigned densely. The whole file is parsed and validated before
// any state is committed, so a corrupt file leaves the base empty.
func (b *Base) Load(r io.Reader) error {
	if b.Len() != 0 {
		return fmt.Errorf("archive: Load requires an empty base")
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFile, err)
	}
	if magic != fileMagic {
		return fmt.Errorf("%w: bad magic", ErrBadFile)
	}
	var n8 [8]byte
	if _, err := io.ReadFull(br, n8[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFile, err)
	}
	// The header's count and each record's length are untrusted: nothing
	// is sized from them, so a corrupt header costs no more memory than
	// the file actually holds.
	count := binary.LittleEndian.Uint64(n8[:])
	mem := columns{dim: b.cfg.Dim}
	bytes := 0
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, n8[:]); err != nil {
			return fmt.Errorf("%w: truncated at record %d", ErrBadFile, i)
		}
		size := binary.LittleEndian.Uint64(n8[:])
		if size > 1<<30 {
			return fmt.Errorf("%w: record %d size %d", ErrBadFile, i, size)
		}
		blob, err := readRecord(br, size)
		if err != nil {
			return fmt.Errorf("%w: truncated record %d", ErrBadFile, i)
		}
		s, err := sgs.Unmarshal(blob)
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrBadFile, i, err)
		}
		if s.NumCells() == 0 {
			return fmt.Errorf("%w: record %d is empty", ErrBadFile, i)
		}
		if s.Dim != b.cfg.Dim {
			return fmt.Errorf("%w: record %d dimension %d != base dimension %d", ErrBadFile, i, s.Dim, b.cfg.Dim)
		}
		id := int64(mem.Len())
		s.ID = id
		e := &Entry{ID: id, Summary: s, MBR: s.MBR(), Features: s.Features(), Bytes: len(blob)}
		if e.MBR.IsEmpty() {
			return fmt.Errorf("%w: record %d has an invalid MBR", ErrBadFile, i)
		}
		mem.push(e)
		bytes += len(blob)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count != 0 {
		return fmt.Errorf("archive: Load requires an empty base")
	}
	b.mem, b.head = mem, 0
	b.count = mem.Len()
	b.bytes = bytes
	b.memBytes = bytes
	b.nextID = int64(mem.Len())
	b.snap = nil
	// A store-backed base re-establishes its memory bound after the bulk
	// load (demotion is otherwise amortized across Puts).
	return b.demoteLocked(0)
}

// readRecord reads an n-byte record in chunks of at most 64 KiB, so its
// allocation grows with the bytes actually read, never from n up front:
// a corrupt length prefix cannot make a short file allocate what it
// claims.
func readRecord(r io.Reader, n uint64) ([]byte, error) {
	var blob []byte
	for uint64(len(blob)) < n {
		k := int(min(n-uint64(len(blob)), 64<<10))
		blob = slices.Grow(blob, k)
		if _, err := io.ReadFull(r, blob[len(blob):len(blob)+k]); err != nil {
			return nil, err
		}
		blob = blob[:len(blob)+k]
	}
	return blob, nil
}
