package archive

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"streamsum/internal/sgs"
)

// Appender streams archived summaries to a log as they are extracted,
// so the stream history survives a crash mid-run (Save writes only a
// complete snapshot at shutdown). The format is self-delimiting:
//
//	magic "SGSLOG1\n" | records...
//	record: length u32 | crc-less payload (sgs.Marshal blob)
//
// A torn final record (crash mid-write) is detected by its length prefix
// running past EOF and is skipped by LoadAppended; everything before it is
// recovered.
//
// The appender is fail-stop: the first write error is latched, and every
// subsequent Append or Flush returns it. Without the latch, an Append
// that wrote its length prefix but failed mid-blob (or vice versa) could
// be followed by a "successful" Append whose record lands misaligned in
// the log — LoadAppended would then silently truncate the recovery at
// the damage, discarding the later, intact records.
type Appender struct {
	w     *bufio.Writer
	count int
	err   error
}

var logMagic = [8]byte{'S', 'G', 'S', 'L', 'O', 'G', '1', '\n'}

// NewAppender writes the log header and returns an appender. The caller
// owns the underlying writer (flush/close via Flush and the writer's own
// Close).
func NewAppender(w io.Writer) (*Appender, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(logMagic[:]); err != nil {
		return nil, err
	}
	return &Appender{w: bw}, nil
}

// Append writes one summary record. After any write error the appender
// is dead: the error is latched and returned by every later Append and
// Flush (see Err).
func (a *Appender) Append(s *sgs.Summary) error {
	if a.err != nil {
		return a.err
	}
	blob := sgs.Marshal(s)
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(blob)))
	if _, err := a.w.Write(n4[:]); err != nil {
		a.err = err
		return err
	}
	if _, err := a.w.Write(blob); err != nil {
		a.err = err
		return err
	}
	a.count++
	return nil
}

// Count returns the number of records appended.
func (a *Appender) Count() int { return a.count }

// Err returns the latched first write error, or nil if the appender is
// still healthy.
func (a *Appender) Err() error { return a.err }

// Flush pushes buffered records to the underlying writer. Call it at
// window boundaries for crash-consistency points. A flush error is
// latched like a write error.
func (a *Appender) Flush() error {
	if a.err != nil {
		return a.err
	}
	if err := a.w.Flush(); err != nil {
		a.err = err
		return err
	}
	return nil
}

// LoadAppended replays an append log into an empty pattern base, applying
// the base's selection policy to each record (so a log written with a
// permissive policy can be re-archived under a stricter one). It returns
// the number of records recovered and whether the log ended with a torn
// record that was discarded.
//
// Truncation at any byte offset of a valid log is recovered, never
// rejected: the complete-record prefix is archived, torn is reported
// when the cut fell inside a record (or inside the header — a crash can
// hit before the first flush), and err is reserved for logs that are not
// damaged-but-genuine, i.e. whose present header bytes disagree with the
// magic.
func (b *Base) LoadAppended(r io.Reader) (recovered int, torn bool, err error) {
	if b.Len() != 0 {
		return 0, false, fmt.Errorf("archive: LoadAppended requires an empty base")
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	n, err := io.ReadFull(br, magic[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		if bytes.Equal(magic[:n], logMagic[:n]) {
			return 0, true, nil // torn header: crash before the first flush
		}
		return 0, false, fmt.Errorf("%w: bad log magic", ErrBadFile)
	} else if err != nil {
		return 0, false, fmt.Errorf("%w: %v", ErrBadFile, err)
	}
	if magic != logMagic {
		return 0, false, fmt.Errorf("%w: bad log magic", ErrBadFile)
	}
	for {
		var n4 [4]byte
		if _, err := io.ReadFull(br, n4[:]); err == io.EOF {
			return recovered, false, nil
		} else if err != nil {
			return recovered, true, nil // torn length prefix
		}
		size := binary.LittleEndian.Uint32(n4[:])
		if size > 1<<30 {
			return recovered, true, nil // corrupt length: treat as torn tail
		}
		blob, err := readRecord(br, uint64(size))
		if err != nil {
			return recovered, true, nil // torn payload
		}
		s, err := sgs.Unmarshal(blob)
		if err != nil {
			return recovered, true, nil // corrupt record: stop at last good one
		}
		if _, _, err := b.Put(s); err != nil {
			return recovered, false, err
		}
		recovered++
	}
}
