package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"streamsum/internal/sgs"
)

// hostileHeaders are inputs whose headers claim far more than they hold:
// a pattern-base file with count 2^27 and one with count 2^62, and an
// append log whose first record claims 2^30 bytes.
func hostileHeaders() (base27, base62, log30 []byte) {
	base := func(count uint64) []byte {
		out := append([]byte(nil), fileMagic[:]...)
		return binary.LittleEndian.AppendUint64(out, count)
	}
	log30 = binary.LittleEndian.AppendUint32(append([]byte(nil), logMagic[:]...), 1<<30)
	return base(1 << 27), base(1 << 62), log30
}

// TestLoadSizesFromBytesRead: Load and LoadAppended size nothing from a
// header field, so a short file claiming a huge count or record length
// is rejected (ErrBadFile) or reported torn with under 1 MiB allocated.
func TestLoadSizesFromBytesRead(t *testing.T) {
	base27, base62, log30 := hostileHeaders()
	allocated := func(load func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for name, in := range map[string][]byte{"count 2^27": base27, "count 2^62": base62} {
		var err error
		n := allocated(func() {
			b, _ := New(Config{Dim: 2})
			err = b.Load(bytes.NewReader(in))
		})
		if !errors.Is(err, ErrBadFile) {
			t.Errorf("Load(%s) = %v, want ErrBadFile", name, err)
		}
		if n >= 1<<20 {
			t.Errorf("Load(%s) allocated %d bytes", name, n)
		}
	}
	var (
		torn bool
		err  error
	)
	n := allocated(func() {
		b, _ := New(Config{Dim: 2})
		_, torn, err = b.LoadAppended(bytes.NewReader(log30))
	})
	if !torn && !errors.Is(err, ErrBadFile) {
		t.Errorf("LoadAppended(length 2^30) = torn %v, err %v; want torn or ErrBadFile", torn, err)
	}
	if n >= 1<<20 {
		t.Errorf("LoadAppended(length 2^30) allocated %d bytes", n)
	}
}

// FuzzLoad: Load never panics on arbitrary bytes; a rejected file leaves
// the base empty, and an accepted one saves and loads back to the same
// entries.
func FuzzLoad(f *testing.F) {
	base27, base62, _ := hostileHeaders()
	f.Add(base27)
	f.Add(base62)
	b, _ := New(Config{Dim: 2})
	for _, s := range fixtureSummaries(f, 3, 61) {
		if _, _, err := b.Put(s); err != nil {
			f.Fatal(err)
		}
	}
	var saved bytes.Buffer
	if err := b.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		b, _ := New(Config{Dim: 2})
		if err := b.Load(bytes.NewReader(data)); err != nil {
			if b.Len() != 0 {
				t.Fatalf("rejected file (%v) left %d entries", err, b.Len())
			}
			return
		}
		var out bytes.Buffer
		if err := b.Save(&out); err != nil {
			t.Fatal(err)
		}
		b2, _ := New(Config{Dim: 2})
		if err := b2.Load(&out); err != nil {
			t.Fatalf("saved base does not load back: %v", err)
		}
		if a, c := blobs(b), blobs(b2); !equalBlobs(a, c) {
			t.Fatalf("round trip changed the base: %d entries, then %d", len(a), len(c))
		}
	})
}

// FuzzLoadAppended: LoadAppended never panics on arbitrary bytes, and a
// log it accepts, truncated at any offset, recovers a prefix of the
// records the whole log recovers.
func FuzzLoadAppended(f *testing.F) {
	_, _, log30 := hostileHeaders()
	f.Add(log30, uint16(10))
	var log bytes.Buffer
	ap, err := NewAppender(&log)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range fixtureSummaries(f, 3, 62) {
		if err := ap.Append(s); err != nil {
			f.Fatal(err)
		}
	}
	if err := ap.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(log.Bytes(), uint16(log.Len()/2))
	f.Add(log.Bytes()[:log.Len()-5], uint16(3))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		whole, _ := New(Config{Dim: 2})
		n, _, err := whole.LoadAppended(bytes.NewReader(data))
		if err != nil {
			return
		}
		if whole.Len() != n {
			t.Fatalf("recovered %d, base holds %d", n, whole.Len())
		}
		prefix, _ := New(Config{Dim: 2})
		m, _, err := prefix.LoadAppended(bytes.NewReader(data[:int(cut)%(len(data)+1)]))
		if err != nil {
			t.Fatalf("truncated log rejected: %v", err)
		}
		a, c := blobs(whole), blobs(prefix)
		if m > n || len(c) != m || !equalBlobs(a[:m], c) {
			t.Fatalf("truncated log recovered %d records, not a prefix of the whole log's %d", m, n)
		}
	})
}

// blobs returns the encoded summaries of a memory-only base in FIFO
// order.
func blobs(b *Base) [][]byte {
	var out [][]byte
	b.All(func(e *Entry) bool {
		out = append(out, sgs.Marshal(e.Summary))
		return true
	})
	return out
}

func equalBlobs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
