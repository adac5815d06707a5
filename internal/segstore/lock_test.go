//go:build unix

package segstore

import (
	"errors"
	"testing"
)

// TestOpenLocked: one Store at a time holds a directory. A second Open
// fails with ErrLocked until the first Closes, then succeeds.
func TestOpenLocked(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dim: 2, NoBackgroundCompaction: true}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(makeEntries(t, 3, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, opts); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: err = %v, want ErrLocked", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer st2.Close()
	if n := st2.Stats().LiveRecords; n != 3 {
		t.Fatalf("reopened store holds %d records, want 3", n)
	}
}

// TestFailedOpenReleasesLock: an Open that fails after taking the lock
// (here on a dimension mismatch with the manifest) leaves no lock
// behind.
func TestFailedOpenReleasesLock(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(makeEntries(t, 2, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Dim: 3, NoBackgroundCompaction: true}); err == nil || errors.Is(err, ErrLocked) {
		t.Fatalf("dimension-mismatch Open: err = %v, want a dimension error", err)
	}
	st2, err := Open(dir, Options{Dim: 2, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatalf("Open after a failed Open: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err := ManifestDim(dir); err != nil || d != 2 {
		t.Fatalf("ManifestDim = %d, %v; want 2", d, err)
	}
}
