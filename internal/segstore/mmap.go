package segstore

import "sync/atomic"

// Segment reads prefer a read-only memory mapping of the segment file:
// the columnar filter/gate scans and the refine-phase blob decodes then
// touch the page cache directly, with no per-candidate syscall and no
// per-read allocation. When mapping is disabled (SetMmapEnabled(false),
// or an unsupported platform) or the mmap syscall itself fails,
// OpenSegment falls back to pread: the columnar region is read into the
// heap once at open and blob reads go through ReadAt with a pooled
// scratch buffer. Both paths serve the identical bytes — every test and
// every matching result is unaffected by the toggle.
var mmapOff atomic.Bool

// SetMmapEnabled switches newly opened segments between the mmap read
// path and the pread fallback, returning the previous setting. Already
// open segments keep the path they were opened with. It exists for tests
// and tools that must exercise the fallback deterministically.
func SetMmapEnabled(on bool) bool {
	return !mmapOff.Swap(!on)
}

// MmapEnabled reports whether newly opened segments will try to mmap.
func MmapEnabled() bool { return !mmapOff.Load() }
