package segstore

import (
	"fmt"
	"os"
	"path/filepath"

	"streamsum/internal/trace"
)

// Compaction: merge runs of adjacent undersized segments (many small
// demotion batches → one segment near the target size) and rewrite
// tombstone-heavy segments to reclaim dead bytes. Sources are immutable,
// so the merge reads and writes entirely outside the store lock; only
// group selection and the manifest commit are serialized. Manifest order
// is archive (FIFO) order and a group is always an adjacent run replaced
// in place, so compaction never reorders the store-wide record sequence.

func (st *Store) signalCompactLocked() {
	if st.opts.NoBackgroundCompaction {
		return
	}
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

func (st *Store) compactLoop() {
	defer close(st.done)
	for range st.wake {
		for {
			did, err := st.compactOnce()
			if err != nil || !did {
				// Compaction failures only delay space reclamation; the
				// live state is untouched. Retry at the next signal.
				break
			}
		}
	}
}

// CompactNow runs compaction passes until none applies (sgstool compact,
// deterministic tests). Safe concurrently with flushes and tombstones.
func (st *Store) CompactNow() error {
	for {
		did, err := st.compactOnce()
		if err != nil || !did {
			return err
		}
	}
}

// compactOnce performs at most one merge. It reports whether it did any
// work. At most one compaction runs at a time (cmu); the store lock is
// held only for group selection and the commit. Each run that selected
// work records one flight-recorder trace (category Compact) with merge
// and commit spans; passes that found nothing to do record nothing.
func (st *Store) compactOnce() (bool, error) {
	st.cmu.Lock()
	defer st.cmu.Unlock()

	group, dead := st.selectGroupLocked()
	if len(group) == 0 {
		return false, nil
	}
	tr := trace.Default.Start(trace.Compact, "segstore.compact")
	did, err := st.compactGroup(group, dead, tr)
	root := tr.Root()
	root.SetInt("inputs", int64(len(group)))
	if err != nil {
		root.SetStr("error", err.Error())
	}
	tr.Finish()
	return did, err
}

func (st *Store) compactGroup(group []*Segment, dead map[int64]struct{}, tr *trace.Trace) (bool, error) {
	// Merge outside the store lock: sources are immutable.
	mergeSpan := tr.Start("merge")
	var merged []FlushEntry
	dropped := make(map[int64]struct{})
	for _, seg := range group {
		for i := range seg.Len() {
			r := seg.record(i)
			if _, gone := dead[r.ID]; gone {
				dropped[r.ID] = struct{}{}
				continue
			}
			blob, err := seg.LoadBlob(r)
			if err != nil {
				return false, err
			}
			merged = append(merged, FlushEntry{ID: r.ID, Blob: blob, MBR: r.MBR, Feat: r.Feat})
		}
	}
	var out *Segment
	if len(merged) > 0 {
		st.mu.Lock()
		name := fmt.Sprintf("%s%08d%s", segPrefix, st.seq, segSuffix)
		st.seq++
		st.mu.Unlock()
		path := filepath.Join(st.dir, name)
		tmp := path + ".tmp"
		if err := writeSegment(tmp, st.opts.Dim, merged); err != nil {
			_ = os.Remove(tmp)
			return false, err
		}
		if err := os.Rename(tmp, path); err != nil {
			_ = os.Remove(tmp)
			return false, err
		}
		st.syncDir()
		var err error
		if out, err = OpenSegment(path); err != nil {
			_ = os.Remove(path)
			return false, err
		}
	}
	mergeSpan.SetInt("records", int64(len(merged)))
	mergeSpan.SetInt("dropped", int64(len(dropped)))
	mergeSpan.End()

	commitSpan := tr.Start("commit")
	defer commitSpan.End()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		if out != nil {
			_ = out.close()
			_ = os.Remove(out.path)
		}
		return false, nil
	}
	// Locate the group (flushes only append, and cmu excludes other
	// compactions, so the run is still present and contiguous).
	at := -1
	for i, s := range st.segs {
		if s == group[0] {
			at = i
			break
		}
	}
	if at < 0 || at+len(group) > len(st.segs) {
		return false, fmt.Errorf("segstore: compaction group vanished")
	}
	newSegs := make([]*Segment, 0, len(st.segs)-len(group)+1)
	newSegs = append(newSegs, st.segs[:at]...)
	if out != nil {
		newSegs = append(newSegs, out)
	}
	newSegs = append(newSegs, st.segs[at+len(group):]...)
	// Dropped records take their tombstones with them (ids are unique
	// across segments, so a dropped id exists nowhere else).
	for id := range dropped {
		delete(st.tombs, id)
	}
	if err := st.commitManifestLocked(newSegs); err != nil {
		for id := range dropped {
			st.tombs[id] = struct{}{}
		}
		if out != nil {
			_ = out.close()
			_ = os.Remove(out.path)
		}
		return false, err
	}
	st.segs = newSegs
	st.compactions++
	metricCompactions.Inc()
	// Retire the inputs: unlink now, close when the last pinned View
	// lets go (the finalizer set at OpenSegment).
	for _, seg := range group {
		_ = os.Remove(seg.path)
	}
	return true, nil
}

// selectGroupLocked picks the next compaction group: the first adjacent
// run of >= 2 segments whose live payload is below the target (capped at
// 4x the target per merge), else the first tombstone-heavy segment
// (>= 1/2 dead bytes) rewritten alone. It returns the group plus a
// snapshot of the tombstoned ids to drop; records tombstoned after this
// snapshot survive the merge and are dropped by a later pass.
func (st *Store) selectGroupLocked() ([]*Segment, map[int64]struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, nil
	}
	target := st.opts.TargetSegmentBytes
	live := make([]int, len(st.segs))
	deadBytes := make([]int, len(st.segs))
	for i, seg := range st.segs {
		for j, id := range seg.cols.IDs {
			if _, gone := st.tombs[id]; gone {
				deadBytes[i] += int(seg.lens[j])
			} else {
				live[i] += int(seg.lens[j])
			}
		}
	}
	snapshotTombs := func() map[int64]struct{} {
		m := make(map[int64]struct{}, len(st.tombs))
		for id := range st.tombs {
			m[id] = struct{}{}
		}
		return m
	}
	for i := 0; i < len(st.segs); i++ {
		if live[i] >= target {
			continue
		}
		j, total := i, 0
		for j < len(st.segs) && live[j] < target && total+live[j] <= 4*target {
			total += live[j]
			j++
		}
		if j-i >= 2 {
			return append([]*Segment(nil), st.segs[i:j]...), snapshotTombs()
		}
	}
	for i, seg := range st.segs {
		if deadBytes[i] > 0 && deadBytes[i]*2 >= deadBytes[i]+live[i] {
			return []*Segment{seg}, snapshotTombs()
		}
	}
	return nil, nil
}
