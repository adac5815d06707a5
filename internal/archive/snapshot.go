package archive

import (
	"path/filepath"

	"streamsum/internal/geom"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
)

// Snapshot is an immutable point-in-time view of the pattern base: slice
// headers over the memory tier's columns (rows the writer never writes
// again), the in-flight demotion batches not yet visible on disk, and —
// for store-backed bases — a pinned view of the disk tier's segment set.
// Any number of goroutines may search one snapshot concurrently, and no
// snapshot operation ever takes the base lock — matching queries run
// entirely off the archiver's append path.
//
// A snapshot does not see mutations made after it was taken; pin one
// snapshot per query when the filter phases must agree on a single
// archive state, or go through the Base convenience wrappers when
// per-call freshness is enough.
type Snapshot struct {
	dim   int
	mem   []columns      // in-flight demotions oldest first, then the live memory tier; ids ascend across them
	view  *segstore.View // disk tier; nil for memory-only bases
	count int            // live entries across both tiers
	bytes int            // live encoded bytes across both tiers
}

// Snapshot returns a read-only view of the base's current contents. The
// view is cached: repeated calls between mutations return the same
// Snapshot, and taking one after a mutation costs O(pending demotion
// batches) — the memory tier's columns and the disk segments are shared,
// not copied.
func (b *Base) Snapshot() *Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.snap != nil {
		return b.snap
	}
	s := &Snapshot{dim: b.cfg.Dim, count: b.count, bytes: b.bytes}
	if b.store != nil {
		s.view = b.store.View()
	}
	// Entries in flight to the disk tier stay visible exactly once: via
	// the pinned store view when their segment committed before the view
	// was taken, via the snapshot's memory runs otherwise (the demoter
	// commits outside b.mu, so a batch can be committed but not yet
	// dequeued — both the view and the queue are captured here, under
	// b.mu, making the membership test race-free). A batch commits as one
	// segment, and Remove waits out a pending batch, so its first entry
	// stands for all of it.
	s.mem = make([]columns, 0, len(b.demotePending)+1)
	for _, batch := range b.demotePending {
		if s.view != nil {
			if _, _, ok := s.view.Get(batch.cols.ids[0]); ok {
				continue
			}
		}
		s.mem = append(s.mem, batch.cols)
	}
	s.mem = append(s.mem, b.mem.slice(b.head, b.mem.Len()))
	b.snap = s
	return s
}

// Dim returns the dimensionality of the data space the snapshot's
// summaries live in.
func (s *Snapshot) Dim() int { return s.dim }

// Len returns the number of archived clusters in the snapshot (both
// tiers).
func (s *Snapshot) Len() int { return s.count }

// Bytes returns the total encoded size of the snapshot's summaries
// (both tiers).
func (s *Snapshot) Bytes() int { return s.bytes }

// segEntry wraps one disk-resident record as an Entry: the filter-phase
// features come from the segment footer; the summary decodes from the
// segment on each load. Match refine, novelty probes, standing-query
// evaluation, Snapshot.Get and base dumps all load through it.
func segEntry(seg *segstore.Segment, r segstore.Record) *Entry {
	return &Entry{
		ID:       r.ID,
		MBR:      r.MBR,
		Features: sgs.FeaturesFromVector(r.Feat),
		Bytes:    int(r.Len),
		load:     func() (*sgs.Summary, error) { return seg.Load(r) },
	}
}

// Get returns the entry with the given id, or nil. Disk-resident entries
// are returned with the summary materialized (one segment read); if that
// read fails, Get reports the entry absent — run a matching query when
// the I/O error itself matters, its refine phase surfaces it.
func (s *Snapshot) Get(id int64) *Entry {
	for i := range s.mem {
		if j := s.mem[i].find(id); j >= 0 {
			return s.mem[i].ents[j]
		}
	}
	if s.view != nil {
		if seg, r, ok := s.view.Get(id); ok {
			e := segEntry(seg, r)
			sum, err := e.LoadSummary()
			if err != nil {
				return nil
			}
			return e.WithSummary(sum)
		}
	}
	return nil
}

// Shard is one filter-phase shard of a snapshot: the memory tier, or one
// disk segment masked by the tombstones pinned in the snapshot. Shards
// are disjoint (an id lives in exactly one) and each is safe for
// concurrent probing, so a matcher may fan its filter phase out across
// them. Both searches visit the live entries that pass the range test
// and then gate (nil admits everything), stop early if visit returns
// false (the count is then partial), and return the number of live
// entries that passed the range test regardless of the gate together
// with the shard's zone decision.
type Shard interface {
	// GatedSearchLocation probes for entries whose MBR intersects q.
	GatedSearchLocation(q geom.MBR, gate func([4]float64) bool, visit func(*Entry) bool) (int, Zone)
	// GatedSearchFeatures probes for entries whose feature vector lies
	// inside the inclusive box [lo, hi].
	GatedSearchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(*Entry) bool) (int, Zone)
	// Label names the shard in traces: "mem" for the memory tier, the
	// segment file's basename for a disk segment.
	Label() string
}

// Zone is a shard's zone decision for one probe.
type Zone int8

const (
	// NoZone: the shard has no zone (the memory tier) and was scanned.
	NoZone Zone = iota
	// ZoneAdmitted: the segment's zone admitted the probe and its
	// columns were scanned.
	ZoneAdmitted
	// ZoneSkipped: the probe lies outside the segment's zone; its columns
	// were never touched.
	ZoneSkipped
)

// memShard is the memory tier as a filter shard: one pass over each of
// the snapshot's memory runs.
type memShard struct{ s *Snapshot }

func (m memShard) GatedSearchLocation(q geom.MBR, gate func([4]float64) bool, visit func(*Entry) bool) (int, Zone) {
	total := 0
	for i := range m.s.mem {
		n, stopped := m.s.mem[i].gatedSearchLocation(q, gate, visit)
		total += n
		if stopped {
			break
		}
	}
	return total, NoZone
}

func (m memShard) GatedSearchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(*Entry) bool) (int, Zone) {
	total := 0
	for i := range m.s.mem {
		n, stopped := m.s.mem[i].gatedSearchFeatures(lo, hi, gate, visit)
		total += n
		if stopped {
			break
		}
	}
	return total, NoZone
}

func (m memShard) Label() string { return "mem" }

// segShard is one disk segment as a filter shard. The range test and the
// gate both run off the segment's columnar scan, so gate rejections never
// materialize an Entry.
type segShard struct {
	seg  *segstore.Segment
	view *segstore.View
}

func (g segShard) GatedSearchLocation(q geom.MBR, gate func([4]float64) bool, visit func(*Entry) bool) (int, Zone) {
	live := 0
	_, admitted := g.seg.ZonedSearchLocation(q, nil, g.liveVisit(&live, gate, visit))
	return live, zoneOf(admitted)
}

func (g segShard) GatedSearchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(*Entry) bool) (int, Zone) {
	live := 0
	_, admitted := g.seg.ZonedSearchFeatures(lo, hi, nil, g.liveVisit(&live, gate, visit))
	return live, zoneOf(admitted)
}

// liveVisit wraps a shard visit as a segment visit: it skips tombstoned
// records, counts the live ones in *live, applies gate and materializes
// an Entry only for the survivors.
func (g segShard) liveVisit(live *int, gate func([4]float64) bool, visit func(*Entry) bool) func(segstore.Record) bool {
	return func(r segstore.Record) bool {
		if g.view.Dead(r.ID) {
			return true
		}
		*live++
		if gate != nil && !gate(r.Feat) {
			return true
		}
		return visit(segEntry(g.seg, r))
	}
}

func (g segShard) Label() string { return filepath.Base(g.seg.Path()) }

func zoneOf(admitted bool) Zone {
	if admitted {
		return ZoneAdmitted
	}
	return ZoneSkipped
}

// FilterShards splits the snapshot into its filter shards: the memory
// tier first, then one shard per disk segment in archive order.
func (s *Snapshot) FilterShards() []Shard {
	segs := s.segShards()
	shards := make([]Shard, 0, 1+len(segs))
	shards = append(shards, memShard{s})
	for _, sh := range segs {
		shards = append(shards, sh)
	}
	return shards
}

// segShards returns the disk tier's filter shards (nil for memory-only
// bases).
func (s *Snapshot) segShards() []segShard {
	if s.view == nil {
		return nil
	}
	segs := s.view.Segments()
	out := make([]segShard, len(segs))
	for i, seg := range segs {
		out[i] = segShard{seg: seg, view: s.view}
	}
	return out
}

// SearchLocation visits entries whose MBR intersects the query box: the
// disk segments (oldest history first), then the memory tier. Iteration
// stops early if visit returns false.
func (s *Snapshot) SearchLocation(q geom.MBR, visit func(*Entry) bool) {
	s.searchOldestFirst(visit, func(sh Shard, v func(*Entry) bool) { sh.GatedSearchLocation(q, nil, v) })
}

// SearchFeatures visits entries whose feature vector lies inside the
// inclusive hyper-rectangle [lo, hi], disk segments first, then the
// memory tier. Iteration stops early if visit returns false.
func (s *Snapshot) SearchFeatures(lo, hi [4]float64, visit func(*Entry) bool) {
	s.searchOldestFirst(visit, func(sh Shard, v func(*Entry) bool) { sh.GatedSearchFeatures(lo, hi, nil, v) })
}

// searchOldestFirst runs search over the disk shards in archive order,
// then the memory tier, until visit asks to stop.
func (s *Snapshot) searchOldestFirst(visit func(*Entry) bool, search func(Shard, func(*Entry) bool)) {
	stopped := false
	wrapped := func(e *Entry) bool {
		stopped = !visit(e)
		return !stopped
	}
	for _, sh := range s.segShards() {
		search(sh, wrapped)
		if stopped {
			return
		}
	}
	search(memShard{s}, wrapped)
}

// All visits every entry in FIFO order: the disk segments (all disk
// entries predate all memory entries — demotion always takes the oldest),
// then in-flight demotions (the oldest memory entries), then the live
// memory tier. Disk-resident
// entries are visited summary-free; call LoadSummary on them when the
// cells are needed. Iteration stops early if visit returns false.
func (s *Snapshot) All(visit func(*Entry) bool) {
	if s.view != nil {
		for _, seg := range s.view.Segments() {
			for _, r := range seg.Records() {
				if s.view.Dead(r.ID) {
					continue
				}
				if !visit(segEntry(seg, r)) {
					return
				}
			}
		}
	}
	for _, run := range s.mem {
		for _, e := range run.ents {
			if !visit(e) {
				return
			}
		}
	}
}
