package archive

import (
	"path/filepath"

	"streamsum/internal/geom"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
	"streamsum/internal/sumcache"
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
	mem   []columns       // in-flight demotions oldest first, then the live memory tier; ids ascend across them
	view  *segstore.View  // disk tier; nil for memory-only bases
	cache *sumcache.Cache // decoded-summary residency layer; nil when disabled
	count int             // live entries across both tiers
	bytes int             // live encoded bytes across both tiers
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
	s := &Snapshot{dim: b.cfg.Dim, cache: b.cache, count: b.count, bytes: b.bytes}
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
// features come from the segment footer; the summary loads lazily
// through the decoded-summary cache (keyed by the segment — immutable,
// so its decodes never go stale — and the record id). A nil cache means
// every load decodes from the segment. This closure is the single
// residency choke point: match refine, batch novelty probes, standing-
// query evaluation, Snapshot.Get and base dumps all load through it.
func segEntry(cache *sumcache.Cache, seg *segstore.Segment, r segstore.Record) *Entry {
	return &Entry{
		ID:       r.ID,
		MBR:      r.MBR,
		Features: sgs.FeaturesFromVector(r.Feat),
		Bytes:    int(r.Len),
		load: func() (*sgs.Summary, bool, error) {
			return cache.GetOrLoadHit(seg, r.ID, int(r.Len), func() (*sgs.Summary, error) {
				return seg.Load(r)
			})
		},
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
			e := segEntry(s.cache, seg, r)
			sum, err := e.LoadSummary()
			if err != nil {
				return nil
			}
			return e.WithSummary(sum)
		}
	}
	return nil
}

// memShard is the memory tier as a filter shard: one pass over each of
// the snapshot's memory runs.
type memShard struct{ s *Snapshot }

// SearchLocation visits memory-tier entries whose MBR intersects the
// query box. Iteration stops early if visit returns false.
func (m memShard) SearchLocation(q geom.MBR, visit func(*Entry) bool) {
	m.GatedSearchLocation(q, nil, visit)
}

// GatedSearchLocation visits memory-tier entries whose MBR intersects
// the query box and whose feature vector passes gate; it returns the
// number of live intersecting entries regardless of the gate.
func (m memShard) GatedSearchLocation(q geom.MBR, gate func([4]float64) bool, visit func(*Entry) bool) int {
	total := 0
	for i := range m.s.mem {
		n, stopped := m.s.mem[i].gatedSearchLocation(q, gate, visit)
		total += n
		if stopped {
			break
		}
	}
	return total
}

// SearchFeatures visits memory-tier entries whose feature vector lies
// inside [lo, hi]. Iteration stops early if visit returns false.
func (m memShard) SearchFeatures(lo, hi [4]float64, visit func(*Entry) bool) {
	m.GatedSearchFeatures(lo, hi, nil, visit)
}

// GatedSearchFeatures visits memory-tier entries whose feature vector
// lies inside [lo, hi] and passes gate; it returns the number of live
// in-range entries regardless of the gate.
func (m memShard) GatedSearchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(*Entry) bool) int {
	total := 0
	for i := range m.s.mem {
		n, stopped := m.s.mem[i].gatedSearchFeatures(lo, hi, gate, visit)
		total += n
		if stopped {
			break
		}
	}
	return total
}

// segShard is one disk segment as a filter shard, masked by the store
// tombstones pinned in the snapshot's view. Entries it surfaces load
// their summaries through the snapshot's decoded-summary cache.
type segShard struct {
	seg   *segstore.Segment
	view  *segstore.View
	cache *sumcache.Cache
}

// SearchLocation visits the segment's live records whose MBR intersects
// the query box.
func (g segShard) SearchLocation(q geom.MBR, visit func(*Entry) bool) {
	g.seg.SearchLocation(q, func(r segstore.Record) bool {
		if g.view.Dead(r.ID) {
			return true
		}
		return visit(segEntry(g.cache, g.seg, r))
	})
}

// SearchFeatures visits the segment's live records whose feature vector
// lies inside [lo, hi].
func (g segShard) SearchFeatures(lo, hi [4]float64, visit func(*Entry) bool) {
	g.seg.SearchFeatures(lo, hi, func(r segstore.Record) bool {
		if g.view.Dead(r.ID) {
			return true
		}
		return visit(segEntry(g.cache, g.seg, r))
	})
}

// GatedSearchLocation visits the segment's live records whose MBR
// intersects the query box and whose feature vector passes gate; it
// returns the number of live intersecting records regardless of the
// gate. On v3 segments the range test and the gate both run off the
// columnar scan, and gate rejections never materialize an Entry.
func (g segShard) GatedSearchLocation(q geom.MBR, gate func([4]float64) bool, visit func(*Entry) bool) int {
	probed := 0
	g.seg.GatedSearchLocation(q, nil, func(r segstore.Record) bool {
		if g.view.Dead(r.ID) {
			return true
		}
		probed++
		if gate != nil && !gate(r.Feat) {
			return true
		}
		return visit(segEntry(g.cache, g.seg, r))
	})
	return probed
}

// GatedSearchFeatures visits the segment's live records whose feature
// vector lies inside [lo, hi] and passes gate; it returns the number of
// live in-range records regardless of the gate.
func (g segShard) GatedSearchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(*Entry) bool) int {
	probed := 0
	g.seg.GatedSearchFeatures(lo, hi, nil, func(r segstore.Record) bool {
		if g.view.Dead(r.ID) {
			return true
		}
		probed++
		if gate != nil && !gate(r.Feat) {
			return true
		}
		return visit(segEntry(g.cache, g.seg, r))
	})
	return probed
}

// ZoneIntersectsLocation reports whether the query box can intersect
// the segment's zone (the union MBR of its records). A false answer is
// exactly the condition under which the segment's own gated search
// skips the whole scan; exposing it separately lets per-query tracing
// attribute skips without re-running the probe.
func (g segShard) ZoneIntersectsLocation(q geom.MBR) bool {
	mbr, _, _ := g.seg.Zone()
	return mbr.Intersects(q)
}

// ZoneIntersectsFeatures reports whether the feature range [lo, hi] can
// intersect the segment's per-feature zone bounds; see
// ZoneIntersectsLocation for the tracing contract.
func (g segShard) ZoneIntersectsFeatures(lo, hi [4]float64) bool {
	_, fmin, fmax := g.seg.Zone()
	for d := 0; d < 4; d++ {
		if hi[d] < fmin[d] || lo[d] > fmax[d] {
			return false
		}
	}
	return true
}

// ShardInfo identifies a filter shard for per-query span tracing by a
// human-readable label: the segment file's basename, or "mem" for the
// memory tier. Purely descriptive — it never affects matching.
type ShardInfo interface {
	ShardInfo() (label string)
}

// ShardInfo labels the memory-tier shard.
func (m memShard) ShardInfo() string { return "mem" }

// ShardInfo labels a disk-segment shard with its file basename.
func (g segShard) ShardInfo() string { return filepath.Base(g.seg.Path()) }

// ZoneSearcher is implemented by disk-segment filter shards: a cheap,
// probe-free answer to "could this query touch the shard at all?",
// mirroring the zone test the shard's own gated searches apply. The
// matcher type-asserts for it to count segments probed vs skipped per
// query; shards without zones (the memory tier) simply don't implement
// it.
type ZoneSearcher interface {
	ZoneIntersectsLocation(q geom.MBR) bool
	ZoneIntersectsFeatures(lo, hi [4]float64) bool
}

// FilterShards splits the snapshot into independently searchable filter
// shards: the memory tier first, then one shard per disk segment in
// archive order. Shards are disjoint (an id appears in exactly one) and
// each is safe for concurrent probing, so a matcher may fan its filter
// phase out across them — internal/match does exactly that.
func (s *Snapshot) FilterShards() []Searcher {
	segs := s.segShards()
	shards := make([]Searcher, 0, 1+len(segs))
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
		out[i] = segShard{seg: seg, view: s.view, cache: s.cache}
	}
	return out
}

// SearchLocation visits entries whose MBR intersects the query box: the
// disk segments (oldest history first), then the memory tier. Iteration
// stops early if visit returns false.
func (s *Snapshot) SearchLocation(q geom.MBR, visit func(*Entry) bool) {
	stopped := false
	wrapped := func(e *Entry) bool {
		stopped = !visit(e)
		return !stopped
	}
	for _, sh := range s.segShards() {
		sh.SearchLocation(q, wrapped)
		if stopped {
			return
		}
	}
	memShard{s}.SearchLocation(q, wrapped)
}

// SearchFeatures visits entries whose feature vector lies inside the
// inclusive hyper-rectangle [lo, hi], disk segments first, then the
// memory tier. Iteration stops early if visit returns false.
func (s *Snapshot) SearchFeatures(lo, hi [4]float64, visit func(*Entry) bool) {
	stopped := false
	wrapped := func(e *Entry) bool {
		stopped = !visit(e)
		return !stopped
	}
	for _, sh := range s.segShards() {
		sh.SearchFeatures(lo, hi, wrapped)
		if stopped {
			return
		}
	}
	memShard{s}.SearchFeatures(lo, hi, wrapped)
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
				if !visit(segEntry(s.cache, seg, r)) {
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
