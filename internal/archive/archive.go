package archive

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sync"

	"streamsum/internal/featidx"
	"streamsum/internal/geom"
	"streamsum/internal/rtree"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
	"streamsum/internal/sumcache"
)

// Config controls archiving policy.
type Config struct {
	// Dim is the data-space dimensionality (required).
	Dim int
	// Level is the resolution level to archive at (0 = basic SGS).
	Level int
	// Theta is the compression rate between resolution levels (>= 2;
	// ignored when Level == 0 and ByteBudget == 0).
	Theta int
	// ByteBudget, when positive, overrides Level: each summary is stored
	// at the finest level whose encoding fits the budget (§6.1).
	ByteBudget int
	// SampleRate archives only this fraction of offered clusters
	// (selective archiving by sampling, §6.2). 0 or 1 keeps everything.
	SampleRate float64
	// MinPopulation drops clusters with fewer member objects (selective
	// archiving by feature, §6.2). 0 keeps everything.
	MinPopulation int
	// MinCells drops clusters whose SGS has fewer cells. 0 keeps all.
	MinCells int
	// Capacity bounds the number of archived clusters; once full, the
	// oldest archived cluster is evicted (0 = unlimited). With a disk
	// tier attached (StorePath), eviction demotes to disk instead of
	// deleting, so Capacity bounds the memory tier's entry count while
	// the archived history keeps growing on disk.
	Capacity int
	// Seed makes sampling reproducible.
	Seed int64

	// StorePath, when non-empty, attaches a disk tier (internal/segstore)
	// rooted at this directory: entries demoted from the memory tier are
	// flushed as immutable on-disk segments and remain fully matchable.
	// Reopening a base over an existing store resumes with the on-disk
	// history visible and id assignment continuing past it.
	StorePath string
	// MaxMemBytes bounds the memory tier's encoded summary bytes; when a
	// Put would exceed it, the oldest entries are demoted to the disk
	// tier (requires StorePath). 0 means no byte bound.
	MaxMemBytes int
	// StoreSegmentBytes overrides the disk tier's compaction target
	// segment size (0 = segstore default). Mostly for tests and
	// benchmarks that need a specific segment layout.
	StoreSegmentBytes int
	// SummaryCacheBytes bounds the decoded-summary cache
	// (internal/sumcache): disk-resident summaries decoded by
	// Entry.LoadSummary stay resident — charged at their encoded size,
	// the same unit as MaxMemBytes — until evicted LRU, so repeated
	// queries decode each summary once per residency instead of once per
	// query. Requires StorePath. With MaxMemBytes set the cache's budget
	// is carved out of it (memory tier demotes down to MaxMemBytes -
	// SummaryCacheBytes, so tier + cache together stay under the one
	// bound) and must therefore be smaller than MaxMemBytes. 0 disables
	// the cache; every load then decodes from disk.
	SummaryCacheBytes int
	// Logger receives background diagnostics (demotion flush failures,
	// correlated with their flight-recorder trace ids). Nil discards
	// them.
	Logger *slog.Logger
}

// Entry is one archived cluster. Entries are immutable once archived:
// they are shared by reference between the base and every snapshot, and
// no field is ever modified after Put returns.
//
// For memory-tier entries Summary is always non-nil. Entries surfaced
// from the disk tier by the filter-phase searches carry only the
// footer-indexed features (ID, MBR, Features, Bytes) and a nil Summary;
// call LoadSummary to read the cells from disk. Get and All-visited
// entries follow the same contract, so code that never configures a
// StorePath never observes a nil Summary.
type Entry struct {
	ID       int64
	Summary  *sgs.Summary
	MBR      geom.MBR
	Features sgs.Features
	// Bytes is the summary's encoded size, maintained so the archive can
	// report its exact storage footprint (Fig. 8's memory metric).
	Bytes int

	// load reads a disk-resident summary (nil for memory-tier entries);
	// the bool reports whether the decoded-summary cache served it.
	load func() (*sgs.Summary, bool, error)
}

// LoadSummary returns the entry's summary, reading it from the disk tier
// when the entry is disk-resident. With a decoded-summary cache
// configured (Config.SummaryCacheBytes) the read consults the residency
// layer first — concurrent loads of one record singleflight into one
// decode, and repeated loads hit until eviction. Without one, repeated
// calls repeat the read, keeping resident memory bounded by what callers
// actually hold. Either way the returned summary is shared and immutable:
// callers must never mutate it (the same contract memory-tier summaries
// already carry).
func (e *Entry) LoadSummary() (*sgs.Summary, error) {
	sum, _, err := e.LoadSummaryTracked()
	return sum, err
}

// LoadSummaryTracked is LoadSummary plus residency attribution: it
// additionally reports whether the summary came from the decoded-summary
// cache (true) rather than a disk decode or the memory tier (false).
// Per-query tracing uses it to split refine-phase reads into cache hits
// and disk loads.
func (e *Entry) LoadSummaryTracked() (*sgs.Summary, bool, error) {
	if e.Summary != nil {
		return e.Summary, false, nil
	}
	if e.load == nil {
		return nil, false, fmt.Errorf("archive: entry %d has no summary source", e.ID)
	}
	return e.load()
}

// WithSummary returns a copy of the entry with the given summary
// materialized (the original stays summary-free so shared disk-tier
// entries never grow resident state).
func (e *Entry) WithSummary(sum *sgs.Summary) *Entry {
	if e.Summary == sum {
		return e
	}
	c := *e
	c.Summary = sum
	return &c
}

// generation is the frozen, fully indexed portion of the base. A
// generation is immutable once published: its indices are only ever
// traversed after publication, never mutated, so any number of snapshot
// readers may search them concurrently without synchronization (the
// read-only traversal contract documented in internal/rtree and
// internal/featidx).
type generation struct {
	entries map[int64]*Entry
	order   []int64 // FIFO
	loc     *rtree.Tree
	feat    *featidx.Index
}

func newGeneration(dim int) *generation {
	return &generation{
		entries: make(map[int64]*Entry),
		loc:     rtree.New(dim),
		feat:    featidx.New(),
	}
}

// Base is the pattern base. It is safe for concurrent use: any number of
// extractor shards append (Put/PutBatch/Remove) while analysts run
// matching queries against read-only snapshots.
//
// Internally the base is generational: a frozen, index-backed generation
// absorbs the bulk of the archive, recent mutations accumulate in a small
// unindexed delta (appends) plus a tombstone set (removals), and the
// writer folds both into a fresh generation once they outgrow an
// amortized threshold. Queries never traverse live indices — they pin a
// Snapshot, so a mutation never blocks on a reader and a reader never
// observes a half-applied write.
type Base struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	logger *slog.Logger
	nextID int64

	frozen      *generation
	frozenEvict int                // frozen.order index of the next FIFO eviction/demotion candidate
	delta       []*Entry           // archived since the last rebuild, FIFO, unindexed
	dead        map[int64]struct{} // frozen ids removed (or demoted to disk) since the last rebuild
	count       int                // live entries across both tiers
	bytes       int                // live encoded bytes across both tiers
	memCount    int                // live entries in the memory tier (excluding in-flight demotions)
	memBytes    int                // live encoded bytes in the memory tier (excluding in-flight demotions)
	memBudget   int                // memory-tier byte bound: MaxMemBytes minus the cache's share (0 = unbounded)
	store       *segstore.Store    // disk tier; nil when StorePath is unset
	cache       *sumcache.Cache    // decoded-summary residency layer; nil when disabled
	snap        *Snapshot          // cached read view; nil after any mutation

	// Background demoter state (store-backed bases only). Batches queue
	// in demotePending; the demoter goroutine writes and fsyncs each
	// batch's segment entirely outside b.mu, so PutBatch and snapshot
	// readers never stall behind the payload I/O. Entries of a pending
	// batch stay snapshot-visible through the batch until its segment
	// commits.
	demotePending []*demoteBatch
	demoteCond    *sync.Cond // signaled on queue and demoter state changes; guarded by mu
	demoteStop    bool       // Close requested: drain and exit
	demoteExited  bool       // the demoter goroutine has returned
	demoteErr     error      // first background demotion failure (fail-stop: latched, surfaced by Put)
}

// New returns an empty pattern base.
func New(cfg Config) (*Base, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("archive: dimension required")
	}
	if cfg.Level < 0 {
		return nil, fmt.Errorf("archive: negative level")
	}
	if (cfg.Level > 0 || cfg.ByteBudget > 0) && cfg.Theta < 2 {
		return nil, fmt.Errorf("archive: compression requires theta >= 2, got %d", cfg.Theta)
	}
	if cfg.SampleRate < 0 || cfg.SampleRate > 1 {
		return nil, fmt.Errorf("archive: sample rate %g out of [0,1]", cfg.SampleRate)
	}
	if cfg.MaxMemBytes > 0 && cfg.StorePath == "" {
		return nil, fmt.Errorf("archive: MaxMemBytes requires StorePath")
	}
	if cfg.SummaryCacheBytes > 0 && cfg.StorePath == "" {
		return nil, fmt.Errorf("archive: SummaryCacheBytes requires StorePath (memory-tier entries are already decoded)")
	}
	if cfg.MaxMemBytes > 0 && cfg.SummaryCacheBytes >= cfg.MaxMemBytes {
		return nil, fmt.Errorf("archive: SummaryCacheBytes %d must be below MaxMemBytes %d (tier and cache share that bound)",
			cfg.SummaryCacheBytes, cfg.MaxMemBytes)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	b := &Base{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		logger: logger,
		frozen: newGeneration(cfg.Dim),
		dead:   make(map[int64]struct{}),
	}
	if cfg.StorePath != "" {
		// The cache share is carved out of MaxMemBytes up front (not
		// tracked live) so the sum of memory-tier bytes and cache
		// residency is bounded at all times, not just at demotion points.
		// With the cache disabled (zero budget) the memory tier gets the
		// whole bound back.
		b.cache = sumcache.New(cfg.SummaryCacheBytes)
		if cfg.MaxMemBytes > 0 {
			b.memBudget = cfg.MaxMemBytes - b.cache.Budget()
		}
		sopts := segstore.Options{
			Dim:                cfg.Dim,
			TargetSegmentBytes: cfg.StoreSegmentBytes,
		}
		if b.cache != nil {
			// Compaction rewrites records into fresh segments; the retired
			// sources' cached decodes are stale keys that would otherwise
			// hold bytes (and pin mappings) until LRU pressure found them.
			cache := b.cache
			sopts.OnRetire = func(seg *segstore.Segment) { cache.InvalidateOwner(seg) }
		}
		st, err := segstore.Open(cfg.StorePath, sopts)
		if err != nil {
			return nil, err
		}
		b.store = st
		b.nextID = st.MaxID() + 1
		v := st.View()
		b.count = v.Len()
		b.bytes = v.Bytes()
		b.demoteCond = sync.NewCond(&b.mu)
		go b.demoteLoop()
	}
	return b, nil
}

// Close stops the background demoter (after it drains any queued
// demotion batches) and releases the disk tier (stops its compactor and
// closes segment files); the memory tier needs no teardown. Snapshots
// taken earlier must not be used afterwards. Close is a no-op for
// memory-only bases.
func (b *Base) Close() error {
	b.mu.Lock()
	if b.store == nil {
		b.mu.Unlock()
		return nil
	}
	b.demoteStop = true
	b.demoteCond.Broadcast()
	for !b.demoteExited {
		b.demoteCond.Wait()
	}
	b.snap = nil
	store := b.store
	b.mu.Unlock()
	return store.Close()
}

// Config returns the archiving policy.
func (b *Base) Config() Config { return b.cfg }

// Dim returns the dimensionality of the data space (Config.Dim): every
// archived summary has it, and a matching target must.
func (b *Base) Dim() int { return b.cfg.Dim }

// Len returns the number of archived clusters.
func (b *Base) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// Bytes returns the total encoded size of all archived summaries.
func (b *Base) Bytes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes
}

// validatePut checks a summary before it is offered to the selection
// policy. It reads only the immutable config, so callers may invoke it
// with or without the base lock held.
func (b *Base) validatePut(s *sgs.Summary) error {
	if s == nil || s.NumCells() == 0 {
		return fmt.Errorf("archive: empty summary")
	}
	if s.Dim != b.cfg.Dim {
		return fmt.Errorf("archive: summary dimension %d != base dimension %d", s.Dim, b.cfg.Dim)
	}
	return nil
}

// Put offers one extracted cluster summary to the archiver. It returns the
// archive id and true if the cluster was archived, or false if the
// selection policy skipped it. The summary is cloned/compressed; the
// caller's copy is never retained.
func (b *Base) Put(s *sgs.Summary) (int64, bool, error) {
	if err := b.validatePut(s); err != nil {
		return 0, false, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.putLocked(s)
}

// PutBatch offers a window's worth of summaries with semantics identical
// to calling Put for each in order (same policy decisions, same ids, same
// evictions), but under a single base lock acquisition — the engine's
// per-window append path, where per-cluster locking would multiply
// contention with concurrent analysts. It returns the per-
// summary archive ids and archived flags. On error the prefix already
// archived stays archived (exactly as a sequential Put loop would leave
// it) and the returned slices cover that prefix.
func (b *Base) PutBatch(ss []*sgs.Summary) (ids []int64, archived []bool, err error) {
	ids = make([]int64, 0, len(ss))
	archived = make([]bool, 0, len(ss))
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range ss {
		if err := b.validatePut(s); err != nil {
			return ids, archived, err
		}
		id, ok, err := b.putLocked(s)
		if err != nil {
			return ids, archived, err
		}
		ids = append(ids, id)
		archived = append(archived, ok)
	}
	return ids, archived, nil
}

func (b *Base) putLocked(s *sgs.Summary) (int64, bool, error) {
	// A failed background demotion means the base can no longer honor its
	// memory bound; like a failed Appender it latches and fail-stops
	// rather than silently growing past the cap.
	if b.demoteErr != nil {
		return 0, false, b.demoteErr
	}
	// Selective archiving (§6.2).
	if b.cfg.MinPopulation > 0 && s.TotalPopulation() < b.cfg.MinPopulation {
		return 0, false, nil
	}
	if b.cfg.MinCells > 0 && s.NumCells() < b.cfg.MinCells {
		return 0, false, nil
	}
	if b.cfg.SampleRate > 0 && b.cfg.SampleRate < 1 && b.rng.Float64() >= b.cfg.SampleRate {
		return 0, false, nil
	}

	// Resolution selection (§6.1).
	stored, err := b.selectResolution(s)
	if err != nil {
		return 0, false, err
	}

	id := b.nextID
	b.nextID++
	stored.ID = id
	e := &Entry{
		ID:       id,
		Summary:  stored,
		MBR:      stored.MBR(),
		Features: stored.Features(),
		Bytes:    sgs.EncodedSize(stored),
	}
	if e.MBR.IsEmpty() {
		return 0, false, fmt.Errorf("archive: summary has empty MBR")
	}
	// Fold before committing the entry: a fold error then reports a
	// genuinely un-archived summary (the error path is unreachable for
	// entries that passed the validation above, but the contract — Put
	// fails means not archived — must not depend on that).
	if err := b.maybeRebuildLocked(); err != nil {
		return 0, false, err
	}
	// Hand overflow to the demoter before committing the entry: the
	// batch leaves the memory-tier accounting here, the flush itself
	// happens in the background (a flush failure surfaces on a LATER
	// Put via the latched error — see demoteLoop — not this one).
	if err := b.demoteLocked(e.Bytes); err != nil {
		return 0, false, err
	}
	b.delta = append(b.delta, e)
	b.count++
	b.bytes += e.Bytes
	b.memCount++
	b.memBytes += e.Bytes
	b.snap = nil

	if b.store == nil && b.cfg.Capacity > 0 {
		for b.count > b.cfg.Capacity {
			b.evictOldestLocked()
		}
	}
	return id, true, nil
}

// demoteLocked hands the oldest memory-tier entries to the background
// demoter when admitting an entry of incoming bytes would push the
// memory tier past its byte budget (MaxMemBytes minus the decoded-
// summary cache's share) or Capacity. It demotes down to 7/8 of the
// violated bound (hysteresis: one segment absorbs many Puts). The
// batch's entries leave the memory-tier accounting immediately but stay
// snapshot-visible until their segment commits, so queries never observe
// a gap; the segment write and fsync happen on the demoter goroutine,
// outside the base lock.
func (b *Base) demoteLocked(incoming int) error {
	if b.store == nil {
		return nil
	}
	overBytes := b.memBudget > 0 && b.memBytes+incoming > b.memBudget
	overCount := b.cfg.Capacity > 0 && b.memCount+1 > b.cfg.Capacity
	if !overBytes && !overCount {
		return nil
	}
	byteGoal, countGoal := -1, -1
	if b.memBudget > 0 {
		// Clamp at 0: an incoming entry near (or beyond) the whole budget
		// must demote everything resident, not disable the bound — a
		// negative goal would read as the "unbounded" sentinel below.
		byteGoal = max(b.memBudget-b.memBudget/8-incoming, 0)
	}
	if b.cfg.Capacity > 0 {
		countGoal = max(b.cfg.Capacity-b.cfg.Capacity/8-1, 0)
	}
	batch := b.collectDemotionLocked(byteGoal, countGoal)
	if batch == nil {
		return nil
	}
	// Enqueue before applying backpressure so queue order always equals
	// collection (entry age) order — segments must stay FIFO.
	b.demotePending = append(b.demotePending, batch)
	b.demoteCond.Broadcast()
	// Backpressure: with the disk persistently slower than ingest, the
	// pending queue would otherwise grow without bound — beyond a few
	// batches the writer waits for the demoter, reintroducing the stall
	// only under sustained overload.
	for len(b.demotePending) > maxPendingDemotions && b.demoteErr == nil {
		b.demoteCond.Wait()
	}
	return b.demoteErr
}

// collectDemotionLocked selects the oldest memory-tier entries until the
// tier is within the goals (a negative goal means unbounded; goals of 0
// take everything), removes them from the memory-tier accounting, and
// returns them as one FIFO demotion batch — ready to flush as a segment,
// preserving the tier invariant that every disk entry predates every
// memory entry. It returns nil when nothing needs to move.
func (b *Base) collectDemotionLocked(byteGoal, countGoal int) *demoteBatch {
	batch := &demoteBatch{frozenEvictBefore: b.frozenEvict}
	cur := b.frozenEvict
	deltaTaken := 0
	over := func() bool {
		if byteGoal >= 0 && b.memBytes-batch.bytes > byteGoal {
			return true
		}
		if countGoal >= 0 && b.memCount-batch.count > countGoal {
			return true
		}
		return false
	}
	for over() && batch.count < b.memCount {
		var e *Entry
		for cur < len(b.frozen.order) {
			id := b.frozen.order[cur]
			cur++
			if _, gone := b.dead[id]; gone {
				continue
			}
			e = b.frozen.entries[id]
			batch.frozenIDs = append(batch.frozenIDs, id)
			break
		}
		if e == nil {
			if deltaTaken >= len(b.delta) {
				break
			}
			e = b.delta[deltaTaken]
			deltaTaken++
		}
		// Only the selection happens here; serializing the summaries
		// (flushEntries) is deferred to the flusher, off this lock —
		// entries are immutable, so the encoding needs no protection.
		batch.entries = append(batch.entries, e)
		batch.count++
		batch.bytes += e.Bytes
	}
	if batch.count == 0 {
		return nil
	}
	batch.deltaEnts = b.delta[:deltaTaken]
	for _, id := range batch.frozenIDs {
		b.dead[id] = struct{}{}
	}
	b.frozenEvict = cur
	b.delta = b.delta[deltaTaken:]
	b.memCount -= batch.count
	b.memBytes -= batch.bytes
	b.snap = nil
	// Totals are unchanged: the entries are moving tiers, not dying. The
	// tombstones above are memory-tier bookkeeping only.
	return batch
}

// FlushMem demotes the entire memory tier to the disk tier (one final
// segment), making the store alone a complete record of the archived
// history — the shutdown path for store-backed daemons. It first drains
// any in-flight background demotions, then flushes synchronously. It
// requires a disk tier.
func (b *Base) FlushMem() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.store == nil {
		return fmt.Errorf("archive: FlushMem requires a disk tier (StorePath)")
	}
	for len(b.demotePending) > 0 {
		b.demoteCond.Wait()
	}
	if b.demoteErr != nil {
		return b.demoteErr
	}
	batch := b.collectDemotionLocked(0, 0)
	if batch == nil {
		return nil
	}
	if err := b.store.Flush(batch.flushEntries()); err != nil {
		b.restoreDemotionsLocked([]*demoteBatch{batch}, nil)
		return err
	}
	return b.maybeRebuildLocked()
}

// selectResolution applies §6.1: fixed level, or finest level fitting the
// byte budget.
func (b *Base) selectResolution(s *sgs.Summary) (*sgs.Summary, error) {
	if b.cfg.ByteBudget > 0 {
		cur := s.Clone()
		// Compress until the encoding fits; a single-cell summary is the
		// coarsest possible representation, so the loop always terminates.
		for i := 0; i < 64 && sgs.EncodedSize(cur) > b.cfg.ByteBudget && cur.NumCells() > 1; i++ {
			next, err := cur.Compress(b.cfg.Theta)
			if err != nil {
				return nil, err
			}
			cur = next
		}
		return cur, nil
	}
	if b.cfg.Level == 0 {
		return s.Clone(), nil
	}
	return s.CompressTo(b.cfg.Level, b.cfg.Theta)
}

// evictOldestLocked removes the oldest live entry (FIFO) — the
// memory-only capacity policy; store-backed bases demote instead. All
// frozen entries predate all delta entries, so the candidate is the
// first non-tombstoned frozen id, falling back to the delta head once
// the frozen generation is exhausted.
func (b *Base) evictOldestLocked() {
	for b.frozenEvict < len(b.frozen.order) {
		id := b.frozen.order[b.frozenEvict]
		b.frozenEvict++
		if _, gone := b.dead[id]; gone {
			continue
		}
		e := b.frozen.entries[id]
		b.dead[id] = struct{}{}
		b.count--
		b.bytes -= e.Bytes
		b.memCount--
		b.memBytes -= e.Bytes
		return
	}
	if len(b.delta) > 0 {
		e := b.delta[0]
		b.delta = b.delta[1:]
		b.count--
		b.bytes -= e.Bytes
		b.memCount--
		b.memBytes -= e.Bytes
	}
}

// Get returns the archived entry with the given id, or nil. It reads
// through the (cached) snapshot so its visibility always matches what
// searches see.
func (b *Base) Get(id int64) *Entry {
	return b.Snapshot().Get(id)
}

// Remove deletes an archived cluster from whichever tier holds it. It
// returns true if it existed. Disk-tier removals persist a tombstone in
// the store manifest; the bytes are reclaimed by a later compaction. An
// id that is part of an in-flight demotion batch is removed after that
// batch resolves (Remove briefly waits for the demoter).
func (b *Base) Remove(id int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.pendingDemotionHasLocked(id) {
		b.demoteCond.Wait()
	}
	if _, gone := b.dead[id]; gone {
		// Dead in the memory tier means removed or demoted; a demoted id
		// lives on in the store and can still be removed from there.
		return b.removeFromStoreLocked(id)
	}
	if e, ok := b.frozen.entries[id]; ok {
		b.dead[id] = struct{}{}
		b.count--
		b.bytes -= e.Bytes
		b.memCount--
		b.memBytes -= e.Bytes
		b.snap = nil
		// A failed fold here would only delay compaction, never lose the
		// removal (the tombstone is already recorded).
		_ = b.maybeRebuildLocked()
		return true
	}
	for i, e := range b.delta {
		if e.ID == id {
			b.delta = append(b.delta[:i], b.delta[i+1:]...)
			b.count--
			b.bytes -= e.Bytes
			b.memCount--
			b.memBytes -= e.Bytes
			b.snap = nil
			return true
		}
	}
	return b.removeFromStoreLocked(id)
}

func (b *Base) removeFromStoreLocked(id int64) bool {
	if b.store == nil {
		return false
	}
	rec, ok := b.store.Find(id)
	if !ok {
		return false
	}
	ok, err := b.store.Tombstone(id)
	if err != nil || !ok {
		return false
	}
	// A removed record is never legitimately loaded again; drop its
	// cached decode now rather than letting it occupy budget until LRU
	// pressure finds it.
	b.cache.InvalidateID(id)
	b.count--
	b.bytes -= int(rec.Len)
	b.snap = nil
	return true
}

// rebuildLimitLocked is the pending-mutation threshold beyond which the
// writer folds delta + tombstones into a fresh frozen generation. Scaling
// with the live population amortizes the O(n) fold to O(1) index work per
// mutation; the cap bounds the linear delta scan every query pays. The
// scan checks one MBR or feature vector per delta entry — microseconds
// even at the cap, noise next to the refine phase — so the threshold
// leans generous to keep the append path cheap (a capacity-bounded base
// generates two pending mutations per Put: the append and the eviction
// tombstone).
func (b *Base) rebuildLimitLocked() int {
	limit := 64 + b.memCount/2
	if limit > 4096 {
		limit = 4096
	}
	return limit
}

func (b *Base) maybeRebuildLocked() error {
	// Never fold while demotion batches are in flight: the failure path
	// restores frozen-origin entries by un-tombstoning their ids, which
	// requires the frozen generation to still be the one they were
	// collected from. The demoter retries the fold once the queue drains.
	if len(b.demotePending) > 0 {
		return nil
	}
	if len(b.delta)+len(b.dead) <= b.rebuildLimitLocked() {
		return nil
	}
	return b.rebuildLocked()
}

// rebuildLocked publishes a fresh generation holding every live entry in
// FIFO order. The old generation is never mutated — snapshots pinned to
// it stay valid and simply age.
func (b *Base) rebuildLocked() error {
	g := newGeneration(b.cfg.Dim)
	g.order = make([]int64, 0, b.memCount)
	add := func(e *Entry) error {
		if err := g.loc.Insert(e.ID, e.MBR); err != nil {
			return err
		}
		g.feat.Insert(e.ID, e.Features.Vector())
		g.entries[e.ID] = e
		g.order = append(g.order, e.ID)
		return nil
	}
	for _, id := range b.frozen.order {
		if _, gone := b.dead[id]; gone {
			continue
		}
		if err := add(b.frozen.entries[id]); err != nil {
			return err
		}
	}
	for _, e := range b.delta {
		if err := add(e); err != nil {
			return err
		}
	}
	b.frozen = g
	b.frozenEvict = 0
	b.delta = nil
	b.dead = make(map[int64]struct{})
	b.snap = nil
	return nil
}

// SearchLocation visits archived entries whose MBR intersects the query
// box (the position-sensitive filter phase). The callback runs against a
// snapshot — never under the base lock — so it may freely call Put,
// Remove, or further searches; mutations it makes are not reflected in
// the iteration in progress.
func (b *Base) SearchLocation(q geom.MBR, visit func(*Entry) bool) {
	b.Snapshot().SearchLocation(q, visit)
}

// SearchFeatures visits archived entries whose feature vector lies inside
// [lo, hi] (the non-position-sensitive filter phase). The callback runs
// against a snapshot; see SearchLocation for the reentrancy contract.
func (b *Base) SearchFeatures(lo, hi [4]float64, visit func(*Entry) bool) {
	b.Snapshot().SearchFeatures(lo, hi, visit)
}

// All visits every archived entry in FIFO order (diagnostics,
// persistence, linear-scan baselines). The callback runs against a
// snapshot; see SearchLocation for the reentrancy contract.
func (b *Base) All(visit func(*Entry) bool) {
	b.Snapshot().All(visit)
}

// Searcher is one filter-phase shard of the pattern base: something the
// matcher can probe for location or feature candidates. A Snapshot's
// FilterShards splits the base into one memory-tier shard plus one per
// disk segment, each independently searchable, so the filter phase can
// fan out across them in parallel.
type Searcher interface {
	SearchLocation(q geom.MBR, visit func(*Entry) bool)
	SearchFeatures(lo, hi [4]float64, visit func(*Entry) bool)
}

// GatedSearcher is a Searcher that can additionally run a cheap exact
// gate over the candidate's feature vector between the range test and
// the visit, and report how many live entries passed the range test
// regardless of the gate (the filter-phase candidate count). Pushing the
// gate below the visit lets disk shards reject candidates straight off
// their columnar scan without materializing an Entry per rejection; the
// matcher type-asserts for this and falls back to plain Search* plus an
// outer gate otherwise. A nil gate admits everything. Iteration stops
// early if visit returns false (the returned count is then partial).
type GatedSearcher interface {
	Searcher
	GatedSearchLocation(q geom.MBR, gate func([4]float64) bool, visit func(*Entry) bool) int
	GatedSearchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(*Entry) bool) int
}

// TierStats reports the split of the archived population across the
// memory and disk tiers (monitoring endpoints, bounded-memory tests).
type TierStats struct {
	// Memory tier.
	MemEntries int
	MemBytes   int
	// In-flight demotions: entries handed to the background demoter
	// whose segment has not yet committed. They have left the memory
	// tier's accounting but are still resident (and snapshot-visible);
	// a batch that commits moves them into the Seg* totals. While a
	// batch is between its commit and its dequeue these counts briefly
	// overlap Seg* — treat them as monitoring-grade.
	DemotingEntries int
	DemotingBytes   int
	DemotingBatches int // queued demotion batches (demoter queue depth)
	// Disk tier (all zero for memory-only bases).
	Segments    int
	SegEntries  int // live records
	SegBytes    int // live encoded bytes
	SegDead     int // tombstoned records awaiting compaction
	Compactions uint64
	// Segments serving reads from a memory mapping (vs the pread fallback).
	SegmentsMapped int
	// Decoded-summary cache (internal/sumcache); all zero when the cache
	// is disabled. CacheBytes is the resident encoded-size charge and,
	// with MaxMemBytes set, shares that bound with MemBytes (the memory
	// tier demotes down to MaxMemBytes - CacheBudget).
	CacheHits    uint64
	CacheMisses  uint64
	CacheEvicted uint64
	CacheEntries int
	CacheBytes   int
	CacheBudget  int
}

// TierStats returns the current tier split.
func (b *Base) TierStats() TierStats {
	b.mu.Lock()
	ts := TierStats{MemEntries: b.memCount, MemBytes: b.memBytes}
	for _, batch := range b.demotePending {
		ts.DemotingEntries += batch.count
		ts.DemotingBytes += batch.bytes
	}
	ts.DemotingBatches = len(b.demotePending)
	store, cache := b.store, b.cache
	b.mu.Unlock()
	if store != nil {
		s := store.Stats()
		ts.Segments = s.Segments
		ts.SegEntries = s.LiveRecords
		ts.SegBytes = s.LiveBytes
		ts.SegDead = s.Records - s.LiveRecords
		ts.Compactions = s.Compactions
		ts.SegmentsMapped = s.SegmentsMapped
	}
	if cache != nil {
		cs := cache.Stats()
		ts.CacheHits = cs.Hits
		ts.CacheMisses = cs.Misses
		ts.CacheEvicted = cs.Evicted
		ts.CacheEntries = cs.Entries
		ts.CacheBytes = int(cs.Bytes)
		ts.CacheBudget = cache.Budget()
	}
	return ts
}
