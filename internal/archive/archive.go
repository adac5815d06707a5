package archive

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sync"

	"streamsum/internal/geom"
	"streamsum/internal/segstore"
	"streamsum/internal/sgs"
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
	// Capacity bounds the number of archived clusters; once full, the
	// oldest archived cluster is evicted (0 = unlimited; negative is
	// rejected). With a disk tier attached (StorePath), eviction demotes
	// to disk instead of deleting, so Capacity bounds the memory tier's
	// entry count while the archived history keeps growing on disk.
	Capacity int
	// Seed makes sampling reproducible.
	Seed int64

	// StorePath, when non-empty, attaches a disk tier (internal/segstore)
	// rooted at this directory: entries demoted from the memory tier are
	// flushed as immutable on-disk segments and remain fully matchable.
	// Reopening a base over an existing store resumes with the on-disk
	// history visible and id assignment continuing past it.
	StorePath string
	// MaxMemBytes bounds the memory tier's summary bytes, counted in
	// encoded bytes (sgs.EncodedSize); when a Put would exceed it, the
	// oldest entries are demoted to the disk tier (requires StorePath).
	// A GMTI summary takes about 27 bytes of heap per encoded byte as the
	// memory tier holds it (31 when decoded from disk), so the tier's
	// resident heap is roughly 30 times this bound. 0 means no byte
	// bound; negative is rejected.
	MaxMemBytes int
	// StoreSegmentBytes overrides the disk tier's compaction target
	// segment size (0 = segstore default). Mostly for tests and
	// benchmarks that need a specific segment layout.
	StoreSegmentBytes int
	// SummaryCacheBytes is accepted and ignored.
	//
	// Deprecated: disk-resident summaries decode on every load, and the
	// memory tier gets all of MaxMemBytes. ROADMAP item 1 removes the
	// field once the benchmark harness stops setting it.
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

	// load reads a disk-resident summary (nil for memory-tier entries).
	load func() (*sgs.Summary, error)
}

// LoadSummary returns the entry's summary, decoding it from the disk
// tier when the entry is disk-resident. Each call on a disk-resident
// entry decodes again, so resident memory stays bounded by what callers
// actually hold. The returned summary is shared and immutable: callers
// must never mutate it (the same contract memory-tier summaries already
// carry).
func (e *Entry) LoadSummary() (*sgs.Summary, error) {
	if e.Summary != nil {
		return e.Summary, nil
	}
	if e.load == nil {
		return nil, fmt.Errorf("archive: entry %d has no summary source", e.ID)
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

// Base is the pattern base. It is safe for concurrent use: any number of
// extractor shards append (Put/PutBatch/Remove) while analysts run
// matching queries against read-only snapshots.
//
// The memory tier is one append-only FIFO of entries with their filter
// features in parallel flat columns (see columns). Live entries are
// mem[head:]; eviction and demotion advance head, and compactLocked
// copies the live rows into fresh arrays once the dead prefix grows.
// Queries never see a half-applied write: a Snapshot holds slice
// headers over rows the writer never writes again.
type Base struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	logger *slog.Logger
	nextID int64

	mem      columns         // memory tier, FIFO; live rows are [head:]
	head     int             // first live row of mem
	count    int             // live entries across both tiers
	bytes    int             // live encoded bytes across both tiers
	memBytes int             // live encoded bytes in the memory tier (excluding in-flight demotions)
	store    *segstore.Store // disk tier; nil when StorePath is unset
	snap     *Snapshot       // cached read view; nil after any mutation

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
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("archive: negative Capacity %d (set 0 for no bound)", cfg.Capacity)
	}
	if cfg.MaxMemBytes < 0 {
		return nil, fmt.Errorf("archive: negative MaxMemBytes %d (set 0 for no byte bound)", cfg.MaxMemBytes)
	}
	if cfg.MaxMemBytes > 0 && cfg.StorePath == "" {
		return nil, fmt.Errorf("archive: MaxMemBytes requires StorePath")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	b := &Base{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		logger: logger,
		mem:    columns{dim: cfg.Dim},
	}
	if cfg.StorePath != "" {
		st, err := segstore.Open(cfg.StorePath, segstore.Options{
			Dim:                cfg.Dim,
			TargetSegmentBytes: cfg.StoreSegmentBytes,
		})
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
	// memory bound; it latches and fail-stops rather than silently growing
	// past the cap.
	if b.demoteErr != nil {
		return 0, false, b.demoteErr
	}
	// Selective archiving (§6.2).
	if b.cfg.MinPopulation > 0 && s.TotalPopulation() < b.cfg.MinPopulation {
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
	// Hand overflow to the demoter before committing the entry: the
	// batch leaves the memory-tier accounting here, the flush itself
	// happens in the background (a flush failure surfaces on a LATER
	// Put via the latched error — see demoteLoop — not this one).
	if err := b.demoteLocked(e.Bytes); err != nil {
		return 0, false, err
	}
	b.mem.push(e)
	b.count++
	b.bytes += e.Bytes
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
// memory tier past MaxMemBytes or Capacity. It demotes down to 7/8 of
// the violated bound (hysteresis: one segment absorbs many Puts). The
// batch's entries leave the memory-tier accounting immediately but stay
// snapshot-visible until their segment commits, so queries never observe
// a gap; the segment write and fsync happen on the demoter goroutine,
// outside the base lock.
func (b *Base) demoteLocked(incoming int) error {
	if b.store == nil {
		return nil
	}
	maxMem := b.cfg.MaxMemBytes
	overBytes := maxMem > 0 && b.memBytes+incoming > maxMem
	overCount := b.cfg.Capacity > 0 && b.memLen()+1 > b.cfg.Capacity
	if !overBytes && !overCount {
		return nil
	}
	byteGoal, countGoal := -1, -1
	if maxMem > 0 {
		// Clamp at 0: an incoming entry near (or beyond) the whole budget
		// must demote everything resident, not disable the bound — a
		// negative goal would read as the "unbounded" sentinel below.
		byteGoal = max(maxMem-maxMem/8-incoming, 0)
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
	memCount := b.memLen()
	n, bytes := 0, 0
	for n < memCount {
		overBytes := byteGoal >= 0 && b.memBytes-bytes > byteGoal
		overCount := countGoal >= 0 && memCount-n > countGoal
		if !overBytes && !overCount {
			break
		}
		// Only the selection happens here; serializing the summaries
		// (flushEntries) is deferred to the flusher, off this lock —
		// entries are immutable, so the encoding needs no protection.
		bytes += b.mem.ents[b.head+n].Bytes
		n++
	}
	if n == 0 {
		return nil
	}
	// Totals are unchanged: the entries are moving tiers, not dying.
	batch := &demoteBatch{cols: b.mem.slice(b.head, b.head+n), bytes: bytes}
	b.head += n
	b.memBytes -= bytes
	b.compactLocked()
	b.snap = nil
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
	return nil
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
// memory-only capacity policy; store-backed bases demote instead.
func (b *Base) evictOldestLocked() {
	if b.memLen() == 0 {
		return
	}
	e := b.mem.ents[b.head]
	b.head++
	b.count--
	b.bytes -= e.Bytes
	b.memBytes -= e.Bytes
	b.compactLocked()
}

// memLen returns the number of live memory-tier entries (excluding
// in-flight demotions).
func (b *Base) memLen() int { return b.mem.Len() - b.head }

// compactLocked copies the live rows into fresh arrays once the dead
// prefix mem[:head] that eviction and demotion leave behind outgrows 32
// rows plus an eighth of the live ones. Dead rows still point at their
// entries, so the bound is what keeps evicted summaries from staying
// resident; scaling it with the live population bounds the copying at
// eight rows per eviction. Snapshots and demotion batches keep the old
// arrays for as long as they hold them.
func (b *Base) compactLocked() {
	if b.head > 32+b.memLen()/8 {
		b.mem = cloneColumns(b.cfg.Dim, b.mem.slice(b.head, b.mem.Len()))
		b.head = 0
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
	live := b.mem.slice(b.head, b.mem.Len())
	i := live.find(id)
	if i < 0 {
		// Not in the memory tier: removed, never archived, or demoted to
		// the store, where it can still be removed.
		return b.removeFromStoreLocked(id)
	}
	e := live.ents[i]
	// Copy into fresh arrays: the rows a snapshot holds are never written.
	b.mem = cloneColumns(b.cfg.Dim, live.slice(0, i), live.slice(i+1, live.Len()))
	b.head = 0
	b.count--
	b.bytes -= e.Bytes
	b.memBytes -= e.Bytes
	b.snap = nil
	return true
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
	b.count--
	b.bytes -= int(rec.Len)
	b.snap = nil
	return true
}

// All visits every archived entry in FIFO order (diagnostics,
// inspection tools, linear-scan baselines). The callback runs against a
// snapshot — never under the base lock — so it may freely call Put,
// Remove, or searches; mutations it makes are not reflected in the
// iteration in progress. Searches go through Snapshot.
func (b *Base) All(visit func(*Entry) bool) {
	b.Snapshot().All(visit)
}

// FilterShards splits the base's current contents into filter shards;
// each call pins one snapshot (see Snapshot.FilterShards).
func (b *Base) FilterShards() []Shard {
	return b.Snapshot().FilterShards()
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

	// Deprecated: always 0; there is no decoded-summary cache. ROADMAP
	// item 1 removes it once the benchmark harness stops reading it.
	CacheHits uint64
	// Deprecated: always 0, as CacheHits; removed by ROADMAP item 1.
	CacheMisses uint64
	// Deprecated: always 0, as CacheHits; removed by ROADMAP item 1.
	CacheEvicted uint64
}

// TierStats returns the current tier split.
func (b *Base) TierStats() TierStats {
	b.mu.Lock()
	ts := TierStats{MemEntries: b.memLen(), MemBytes: b.memBytes}
	for _, batch := range b.demotePending {
		ts.DemotingEntries += batch.cols.Len()
		ts.DemotingBytes += batch.bytes
	}
	ts.DemotingBatches = len(b.demotePending)
	store := b.store
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
	return ts
}
