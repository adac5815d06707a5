// Package sumcache is the summary-residency layer of the pattern base:
// a sharded, byte-accounted LRU cache of decoded summaries keyed by
// (owner, record id), where the owner is the immutable container the
// record was decoded from (a disk segment). Every disk-resident
// Entry.LoadSummary in internal/archive consults it, so the refine phase
// of one-shot matches, novelty probes, standing-query evaluation
// and base dumps all pay one sgs.Unmarshal per residency, not one per
// query.
//
// Contract:
//
//   - Cached summaries are shared by reference between all callers, the
//     same sharing the memory tier's entries already have; they are
//     immutable after decode and must never be mutated.
//   - Loads are singleflight per key: concurrent GetOrLoad calls for the
//     same (owner, id) pay one decode, the rest wait for it.
//   - The byte budget is denominated in encoded summary bytes (the cost
//     argument) — the same unit as the archive's MaxMemBytes — so the
//     memory tier and the cache can share one bound. Resident bytes
//     never exceed the budget: an entry whose cost exceeds its shard's
//     share is served decoded but not retained.
//   - The cache holds a reference to each owner, pinning it (and, for a
//     mapped segment, its mapping) until the entry is evicted or the
//     owner is invalidated. Retiring an owner (compaction, Remove) must
//     call InvalidateOwner/InvalidateID to uncharge its entries.
//   - A nil *Cache is valid and means "disabled": GetOrLoad degrades to
//     calling the loader. New returns nil for a non-positive budget, so
//     the cache is off exactly when its budget is <= 0.
//
// The cache only ever changes when a decode happens, never what it
// yields: results are byte-identical with the cache on, off, or
// pathologically small.
package sumcache

import (
	"sync"
	"sync/atomic"

	"streamsum/internal/obs"
	"streamsum/internal/sgs"
)

// Process-wide residency counters (obs.Default), aggregated across all
// cache instances; per-instance counts stay in Stats.
var (
	metricHits = obs.NewCounter("sgs_sumcache_hits_total",
		"Decoded-summary cache loads served from residency.")
	metricMisses = obs.NewCounter("sgs_sumcache_misses_total",
		"Decoded-summary cache loads that paid a decode.")
	metricEvictions = obs.NewCounter("sgs_sumcache_evictions_total",
		"Decoded-summary cache entries evicted under byte pressure.")
)

// NumShards is the lock striping width; the byte budget is divided
// evenly across shards. Keys shard by record id, which the
// archive assigns sequentially, so consecutive ids — the common access
// pattern of a refine phase walking one segment — spread evenly.
const NumShards = 8

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits    uint64 // GetOrLoad served from residency (including singleflight joins)
	Misses  uint64 // GetOrLoad paid a decode
	Evicted uint64 // entries evicted under byte pressure
	Entries int    // resident decoded summaries
	Bytes   int64  // resident encoded-size charge (<= Budget)
}

type key struct {
	owner any
	id    int64
}

// entry is one cache slot. While done is non-nil the decode is in
// flight: sum/err are written before done closes, so waiters that
// received done under the shard lock read them race-free after <-done.
// Only filled entries are linked into the shard's LRU list.
type entry struct {
	key  key
	cost int64
	sum  *sgs.Summary
	err  error
	done chan struct{}
	// LRU links; nil for in-flight placeholders.
	prev, next *entry
}

// shard is one lock stripe: a map for lookup plus an intrusive LRU list
// (head = most recent) bounded by its slice of the total budget.
type shard struct {
	mu         sync.Mutex
	entries    map[key]*entry
	head, tail *entry
	bytes      int64
	budget     int64
}

// Cache is the residency layer. Safe for concurrent use. The zero value
// is not usable; construct with New. A nil *Cache is a disabled cache:
// every method degrades gracefully.
type Cache struct {
	shards  [NumShards]shard
	budget  int64
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64
}

// New returns a cache bounded by maxBytes of encoded summary charge, or
// nil (the disabled cache) when maxBytes is non-positive.
func New(maxBytes int) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	c := &Cache{budget: int64(maxBytes)}
	per := int64(maxBytes) / NumShards
	for i := range c.shards {
		c.shards[i].entries = make(map[key]*entry)
		c.shards[i].budget = per
	}
	// Remainder bytes go to shard 0 so the shard budgets sum exactly to
	// the configured bound.
	c.shards[0].budget += int64(maxBytes) % NumShards
	return c
}

// Budget returns the configured byte bound (0 for a disabled cache).
func (c *Cache) Budget() int {
	if c == nil {
		return 0
	}
	return int(c.budget)
}

func (c *Cache) shardFor(id int64) *shard {
	return &c.shards[uint64(id)%NumShards]
}

// GetOrLoad returns the decoded summary for (owner, id), invoking load
// at most once across concurrent callers on a miss. cost is the entry's
// encoded size, charged against the budget while resident. Errors are
// returned but never cached — the next call retries the load.
func (c *Cache) GetOrLoad(owner any, id int64, cost int, load func() (*sgs.Summary, error)) (*sgs.Summary, error) {
	sum, _, err := c.GetOrLoadHit(owner, id, cost, load)
	return sum, err
}

// GetOrLoadHit is GetOrLoad plus a hit report: it additionally returns
// whether the summary was served from residency (including singleflight
// joins) rather than by paying a decode. Per-query tracing uses it to
// attribute cache hits to individual refine phases; a nil (disabled)
// cache always reports a miss.
func (c *Cache) GetOrLoadHit(owner any, id int64, cost int, load func() (*sgs.Summary, error)) (*sgs.Summary, bool, error) {
	if c == nil {
		sum, err := load()
		return sum, false, err
	}
	sh := c.shardFor(id)
	k := key{owner: owner, id: id}
	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		if e.done != nil {
			// Join the in-flight decode.
			done := e.done
			sh.mu.Unlock()
			<-done
			if e.err != nil {
				return nil, false, e.err
			}
			c.hits.Add(1)
			metricHits.Inc()
			return e.sum, true, nil
		}
		sh.moveFrontLocked(e)
		sh.mu.Unlock()
		c.hits.Add(1)
		metricHits.Inc()
		return e.sum, true, nil
	}
	e := &entry{key: k, cost: int64(cost), done: make(chan struct{})}
	sh.entries[k] = e
	sh.mu.Unlock()

	sum, err := load()

	sh.mu.Lock()
	e.sum, e.err = sum, err
	close(e.done)
	e.done = nil
	switch {
	case err != nil:
		// Never cache failures.
		if sh.entries[k] == e {
			delete(sh.entries, k)
		}
	case sh.entries[k] != e:
		// Invalidated while decoding (owner retired): serve, don't retain.
	case e.cost > sh.budget:
		// Larger than this shard's whole share: retaining it would evict
		// everything else for a single entry — serve it uncached instead,
		// keeping resident bytes strictly under the budget.
		delete(sh.entries, k)
	default:
		sh.pushFrontLocked(e)
		sh.bytes += e.cost
		for sh.bytes > sh.budget {
			c.evictOldestLocked(sh)
		}
	}
	sh.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	c.misses.Add(1)
	metricMisses.Inc()
	return sum, false, nil
}

// InvalidateOwner drops every resident and in-flight entry decoded from
// owner, uncharging their bytes — the hook the archive calls when a
// segment is retired by compaction. In-flight decodes for the owner
// complete (their waiters are served) but are not retained.
func (c *Cache) InvalidateOwner(owner any) {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.owner == owner {
				sh.removeLocked(e)
			}
		}
		sh.mu.Unlock()
	}
}

// InvalidateID drops the entry (any owner) for the given record id —
// the Remove hook. Record ids are unique across owners, so at most one
// entry matches.
func (c *Cache) InvalidateID(id int64) {
	if c == nil {
		return
	}
	sh := c.shardFor(id)
	sh.mu.Lock()
	for k, e := range sh.entries {
		if k.id == id {
			sh.removeLocked(e)
			break
		}
	}
	sh.mu.Unlock()
}

// Bytes returns the resident encoded-size charge.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// Stats returns a counter snapshot. Hits, Misses and Evicted are read
// without a lock barrier across shards, so the snapshot is
// monitoring-grade under concurrency, exact when quiescent.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Evicted: c.evicted.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Bytes += sh.bytes
		for _, e := range sh.entries {
			if e.done == nil {
				st.Entries++
			}
		}
		sh.mu.Unlock()
	}
	return st
}

func (c *Cache) evictOldestLocked(sh *shard) {
	if sh.tail == nil {
		return
	}
	sh.removeLocked(sh.tail)
	c.evicted.Add(1)
	metricEvictions.Inc()
}

// removeLocked unlinks e from the shard entirely. Placeholders (in-flight
// decodes) are in the map but not the list; removing one leaves the
// loader to notice on completion and skip retention.
func (sh *shard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	if e.done != nil {
		return
	}
	sh.unlinkLocked(e)
	sh.bytes -= e.cost
}

func (sh *shard) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveFrontLocked(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlinkLocked(e)
	sh.pushFrontLocked(e)
}
