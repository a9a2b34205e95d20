package service

// Canonicalizing plan cache. Keys are built from the *canonical*
// rendering of the submitted nest (internal/lang.Canonical) plus the
// strategy and processor count, so α-equivalent programs — renamed
// indices, re-spaced or re-spelled source — hit the same entry.
// Eviction is LRU, bounded both by entry count and by the approximate
// byte footprint of the cached plans.

import (
	"container/list"
	"context"
	"hash/fnv"
	"sync"

	"commfree/internal/obs"
	"commfree/internal/store"
)

// NumCacheShards is the fixed shard count used to attribute cache
// traffic (and, in the cluster layer, key ownership) to keyspace
// shards in metrics. It does not partition the LRU itself — eviction
// stays global — it only buckets the counters.
const NumCacheShards = 8

// cacheShard buckets a cache key.
func cacheShard(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % NumCacheShards)
}

// cacheEntry is one cached compilation: the wire-form plan plus the
// live pipeline artifacts /v1/execute needs (all read-only after
// construction; see TestChooseConcurrentReadOnly for the proof that
// the analysis layer tolerates shared use).
type cacheEntry struct {
	key string
	// label is the plan's resolved strategy label (Plan.Strategy): all
	// an execute response says about the plan.
	label string
	comp  *compiled
	bytes int64
	// rec is the entry's persistent record (nil only for entries built
	// before the store layer, e.g. synthetic test entries). Kept on the
	// entry so eviction can demote to disk and migration can export
	// plans that only ever lived in memory.
	rec *store.Record

	// plan is the typed wire plan, set by a compile. A revived entry has
	// none; decoded decodes its record's plan bytes instead, once.
	plan    *Plan
	decoded lazy[*Plan]
}

// newRevived wraps a record's partition as an entry whose typed plan is
// decoded on first use.
func newRevived(rec *store.Record, comp *compiled) *cacheEntry {
	e := &cacheEntry{key: rec.Key, label: rec.Label, comp: comp, rec: rec, bytes: entryBytes(rec)}
	e.decoded.build = func(_ *Service, trc *obs.Trace) (*Plan, error) {
		sp := trc.Start(0, "plan_decode")
		defer sp.End()
		return decodePlan(rec)
	}
	return e
}

// typed returns the entry's typed plan. A revived entry decodes its
// record's plan bytes here, once, as a plan_decode span of the request
// that ran the decode; executes never do.
func (e *cacheEntry) typed(ctx context.Context, s *Service, trc *obs.Trace) (*Plan, error) {
	if e.plan != nil {
		return e.plan, nil
	}
	return e.decoded.get(ctx, s, trc)
}

// planCache is a mutex-guarded LRU with entry-count and byte bounds.
type planCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	bytes      int64
	hits       int64
	misses     int64
	evictions  int64

	shardHits   [NumCacheShards]int64
	shardMisses [NumCacheShards]int64
}

func newPlanCache(maxEntries int, maxBytes int64) *planCache {
	return &planCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// get looks the key up, promoting and counting a hit when present.
func (c *planCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		c.shardMisses[cacheShard(key)]++
		return nil, false
	}
	c.hits++
	c.shardHits[cacheShard(key)]++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// peek is get without touching the hit/miss counters (used by the
// compile flight's double-check so stats count each request once).
func (c *planCache) peek(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// add inserts (or refreshes) an entry and evicts from the LRU tail
// until both bounds hold again. The evicted entries are returned so the
// caller can demote them to the plan store outside the cache lock.
func (c *planCache) add(e *cacheEntry) []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		old := el.Value.(*cacheEntry)
		c.bytes += e.bytes - old.bytes
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.items[e.key] = c.ll.PushFront(e)
		c.bytes += e.bytes
	}
	var evicted []*cacheEntry
	for c.ll.Len() > c.maxEntries || (c.bytes > c.maxBytes && c.ll.Len() > 1) {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		old := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, old.key)
		c.bytes -= old.bytes
		c.evictions++
		evicted = append(evicted, old)
	}
	return evicted
}

// remove drops the entry if it is still the one cached under its key.
func (c *planCache) remove(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok && el.Value.(*cacheEntry) == e {
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.bytes -= e.bytes
	}
}

// entries snapshots the cached entries, most recently used first.
func (c *planCache) entries() []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*cacheEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry))
	}
	return out
}

// CacheStats is the cache section of the metrics document.
type CacheStats struct {
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	Entries    int     `json:"entries"`
	Bytes      int64   `json:"bytes"`
	MaxEntries int     `json:"max_entries"`
	MaxBytes   int64   `json:"max_bytes"`
	HitRate    float64 `json:"hit_rate"`
	// Shards buckets hits/misses/entries by keyspace shard
	// (NumCacheShards fixed buckets over the cache-key hash).
	Shards []CacheShardStats `json:"shards,omitempty"`
}

// CacheShardStats is one keyspace shard's slice of the cache traffic.
type CacheShardStats struct {
	Shard   int   `json:"shard"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.bytes,
		MaxEntries: c.maxEntries, MaxBytes: c.maxBytes,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	var entries [NumCacheShards]int
	for key := range c.items {
		entries[cacheShard(key)]++
	}
	s.Shards = make([]CacheShardStats, NumCacheShards)
	for i := range s.Shards {
		s.Shards[i] = CacheShardStats{
			Shard: i, Hits: c.shardHits[i], Misses: c.shardMisses[i], Entries: entries[i],
		}
	}
	return s
}
