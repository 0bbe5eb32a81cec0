package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"
)

// CacheOutcome classifies how a request's result was obtained.
type CacheOutcome string

const (
	// CacheMiss: this request executed the detection run.
	CacheMiss CacheOutcome = "miss"
	// CacheHit: the result was already cached.
	CacheHit CacheOutcome = "hit"
	// CacheCoalesced: an identical request was already in flight; this one
	// waited for it and shared its result without running anything.
	CacheCoalesced CacheOutcome = "coalesced"
)

// CacheStats is a point-in-time snapshot of cache activity.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	// ParentDecodes counts warm steps whose parent entry had to be decoded
	// from its bytes because it was cached without a partition.
	ParentDecodes uint64 `json:"parent_decodes"`
}

// ResultCache is a fixed-capacity LRU of serialized detection responses,
// keyed by (graph hash, options fingerprint, seed). Because a run is
// bit-deterministic given that key, the cache stores the exact response
// bytes and replays them verbatim — identical requests receive identical
// bytes whether computed or cached, which is the API's determinism
// guarantee. Lookups of a key currently being computed coalesce onto the
// in-flight computation instead of starting a second run.
//
// Entries that a warm lineage walk reads also carry their decoded partition,
// so replaying a version chain is a chain of typed lookups rather than one
// JSON decode per step. The partition lives in the entry itself: it is
// evicted with its bytes and bounded by the same capacity.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flight  flightGroup[cacheEntry]
	hits    uint64
	misses  uint64
	shared  uint64
	evicted uint64
	decodes uint64
}

// partition is the typed form of a detect response's membership: what a
// warm step needs from its parent. It is never mutated once built.
type partition struct {
	membership []uint32
	modules    int
}

// cacheEntry is one cached result: the response bytes, replayed verbatim,
// and the partition they encode. part is nil for entries stored as plain
// bytes (cold detects, bodies adopted from a sibling) until partitionOf
// first decodes them.
type cacheEntry struct {
	body []byte
	part *partition
}

type cacheItem struct {
	key string
	val cacheEntry
}

// NewResultCache returns an LRU holding up to capacity entries (minimum 1).
func NewResultCache(capacity int) *ResultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the cached entry for key and bumps its recency.
func (c *ResultCache) get(key string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// put inserts key -> body with no partition; peer-harvested bodies arrive
// this way.
func (c *ResultCache) put(key string, body []byte) {
	c.store(key, cacheEntry{body: body})
}

// store inserts key -> e, evicting the least recently used entry if needed.
func (c *ResultCache) store(key string, e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheItem).val = e
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, val: e})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
		c.evicted++
	}
}

// GetOrCompute returns the cached entry for key, or runs compute exactly
// once across all concurrent callers of the same key and caches its result.
// Errors are never cached; every caller of a failed flight receives the
// error and a later request recomputes.
func (c *ResultCache) GetOrCompute(key string, compute func() (cacheEntry, error)) (cacheEntry, CacheOutcome, error) {
	if e, ok := c.get(key); ok {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return e, CacheHit, nil
	}
	e, coalesced, err := c.flight.Do(key, func() (cacheEntry, error) {
		// A racing flight may have filled the cache between the miss above
		// and this leader starting; serving it keeps the run count minimal.
		if e, ok := c.get(key); ok {
			return e, nil
		}
		e, err := compute()
		if err != nil {
			return cacheEntry{}, err
		}
		c.store(key, e)
		return e, nil
	})
	c.mu.Lock()
	if err == nil && coalesced {
		c.shared++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if err != nil {
		return cacheEntry{}, CacheMiss, err
	}
	if coalesced {
		return e, CacheCoalesced, nil
	}
	return e, CacheMiss, nil
}

// partitionOf returns the partition of e, the entry read under key. An
// entry stored as plain bytes is decoded here and the result memoized into
// the live item, so each such entry is decoded once while it stays cached
// (two callers racing on the same fresh entry may both decode it; the
// results are identical).
func (c *ResultCache) partitionOf(key string, e cacheEntry) (*partition, error) {
	if e.part != nil {
		return e.part, nil
	}
	var resp DetectResponse
	if err := json.Unmarshal(e.body, &resp); err != nil {
		return nil, fmt.Errorf("serve: decoding cached parent result: %w", err)
	}
	p := &partition{membership: resp.Membership, modules: resp.NumModules}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decodes++
	// Byte-replay determinism means whatever body is live under key encodes
	// this same partition.
	if el, ok := c.items[key]; ok && el.Value.(*cacheItem).val.part == nil {
		el.Value.(*cacheItem).val.part = p
	}
	return p, nil
}

// Stats snapshots the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       c.ll.Len(),
		Capacity:      c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Coalesced:     c.shared,
		Evictions:     c.evicted,
		ParentDecodes: c.decodes,
	}
}
