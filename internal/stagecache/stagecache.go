// Package stagecache is the content-addressed store behind the staged
// analysis pipeline: a sharded LRU keyed by cachekey.Key, bounded by a
// byte budget rather than an entry count (entry sizes come from the same
// arena/graph accounting that flowgraph.MemStats reports, so one cached
// result is charged what its graph actually holds live).
//
// Concurrency model: the key space is split across power-of-two shards by
// the key's leading byte; each shard owns a mutex, its entry map, and an
// intrusive LRU ring, so unrelated programs never contend. Concurrent
// misses on one key are collapsed by a per-key singleflight: the first
// caller of Do computes, every concurrent caller blocks on that call and
// shares its value (and its error — including a cancellation of the
// computing caller; supervision layers treat that like any other
// transient failure). Values must be treated as immutable once stored:
// hits hand the same value to many goroutines.
//
// Stats are broken out per kind ("compile", "static", "result",
// "classgraph", ...) so the service can report per-stage hit ratios. Kinds
// are a labeling for observability only; key disjointness across stages is
// the caller's job (cachekey domain strings).
package stagecache

import (
	"sync"
	"sync/atomic"

	"flowcheck/internal/cachekey"
)

// DefaultMaxBytes is the byte budget used when Options.MaxBytes is zero.
const DefaultMaxBytes = 64 << 20

const defaultShards = 16

// Options configures a Cache.
type Options struct {
	// MaxBytes is the total byte budget across all shards (default
	// DefaultMaxBytes). The budget is split evenly per shard; exceeding a
	// shard's share evicts that shard's least-recently-used entries.
	MaxBytes int64
	// Shards is the shard count, rounded up to a power of two (default 16).
	Shards int
}

// Cache is a sharded, byte-budgeted, content-addressed LRU.
type Cache struct {
	shards []shard
	mask   uint32

	statsMu sync.Mutex
	kinds   map[string]*kindCounters
}

type kindCounters struct {
	hits, misses, coalesced, stores, evictions, bytes atomic.Int64
}

// entry is one cached value on its shard's intrusive LRU ring.
type entry struct {
	key        cachekey.Key
	kind       string
	val        any
	size       int64
	prev, next *entry
}

// call is one in-flight singleflight computation.
type call struct {
	wg   sync.WaitGroup
	val  any
	size int64
	err  error
}

type shard struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[cachekey.Key]*entry
	lru     entry // sentinel: lru.next is most recent, lru.prev oldest
	calls   map[cachekey.Key]*call
}

// New creates a cache under the given options.
func New(opts Options) *Cache {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	n := opts.Shards
	if n <= 0 {
		n = defaultShards
	}
	// Round up to a power of two so the shard picker is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	c := &Cache{
		shards: make([]shard, p),
		mask:   uint32(p - 1),
		kinds:  map[string]*kindCounters{},
	}
	per := opts.MaxBytes / int64(p)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.max = per
		s.entries = map[cachekey.Key]*entry{}
		s.calls = map[cachekey.Key]*call{}
		s.lru.next, s.lru.prev = &s.lru, &s.lru
	}
	return c
}

func (c *Cache) shard(k cachekey.Key) *shard {
	return &c.shards[uint32(k[0])&c.mask]
}

func (c *Cache) kind(kind string) *kindCounters {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	kc := c.kinds[kind]
	if kc == nil {
		kc = &kindCounters{}
		c.kinds[kind] = kc
	}
	return kc
}

// --- intrusive LRU ring (shard.mu held) ---

func (s *shard) pushFront(e *entry) {
	e.prev = &s.lru
	e.next = s.lru.next
	e.prev.next = e
	e.next.prev = e
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *shard) touch(e *entry) {
	s.unlink(e)
	s.pushFront(e)
}

// insert stores a value and evicts from the cold end until the shard fits
// its budget again. The just-inserted entry can evict itself if it alone
// exceeds the shard's share — an oversized value simply does not cache.
func (s *shard) insert(c *Cache, k cachekey.Key, kind string, v any, size int64) {
	if old := s.entries[k]; old != nil {
		s.unlink(old)
		s.bytes -= old.size
		c.kind(old.kind).bytes.Add(-old.size)
		delete(s.entries, k)
	}
	e := &entry{key: k, kind: kind, val: v, size: size}
	s.entries[k] = e
	s.pushFront(e)
	s.bytes += size
	kc := c.kind(kind)
	kc.stores.Add(1)
	kc.bytes.Add(size)
	for s.bytes > s.max && s.lru.prev != &s.lru {
		victim := s.lru.prev
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		vc := c.kind(victim.kind)
		vc.evictions.Add(1)
		vc.bytes.Add(-victim.size)
	}
}

// Get returns the cached value for k, counting the lookup as a hit or a
// miss of the given kind. A hit refreshes the entry's recency.
func (c *Cache) Get(kind string, k cachekey.Key) (any, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e := s.entries[k]
	if e != nil {
		s.touch(e)
	}
	s.mu.Unlock()
	if e == nil {
		c.kind(kind).misses.Add(1)
		return nil, false
	}
	c.kind(kind).hits.Add(1)
	return e.val, true
}

// Peek is Get without miss accounting: a present entry counts as a hit
// (and is refreshed), an absent one counts nothing. Fast-path probes use
// it so a miss that immediately falls through to Do is not counted twice.
func (c *Cache) Peek(kind string, k cachekey.Key) (any, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e := s.entries[k]
	if e != nil {
		s.touch(e)
	}
	s.mu.Unlock()
	if e == nil {
		return nil, false
	}
	c.kind(kind).hits.Add(1)
	return e.val, true
}

// Put stores a value of the given byte size, evicting LRU entries as
// needed.
func (c *Cache) Put(kind string, k cachekey.Key, v any, size int64) {
	s := c.shard(k)
	s.mu.Lock()
	s.insert(c, k, kind, v, size)
	s.mu.Unlock()
}

// Do returns the cached value for k, computing and storing it on a miss.
// Concurrent Do calls for one key are collapsed: exactly one runs compute,
// the rest block and share its value. The second return reports whether
// the caller's value came from the cache or another caller's computation
// (true) rather than its own compute (false). Errors are not cached; every
// caller collapsed onto a failed computation receives its error.
func (c *Cache) Do(kind string, k cachekey.Key, compute func() (any, int64, error)) (any, bool, error) {
	s := c.shard(k)
	s.mu.Lock()
	if e := s.entries[k]; e != nil {
		s.touch(e)
		s.mu.Unlock()
		c.kind(kind).hits.Add(1)
		return e.val, true, nil
	}
	if cl := s.calls[k]; cl != nil {
		s.mu.Unlock()
		c.kind(kind).coalesced.Add(1)
		cl.wg.Wait()
		return cl.val, cl.err == nil, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	s.calls[k] = cl
	s.mu.Unlock()

	c.kind(kind).misses.Add(1)
	cl.val, cl.size, cl.err = compute()

	s.mu.Lock()
	delete(s.calls, k)
	if cl.err == nil {
		s.insert(c, k, kind, cl.val, cl.size)
	}
	s.mu.Unlock()
	cl.wg.Done()
	return cl.val, false, cl.err
}

// KindStats is the per-kind counter snapshot.
type KindStats struct {
	// Hits are lookups served from a stored entry; Coalesced are misses
	// that piggybacked on another caller's in-flight computation (work was
	// still saved); Misses are lookups that ran compute.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Stores counts values inserted; Evictions counts entries pushed out by
	// the byte budget; Bytes is the kind's live footprint.
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"bytes"`
}

// HitRatio is (hits + coalesced) over all lookups, 0 when none happened.
func (k KindStats) HitRatio() float64 {
	total := k.Hits + k.Coalesced + k.Misses
	if total == 0 {
		return 0
	}
	return float64(k.Hits+k.Coalesced) / float64(total)
}

// Stats is a cache-wide snapshot.
type Stats struct {
	MaxBytes int64                `json:"max_bytes"`
	Bytes    int64                `json:"bytes"`
	Entries  int                  `json:"entries"`
	Kinds    map[string]KindStats `json:"kinds"`
}

// Totals sums the per-kind counters.
func (st Stats) Totals() KindStats {
	var t KindStats
	for _, k := range st.Kinds {
		t.Hits += k.Hits
		t.Misses += k.Misses
		t.Coalesced += k.Coalesced
		t.Stores += k.Stores
		t.Evictions += k.Evictions
		t.Bytes += k.Bytes
	}
	return t
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	st := Stats{Kinds: map[string]KindStats{}}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.MaxBytes += s.max
		st.Bytes += s.bytes
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	for name, kc := range c.kinds {
		st.Kinds[name] = KindStats{
			Hits:      kc.hits.Load(),
			Misses:    kc.misses.Load(),
			Coalesced: kc.coalesced.Load(),
			Stores:    kc.stores.Load(),
			Evictions: kc.evictions.Load(),
			Bytes:     kc.bytes.Load(),
		}
	}
	return st
}
