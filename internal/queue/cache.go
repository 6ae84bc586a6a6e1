package queue

import (
	"fmt"

	"harpocrates/internal/obs"
	"harpocrates/internal/segstore"
)

// Cache is an on-disk content-addressed value store: encoded shard
// results keyed by (program hash, config hash, fault-spec hash) in a
// segstore.Store — 16 append-only seg-XX.log segments with an in-memory
// LRU of values in front. This type adds the key encoding and its own
// queue.cache.* metrics.
//
// Nothing in the queue uses it: the coordinator answers repeated shards
// from its job table (Coordinator.results), and workers keep no results.
// Its only caller is the benchmark's storage probe (queue.cache_put_us,
// queue.cache_get_us), which is why the type, its API and its bytes stay
// as they were. One directory must never be opened twice at once: each
// Cache appends at its own tracked offset, so two overwrite each other's
// records.
type Cache struct {
	st *segstore.Store
	ob *obs.Observer
}

// DefaultCacheEntries is the default in-memory LRU capacity.
const DefaultCacheEntries = 4096

// cacheFormat frames one segment record: the 24-byte key as tag; the
// payload bound (a shard result is KBs) only rejects corrupt lengths.
var cacheFormat = segstore.Format{TagSize: 24, MaxPayload: 64 << 20}

// CacheKey addresses one shard result by content: the corpus-convention
// (Mix64 chain) hashes of the program bytes, the scalar configuration
// and the fault/evaluation spec. Perf-only knobs (checkpointing, cycle
// skipping, delta termination) are deliberately *not* part of the spec
// hash: the repo's differential tests prove they never change outcomes,
// so results are shared across them.
type CacheKey struct {
	Program uint64
	Config  uint64
	Spec    uint64
}

func (k CacheKey) String() string {
	return fmt.Sprintf("%016x-%016x-%016x", k.Program, k.Config, k.Spec)
}

// tag is the key's on-disk form.
func (k CacheKey) tag() []byte { return segstore.Key(k.Program, k.Config, k.Spec) }

// OpenCache opens (creating if needed) the cache at dir, replaying each
// segment into the index. memEntries bounds the values held in memory
// across all shards (<= 0 means DefaultCacheEntries); the on-disk index
// is never bounded — evicted values are re-read from their segment on
// the next hit. The observer may be nil.
func OpenCache(dir string, memEntries int, ob *obs.Observer) (*Cache, error) {
	if memEntries <= 0 {
		memEntries = DefaultCacheEntries
	}
	st, err := segstore.OpenStore(dir, "seg-%02x.log", cacheFormat,
		max(1, memEntries/segstore.Shards), ob.Counter("queue.cache.mem_evictions").Add)
	if err != nil {
		return nil, fmt.Errorf("queue: open cache: %w", err)
	}
	c := &Cache{st: st, ob: ob}
	c.ob.Gauge("queue.cache.entries").Set(float64(st.Len()))
	return c, nil
}

// Get returns the cached value for k, reading through to the segment
// file when the value has been evicted from memory. An unreadable
// segment is a miss rather than a failed campaign.
func (c *Cache) Get(k CacheKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	val, src := c.st.Get(k.tag())
	switch src {
	case segstore.Disk:
		c.ob.Counter("queue.cache.disk_hits").Inc()
		fallthrough
	case segstore.Memory:
		c.ob.Counter("queue.cache.hits").Inc()
		return val, true
	case segstore.Unreadable:
		c.ob.Counter("queue.cache.read_errors").Inc()
	}
	c.ob.Counter("queue.cache.misses").Inc()
	return nil, false
}

// Contains reports whether k is cached, without touching LRU order or
// the hit/miss counters.
func (c *Cache) Contains(k CacheKey) bool {
	return c != nil && c.st.Contains(k.tag())
}

// Put stores a value for k. The first write wins; a Put of an already
// cached key is a no-op (values are content-determined, so they cannot
// differ).
func (c *Cache) Put(k CacheKey, val []byte) error {
	if c == nil {
		return nil
	}
	stored, err := c.st.Put(k.tag(), val)
	if err != nil {
		return fmt.Errorf("queue: cache put: %w", err)
	}
	if stored {
		c.ob.Counter("queue.cache.puts").Inc()
		c.ob.Gauge("queue.cache.entries").Set(float64(c.st.Len()))
	}
	return nil
}

// Len returns the number of cached entries (disk index, all shards).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.st.Len()
}

// Sync flushes every segment file.
func (c *Cache) Sync() error {
	if c == nil {
		return nil
	}
	return c.st.Sync()
}

// Close syncs and closes every segment file.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	return c.st.Close()
}
