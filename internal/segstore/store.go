package segstore

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Shards is the fixed fan-out of a Store: one Log, index and lock per
// shard, so concurrent traffic contends on 1/16th of the keyspace.
const Shards = 16

// Store is a sharded, content-addressed key→value index over Logs. The
// frame tag is the key. Values for a key are byte-identical by
// construction (keys hash every input of the computation), so the first
// write wins and concurrent Puts of one key are harmless. Only the index
// is always resident; values are re-read from their segment on demand,
// behind a per-shard LRU of raw values.
//
// Its one caller is queue.Cache, whose one caller is the benchmark's
// storage probe; no daemon opens a Store. A Store owns its directory:
// two Stores over one directory overwrite each other's records.
type Store struct {
	memCap  int           // LRU values per shard
	onEvict func(n int64) // told of LRU evictions, outside any lock
	entries atomic.Int64
	shards  [Shards]storeShard
}

type storeShard struct {
	mu    sync.Mutex
	log   *Log
	index map[string]*entry
	lru   list.List // of *entry; front = most recently used
}

// entry locates one value in its shard's segment and, while the value is
// in the LRU, holds it.
type entry struct {
	off  int64
	n    uint32
	val  []byte
	elem *list.Element // nil unless val is resident
}

// Source says where Get found a value.
type Source uint8

const (
	Miss       Source = iota // key not stored
	Unreadable               // indexed but the segment read failed; treat as a miss
	Memory                   // served from the LRU
	Disk                     // read through from the segment file
)

// OpenStore opens (creating if needed) the store under dir, replaying
// shard i's segment — named by fmt.Sprintf(pattern, i) — into its index.
// format.TagSize is the key width. lruPerShard bounds the raw values
// cached in memory per shard; the on-disk index is never bounded.
// onEvict is told how many values each Get or Put pushed out of the LRU.
func OpenStore(dir, pattern string, format Format, lruPerShard int, onEvict func(n int64)) (*Store, error) {
	s := &Store{memCap: lruPerShard, onEvict: onEvict}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.index = make(map[string]*entry)
		log, err := Open(filepath.Join(dir, fmt.Sprintf(pattern, i)), format,
			func(tag []byte, off int64, payload []byte) {
				if sh.index[string(tag)] == nil { // first write wins
					sh.index[string(tag)] = &entry{off: off, n: uint32(len(payload))}
				}
			})
		if err != nil {
			s.Close()
			return nil, err
		}
		sh.log = log
		s.entries.Add(int64(len(sh.index)))
	}
	return s, nil
}

// Key packs hash words into a Store key: 8 bytes each, little-endian.
func Key(words ...uint64) []byte {
	k := make([]byte, 0, 8*len(words))
	for _, w := range words {
		k = binary.LittleEndian.AppendUint64(k, w)
	}
	return k
}

// shardFor maps a key to its shard: the XOR of the key's 8-byte
// little-endian words, mod Shards — which only looks at each word's low
// byte. Part of the on-disk layout: it decides which segment file holds
// a key.
func (s *Store) shardFor(key []byte) *storeShard {
	var x byte
	for i := 0; i < len(key); i += 8 {
		x ^= key[i]
	}
	return &s.shards[x%Shards]
}

// Get returns the value stored for key and where it came from. The
// returned slice is shared with the LRU; callers must not modify it.
func (s *Store) Get(key []byte) ([]byte, Source) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e := sh.index[string(key)]
	if e == nil {
		sh.mu.Unlock()
		return nil, Miss
	}
	if e.elem != nil {
		sh.lru.MoveToFront(e.elem)
		val := e.val
		sh.mu.Unlock()
		return val, Memory
	}
	val := make([]byte, e.n)
	if err := sh.log.ReadAt(val, e.off); err != nil {
		sh.mu.Unlock()
		return nil, Unreadable
	}
	s.rememberAndUnlock(sh, e, val)
	return val, Disk
}

// Contains reports whether key is stored, without touching LRU order.
func (s *Store) Contains(key []byte) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.index[string(key)] != nil
}

// Put appends val under key (one unsynced record) and reports whether it
// was stored; false with a nil error means the key already had a value.
func (s *Store) Put(key, val []byte) (bool, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if sh.index[string(key)] != nil {
		sh.mu.Unlock()
		return false, nil
	}
	off, err := sh.log.Append(key, val)
	if err != nil {
		sh.mu.Unlock()
		return false, err
	}
	e := &entry{off: off, n: uint32(len(val))}
	sh.index[string(key)] = e
	s.entries.Add(1)
	// The LRU keeps its own copy; the caller keeps theirs.
	s.rememberAndUnlock(sh, e, append([]byte(nil), val...))
	return true, nil
}

// rememberAndUnlock puts val (which the LRU now owns) at the front of
// the shard's LRU, evicts past the capacity, releases sh.mu and only then
// reports the evictions.
func (s *Store) rememberAndUnlock(sh *storeShard, e *entry, val []byte) {
	evicted := int64(0)
	e.val, e.elem = val, sh.lru.PushFront(e)
	for ; sh.lru.Len() > s.memCap; evicted++ {
		old := sh.lru.Remove(sh.lru.Back()).(*entry)
		old.val, old.elem = nil, nil
	}
	sh.mu.Unlock()
	if evicted > 0 {
		s.onEvict(evicted)
	}
}

// Len returns the number of stored keys.
func (s *Store) Len() int { return int(s.entries.Load()) }

// Sync flushes every segment.
func (s *Store) Sync() error {
	for i := range s.shards {
		if err := s.shards[i].log.Sync(); err != nil {
			return fmt.Errorf("segstore: sync: %w", err)
		}
	}
	return nil
}

// Close syncs and closes every segment.
func (s *Store) Close() error {
	var errs []error
	for i := range s.shards {
		errs = append(errs, s.shards[i].log.Close())
	}
	return errors.Join(errs...)
}
