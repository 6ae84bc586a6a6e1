package segstore

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Parallel Puts and Gets over a one-value-per-shard LRU: every Get sees
// the first value written, whichever tier serves it, and the eviction
// callback accounts for every value pushed out. Run under -race.
func TestStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	format := Format{TagSize: 16, MaxPayload: 1 << 10}
	var evicted atomic.Int64
	s, err := OpenStore(dir, "seg-%02x.log", format, 1, func(n int64) { evicted.Add(n) })
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key, want := Key(uint64(i), uint64(i*7)), []byte(fmt.Sprintf("value-%d", i))
				if _, err := s.Put(key, want); err != nil {
					t.Error(err)
					return
				}
				if got, src := s.Get(key); src < Memory || !bytes.Equal(got, want) {
					t.Errorf("Get(%d) = %q from %d", i, got, src)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != keys || !s.Contains(Key(3, 21)) || s.Contains(Key(3, 22)) {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	if evicted.Load() < keys-Shards {
		t.Fatalf("%d evictions reported for %d keys over %d one-value shards", evicted.Load(), keys, Shards)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopened: the index is replayed and values are read through from disk.
	s, err = OpenStore(dir, "seg-%02x.log", format, 1, func(int64) {})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, src := s.Get(Key(5, 35)); src != Disk || string(got) != "value-5" || s.Len() != keys {
		t.Fatalf("after reopen: Get = %q from %d, Len %d", got, src, s.Len())
	}
	if _, src := s.Get(Key(5, 36)); src != Miss {
		t.Fatalf("never-written key: source %d", src)
	}
}
