package inject

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"harpocrates/internal/ace"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
	"harpocrates/internal/obs"
	"harpocrates/internal/segstore"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

// Content-addressed golden artifact cache.
//
// Every RunRange pays for one instrumented golden run before it
// simulates a single fault, and the golden run depends only on the
// program and the scalar golden configuration — not on the target
// structure (modulo FP netlist routing), the fault type, the seed or
// the shard bounds. A six-structure ranking sweep over one program
// therefore used to run six bit-identical golden simulations; a pull
// worker leasing six shards of one campaign ran six more. The cache
// collapses all of them to one compute per (program, config) key:
//
//   - an in-process sharded LRU with single-flight, shared by every
//     campaign in the process (corpus ranking sweeps, the local
//     Workers-parallel path, queue workers), refcounted so pooled
//     resources never return to their pools while a campaign still
//     reads them;
//   - an optional disk tier (a segstore.Store of encoded HXGA bundles)
//     under the same key, so a restarted worker process skips
//     recomputation entirely.
//
// Bit-identity is the contract: a campaign served from the cache
// produces Stats equal to a cold campaign, injection by injection.
// That holds because the golden run is deterministic, its
// instrumentation (interval recorders, checkpoints, the delta
// trajectory) is purely observational, and the key captures exactly
// the inputs the golden run reads: the program bytes and the scalar
// fields of goldenConfig, with the FP-netlist class folded in. Knobs
// that steer only how faulty runs are accelerated — CheckpointInterval,
// DeltaInterval, NoCycleSkip — are deliberately excluded: bundles
// computed under different settings of those knobs are interchangeable
// (checkpoint resume and delta termination are outcome-preserving at
// any spacing, asserted by differential tests).

// GoldenKey identifies one golden run: the content hash of the encoded
// program and the hash of the scalar golden configuration (with the
// golden class folded in).
type GoldenKey struct {
	Program uint64
	Config  uint64
}

// tag is the key's on-disk form in the disk tier.
func (k GoldenKey) tag() []byte { return segstore.Key(k.Program, k.Config) }

// goldenFormat frames one bundle in the disk tier's golden-XX.log
// segments. Checkpoint cores carry full memory images, so bundles are
// MBs where shard results are KBs; the bound only rejects corrupt
// lengths.
var goldenFormat = segstore.Format{TagSize: 16, MaxPayload: 256 << 20}

const (
	goldenShards = segstore.Shards
	// DefaultGoldenCacheEntries is the default in-process capacity in
	// bundles. Bundles are heavyweight (checkpoint cores hold full
	// memory images), so the default is sized for "a handful of
	// programs in flight", not thousands.
	DefaultGoldenCacheEntries = 64
)

type goldenEntry struct {
	key     GoldenKey
	ready   chan struct{} // closed once ga/err are set
	ga      *uarch.GoldenArtifacts
	err     error
	refs    int // campaigns currently reading the bundle
	evicted bool
	elem    *list.Element
}

type goldenShard struct {
	mu  sync.Mutex
	m   map[GoldenKey]*goldenEntry
	lru *list.List // of *goldenEntry; front = most recently used
}

// GoldenCache is the process-wide golden artifact cache. The zero value
// is not usable; construct with NewGoldenCache.
type GoldenCache struct {
	shards   [goldenShards]goldenShard
	perShard int
	// disk persists encoded bundles; nil when memory-only. Only its index
	// lives in memory — decoded bundles are held (and refcounted) above,
	// so the store runs without its value LRU.
	disk *segstore.Store
}

// NewGoldenCache returns a cache holding at most maxEntries decoded
// bundles (<= 0 means DefaultGoldenCacheEntries). dir, when non-empty,
// adds a disk tier under dir that persists encoded bundles across
// process restarts; a disk tier that fails to open is reported and the
// cache runs memory-only.
func NewGoldenCache(maxEntries int, dir string) (*GoldenCache, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultGoldenCacheEntries
	}
	per := (maxEntries + goldenShards - 1) / goldenShards
	g := &GoldenCache{perShard: per}
	for i := range g.shards {
		g.shards[i].m = make(map[GoldenKey]*goldenEntry)
		g.shards[i].lru = list.New()
	}
	if dir != "" {
		disk, err := segstore.OpenStore(dir, "golden-%02x.log", goldenFormat, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("inject: golden cache dir: %w", err)
		}
		g.disk = disk
	}
	return g, nil
}

// Close releases the disk tier (in-memory bundles stay usable).
func (g *GoldenCache) Close() error {
	if g == nil || g.disk == nil {
		return nil
	}
	return g.disk.Close()
}

var (
	sharedGoldenOnce sync.Once
	sharedGolden     *GoldenCache
)

// SharedGoldenCache returns the lazily-created process-wide cache that
// campaign runners use by default (memory-only; daemons that want a
// disk tier build their own with NewGoldenCache).
func SharedGoldenCache() *GoldenCache {
	sharedGoldenOnce.Do(func() {
		sharedGolden, _ = NewGoldenCache(DefaultGoldenCacheEntries, "")
	})
	return sharedGolden
}

func (g *GoldenCache) shardFor(key GoldenKey) *goldenShard {
	return &g.shards[(key.Program^key.Config)%goldenShards]
}

// Acquire returns the golden bundle for key, computing it with compute
// on a cold miss (single-flight: concurrent campaigns on the same key
// block on one computation). The returned release must be called when
// the campaign is done reading the bundle — pooled resources inside it
// go back to their pools only after the last reader of an evicted entry
// releases. Counters land on ob (per caller, so a corpus sweep and a
// queue worker sharing one cache each see their own hit rates).
func (g *GoldenCache) Acquire(key GoldenKey, prog []isa.Inst, ob *obs.Observer,
	compute func() *uarch.GoldenArtifacts) (*uarch.GoldenArtifacts, func(), error) {
	sh := g.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		e.refs++
		sh.lru.MoveToFront(e.elem)
		sh.mu.Unlock()
		<-e.ready
		if e.err != nil {
			g.release(sh, e)
			return nil, nil, e.err
		}
		ob.Counter("inject.golden.cache.hits").Inc()
		return e.ga, func() { g.release(sh, e) }, nil
	}

	e := &goldenEntry{key: key, ready: make(chan struct{}), refs: 1}
	e.elem = sh.lru.PushFront(e)
	sh.m[key] = e
	g.evictLocked(sh, ob)
	sh.mu.Unlock()

	ob.Counter("inject.golden.cache.misses").Inc()
	ga, err := g.load(key, prog, ob, compute)

	sh.mu.Lock()
	if err != nil {
		// Drop the entry so a later campaign retries the computation.
		delete(sh.m, key)
		sh.lru.Remove(e.elem)
		e.evicted = true
	}
	e.ga, e.err = ga, err
	close(e.ready)
	sh.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	ob.Gauge("inject.golden.cache.bytes").Set(float64(g.approxBytes()))
	return ga, func() { g.release(sh, e) }, nil
}

// load fills a cold entry: disk tier first, then compute (persisting
// the encoded bundle for the next process).
func (g *GoldenCache) load(key GoldenKey, prog []isa.Inst, ob *obs.Observer,
	compute func() *uarch.GoldenArtifacts) (*uarch.GoldenArtifacts, error) {
	if g.disk != nil {
		// An unreadable segment is a miss like any other: recompute.
		if data, src := g.disk.Get(key.tag()); src == segstore.Disk {
			ga, err := uarch.DecodeGoldenArtifacts(data, prog)
			if err == nil {
				ob.Counter("inject.golden.cache.disk_hits").Inc()
				return ga, nil
			}
			// A bundle that fails to decode (version skew, corruption the
			// CRC happened to collide on) is recomputed, never fatal.
			ob.Counter("inject.golden.cache.read_errors").Inc()
		}
	}
	start := time.Now()
	ga := compute()
	ob.Histogram("inject.golden.compute_ns").ObserveDuration(time.Since(start))
	if g.disk != nil {
		// Persisting is best-effort; the in-process tier still serves
		// this process when the write fails.
		if data, err := uarch.EncodeGoldenArtifacts(ga); err == nil {
			if stored, err := g.disk.Put(key.tag(), data); err != nil {
				ob.Counter("inject.golden.cache.write_errors").Inc()
			} else if stored {
				ob.Counter("inject.golden.cache.puts").Inc()
			}
		}
	}
	return ga, nil
}

// evictLocked trims the shard to capacity, skipping entries that are
// still being computed or still referenced (the cache may transiently
// exceed capacity rather than yank a bundle out from under a campaign).
func (g *GoldenCache) evictLocked(sh *goldenShard, ob *obs.Observer) {
	for el := sh.lru.Back(); el != nil && sh.lru.Len() > g.perShard; {
		prev := el.Prev()
		e := el.Value.(*goldenEntry)
		ready := false
		select {
		case <-e.ready:
			ready = true
		default:
		}
		if ready && e.err == nil {
			delete(sh.m, e.key)
			sh.lru.Remove(el)
			e.evicted = true
			ob.Counter("inject.golden.cache.evictions").Inc()
			if e.refs == 0 {
				e.ga.Release()
				e.ga = nil
			}
		}
		el = prev
	}
}

// release drops one reader reference; the last reader of an evicted
// entry returns its pooled resources.
func (g *GoldenCache) release(sh *goldenShard, e *goldenEntry) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e.refs--
	if e.refs == 0 && e.evicted && e.ga != nil {
		e.ga.Release()
		e.ga = nil
	}
}

// Purge evicts every resident bundle that has finished computing,
// returning pooled resources of the unreferenced ones immediately and
// of the referenced ones when their last reader releases. In-flight
// computations survive. For memory-pressure relief and test hygiene.
func (g *GoldenCache) Purge() {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; {
			prev := el.Prev()
			e := el.Value.(*goldenEntry)
			select {
			case <-e.ready:
				delete(sh.m, e.key)
				sh.lru.Remove(el)
				e.evicted = true
				if e.refs == 0 && e.ga != nil {
					e.ga.Release()
					e.ga = nil
				}
			default:
			}
			el = prev
		}
		sh.mu.Unlock()
	}
}

// Len returns the number of resident bundles (tests).
func (g *GoldenCache) Len() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

func (g *GoldenCache) approxBytes() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			select {
			case <-e.ready:
				n += e.ga.ApproxBytes()
			default:
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// goldenClass distinguishes golden runs whose functional-unit routing
// differs: FP targets execute through the fault-free netlists
// (goldenConfig installs the hooks), and hooks are invisible to the
// config's JSON form, so the class is folded into the key explicitly.
func (c *Campaign) goldenClass() uint64 {
	switch c.Target {
	case coverage.FPAdd:
		return 1
	case coverage.FPMul:
		return 2
	}
	return 0
}

// goldenKey derives the campaign's cache key. NoCycleSkip is normalized
// out: the golden run always executes the naive cycle loop (the
// checkpoint hook forces it), so the knob cannot change the bundle.
func (c *Campaign) goldenKey() GoldenKey {
	cfg := c.goldenConfig()
	cfg.NoCycleSkip = false
	h := stats.HashInit
	if b, err := json.Marshal(cfg); err == nil {
		h = stats.HashBytes(b)
	}
	return GoldenKey{Program: c.ProgramHash, Config: stats.Mix64(h, c.goldenClass())}
}

// goldenCacheable gates the cache. Beyond the obvious knobs, any
// configuration that attaches per-run instrumentation to the golden
// core (ACE/IBR trackers, a trace sink, a caller event schedule, debug
// scrubbing) is excluded: such state either escapes the serializable
// bundle or is invisible to the JSON key.
func (c *Campaign) goldenCacheable() bool {
	if c.GoldenCache == nil || c.NoGoldenCache || c.NoFastForward || c.ProgramHash == 0 {
		return false
	}
	cfg := &c.Cfg
	if cfg.TrackIRF || cfg.TrackL1D || cfg.TrackFPRF || cfg.TrackIBR ||
		cfg.DebugScrub || cfg.Trace != nil || len(cfg.Events) != 0 {
		return false
	}
	return true
}

// computeGoldenArtifacts runs the canonical shared-instrumentation
// golden: all three interval recorders on (any bit-array campaign
// sharing the bundle can pre-classify) and the delta trajectory always
// recorded at the default interval (any delta-eligible campaign can
// terminate against it). Checkpoints use the canonical spacing so the
// bundle is a pure function of (program, config). All of it is
// observational: the Result is bit-identical to Golden().
func (c *Campaign) computeGoldenArtifacts() *uarch.GoldenArtifacts {
	cfg := c.goldenConfig()
	cfg.RecordIRFIntervals = true
	cfg.RecordFPRFIntervals = true
	cfg.RecordL1DIntervals = true
	traj := uarch.GetDeltaTrajectory(0)
	cfg.DeltaRecord = traj
	var cks []*uarch.Checkpoint
	cfg.OnCycle = checkpointEvery(defaultCheckpointInterval, &cks)
	golden := uarch.Run(c.Prog, c.Init(), cfg)
	return &uarch.GoldenArtifacts{Result: golden, Checkpoints: cks, Trajectory: traj}
}

// acquireGolden returns the campaign's golden result, checkpoints and
// (when delta-eligible) trajectory, plus the release the caller must
// run after the last read. The cached path shares one bundle across
// every campaign with the same key; the uncached path owns its
// instrumentation and the release returns it to the pools directly.
func (c *Campaign) acquireGolden() (*uarch.Result, []*uarch.Checkpoint, *uarch.DeltaTrajectory, func()) {
	if c.goldenCacheable() {
		ga, rel, err := c.GoldenCache.Acquire(c.goldenKey(), c.Prog, c.Obs, c.computeGoldenArtifacts)
		if err == nil {
			traj := ga.Trajectory
			if !c.deltaEligible() {
				traj = nil
			}
			return ga.Result, ga.Checkpoints, traj, rel
		}
		// A cache-layer error (cannot happen today — compute is
		// infallible — but the entry API reserves it) degrades to the
		// uncached path rather than failing the campaign.
	}
	golden, cks, traj := c.goldenInstrumented()
	release := func() {
		ace.ReleaseIntervalRecorder(golden.IRFIntervals)
		ace.ReleaseIntervalRecorder(golden.FPRFIntervals)
		ace.ReleaseIntervalRecorder(golden.L1DIntervals)
		for _, ck := range cks {
			ck.Release()
		}
		uarch.ReleaseDeltaTrajectory(traj)
	}
	return golden, cks, traj, release
}
