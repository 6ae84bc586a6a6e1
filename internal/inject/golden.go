package inject

import (
	"container/list"
	"encoding/json"
	"sync"
	"time"

	"harpocrates/internal/coverage"
	"harpocrates/internal/obs"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

// Content-addressed golden artifact cache.
//
// Every RunRange pays for one instrumented golden run before it
// simulates a single fault, and the golden run depends only on the
// program and the scalar golden configuration — not on the target
// structure (modulo the functional units' golden classes), the fault
// type, the seed or the shard bounds. A six-structure ranking sweep over
// one program therefore used to run six bit-identical golden
// simulations; a pull worker leasing six shards of one campaign ran six
// more. The cache
// collapses all of them to one compute per (program, config) key: an
// in-process LRU with single-flight, shared by every campaign in the
// process (corpus ranking sweeps, the local Workers-parallel path, queue
// workers), refcounted so pooled resources never return to their pools
// while a campaign still reads them. A bundle is never persisted: a new
// process recomputes it, which costs less than writing it down did
// (EXPERIMENTS.md, "Tried and removed").
//
// Bit-identity is the contract: a campaign served from the cache
// produces Stats equal to a cold campaign, injection by injection.
// That holds because the golden run is deterministic, its
// instrumentation (interval recorders, checkpoints, the delta
// trajectory) is purely observational, and the key captures exactly
// the inputs the golden run reads: the program bytes and the scalar
// fields of goldenConfig, with the golden class folded in. What a
// shared bundle records is fixed (buildGolden), so it is a pure function
// of that key.

// GoldenKey identifies one golden run: the content hash of the encoded
// program and the hash of the scalar golden configuration (with the
// golden class folded in).
type GoldenKey struct {
	Program uint64
	Config  uint64
}

// DefaultGoldenCacheEntries is the default in-process capacity in
// bundles. Bundles are heavyweight (MBs: one checkpoint per
// uarch.CheckpointSpacing golden cycles, each holding its live ROB,
// register files and the cache chunks written since the previous one,
// plus the interval logs), so the default is sized for "a handful of
// programs in flight", not thousands.
const DefaultGoldenCacheEntries = 64

type goldenEntry struct {
	key     GoldenKey
	ready   chan struct{} // closed once ga is set
	ga      *uarch.GoldenArtifacts
	bytes   int // ga.ApproxBytes(), once asked for; guarded by GoldenCache.mu
	refs    int // campaigns currently reading the bundle
	evicted bool
	elem    *list.Element
}

// computed reports whether the entry's bundle has been filled in.
func (e *goldenEntry) computed() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// GoldenCache is the process-wide golden artifact cache. The zero value
// is not usable; construct with NewGoldenCache.
type GoldenCache struct {
	// mu guards one map lookup and one list move per RunRange; the golden
	// run itself computes outside it.
	mu  sync.Mutex
	m   map[GoldenKey]*goldenEntry
	lru *list.List // of *goldenEntry; front = most recently used
	max int
}

// NewGoldenCache returns a cache holding at most maxEntries bundles
// (<= 0 means DefaultGoldenCacheEntries).
func NewGoldenCache(maxEntries int) *GoldenCache {
	if maxEntries <= 0 {
		maxEntries = DefaultGoldenCacheEntries
	}
	return &GoldenCache{m: make(map[GoldenKey]*goldenEntry), lru: list.New(), max: maxEntries}
}

var (
	sharedGoldenOnce sync.Once
	sharedGolden     *GoldenCache
)

// SharedGoldenCache returns the lazily-created process-wide cache.
func SharedGoldenCache() *GoldenCache {
	sharedGoldenOnce.Do(func() { sharedGolden = NewGoldenCache(0) })
	return sharedGolden
}

// Acquire returns the golden bundle for key, computing it with compute
// on a cold miss (single-flight: concurrent campaigns on the same key
// block on one computation). The returned release must be called when
// the campaign is done reading the bundle — pooled resources inside it
// go back to their pools only after the last reader of an evicted entry
// releases. Counters land on ob (per caller, so a corpus sweep and a
// queue worker sharing one cache each see their own hit rates).
func (g *GoldenCache) Acquire(key GoldenKey, ob *obs.Observer,
	compute func() *uarch.GoldenArtifacts) (*uarch.GoldenArtifacts, func()) {
	g.mu.Lock()
	e, hit := g.m[key]
	if hit {
		e.refs++
		g.lru.MoveToFront(e.elem)
	} else {
		e = &goldenEntry{key: key, ready: make(chan struct{}), refs: 1}
		e.elem = g.lru.PushFront(e)
		g.m[key] = e
		g.evictLocked(ob)
	}
	g.mu.Unlock()
	if hit {
		<-e.ready
		ob.Counter("inject.golden.cache.hits").Inc()
	} else {
		ob.Counter("inject.golden.cache.misses").Inc()
		start := time.Now()
		e.ga = compute()
		ob.Histogram("inject.golden.compute_ns").ObserveDuration(time.Since(start))
		close(e.ready)
		if ob.Enabled() {
			ob.Gauge("inject.golden.cache.bytes").Set(float64(g.approxBytes()))
		}
	}
	return e.ga, func() { g.release(e) }
}

// dropLocked takes a computed entry out of the index. Its pooled
// resources return now if no campaign reads it, otherwise when the last
// reader releases.
func (g *GoldenCache) dropLocked(e *goldenEntry) {
	delete(g.m, e.key)
	g.lru.Remove(e.elem)
	e.evicted = true
	if e.refs == 0 {
		e.ga.Release()
		e.ga = nil
	}
}

// evictLocked trims the cache to capacity from the cold end, skipping
// entries that are still being computed (the cache may transiently
// exceed capacity rather than drop a bundle nobody has seen yet).
func (g *GoldenCache) evictLocked(ob *obs.Observer) {
	for el := g.lru.Back(); el != nil && g.lru.Len() > g.max; {
		prev := el.Prev()
		if e := el.Value.(*goldenEntry); e.computed() {
			g.dropLocked(e)
			ob.Counter("inject.golden.cache.evictions").Inc()
		}
		el = prev
	}
}

// release drops one reader reference; the last reader of an evicted
// entry returns its pooled resources.
func (g *GoldenCache) release(e *goldenEntry) {
	g.mu.Lock()
	defer g.mu.Unlock()
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
	g.mu.Lock()
	defer g.mu.Unlock()
	for el := g.lru.Back(); el != nil; {
		prev := el.Prev()
		if e := el.Value.(*goldenEntry); e.computed() {
			g.dropLocked(e)
		}
		el = prev
	}
}

// Len returns the number of resident bundles (tests).
func (g *GoldenCache) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

func (g *GoldenCache) approxBytes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, e := range g.m {
		if e.computed() {
			if e.bytes == 0 {
				e.bytes = e.ga.ApproxBytes() // a bundle never changes
			}
			n += e.bytes
		}
	}
	return n
}

// goldenClass distinguishes golden runs whose functional-unit routing
// or recording differs: FP targets execute through the fault-free
// netlists (goldenConfig installs the hooks), and each functional-unit
// target records its own unit's operand stream (buildGolden). Hooks are
// invisible to the config's JSON form, so the class is folded into the
// key explicitly. Every other target is class 0.
func (c *Campaign) goldenClass() uint64 {
	switch c.Target {
	case coverage.FPAdd:
		return 1
	case coverage.FPMul:
		return 2
	case coverage.IntAdder:
		return 3
	case coverage.IntMul:
		return 4
	}
	return 0
}

// goldenKey derives the campaign's cache key. NoCycleSkip is normalized
// out: the naive and the skipping loop record the same bundle, checkpoints
// included (TestCheckpointSharingBitIdentical), so the knob cannot change
// it.
func (c *Campaign) goldenKey() GoldenKey {
	cfg := c.baseConfig() // the hooks goldenConfig adds are not in the JSON
	cfg.NoCycleSkip = false
	h := stats.HashInit
	if b, err := json.Marshal(cfg); err == nil {
		h = stats.HashBytes(b)
	}
	return GoldenKey{Program: c.ProgramHash, Config: stats.Mix64(h, c.goldenClass())}
}

// goldenCacheable gates the cache. Beyond a missing cache or program
// hash and the from-zero path (which reads only the Result), any
// configuration that attaches per-run instrumentation to the golden
// core (ACE/IBR trackers, a trace sink, a caller event schedule, debug
// scrubbing) is excluded: such state is invisible to the JSON key, so
// the bundle would no longer be a pure function of it.
func (c *Campaign) goldenCacheable() bool {
	if c.GoldenCache == nil || c.NoFastForward || c.ProgramHash == 0 {
		return false
	}
	cfg := &c.Cfg
	if cfg.TrackIRF || cfg.TrackL1D || cfg.TrackFPRF || cfg.TrackIBR ||
		cfg.DebugScrub || cfg.Trace != nil || len(cfg.Events) != 0 {
		return false
	}
	return true
}

// buildGolden runs the fault-free reference, the campaign's one golden
// prologue, and returns everything RunRange reads from it. What the run
// records besides its Result follows from who will read the bundle:
//
//   - shared (it goes into a GoldenCache): the delta trajectory at the
//     default spacing and the checkpoints, plus everything any campaign
//     on the key can pre-classify against — all three interval logs on
//     class 0, the unit's operand stream on a functional-unit class —
//     whatever this campaign targets, so the bundle is a pure function
//     of (program, config, class);
//   - not shared: the checkpoints plus exactly what this campaign reads —
//     its own target's log if it pre-classifies (transient faults in a
//     bit array), its unit's operand stream (functional units), the
//     trajectory if it is delta-eligible;
//   - NoFastForward reads none of it: a bare Result.
//
// Checkpoints come every uarch.CheckpointSpacing cycles from cycle 0 on,
// thinned only past 256 of them (uarch.Config.Checkpoints). All of it is
// observational, and the run keeps skipping stalled cycles: the Result
// is bit-identical to Golden().
func (c *Campaign) buildGolden(shared bool) *uarch.GoldenArtifacts {
	cfg := c.goldenConfig()
	if c.NoFastForward {
		return &uarch.GoldenArtifacts{Result: uarch.Run(c.Prog, c.Init(), cfg)}
	}
	// Only the ACE-tracked bit arrays have a consumed-interval
	// pre-classifier; the microarchitectural sites (decoder, gshare, LSQ,
	// ROB metadata, L2 tags) are always simulated.
	fu := c.Target.IsFunctionalUnit()
	logs := shared && !fu
	premasks := c.Type == Transient
	cfg.RecordIRFIntervals = logs || premasks && c.Target == coverage.IRF
	cfg.RecordFPRFIntervals = logs || premasks && c.Target == coverage.FPRF
	cfg.RecordL1DIntervals = logs || premasks && c.Target == coverage.L1D
	ga := &uarch.GoldenArtifacts{}
	if shared || c.deltaEligible() {
		spacing := c.trajectorySpacing
		if shared {
			spacing = 0
		}
		ga.Trajectory = uarch.GetDeltaTrajectory(spacing)
		cfg.DeltaRecord = ga.Trajectory
	}
	cfg.Checkpoints = &ga.Checkpoints
	if !fu {
		ga.Result = uarch.Run(c.Prog, c.Init(), cfg)
		return ga
	}
	// The operand stream stamps each call with the cycle the core is in.
	var core *uarch.Core
	ga.FUStream = c.recordFUStream(&cfg, func() uint64 { return core.Cycle() })
	core = uarch.NewCore(c.Prog, c.Init(), cfg)
	ga.Result = core.Run()
	return ga
}

// computeGoldenArtifacts builds the shared bundle: a GoldenCache's
// compute callback.
func (c *Campaign) computeGoldenArtifacts() *uarch.GoldenArtifacts { return c.buildGolden(true) }

// acquireGolden returns the campaign's golden bundle and the release to
// run after the last read: a reference to the cache's bundle, or one
// built for this RunRange alone that the release returns to the pools.
func (c *Campaign) acquireGolden() (*uarch.GoldenArtifacts, func()) {
	if c.goldenCacheable() {
		return c.GoldenCache.Acquire(c.goldenKey(), c.Obs, c.computeGoldenArtifacts)
	}
	ga := c.buildGolden(false)
	return ga, ga.Release
}
