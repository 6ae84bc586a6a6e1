package uarch

import (
	"sync/atomic"

	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
)

// Checkpoint is an immutable snapshot of all simulator state at the
// start of one cycle: physical register files and free lists, rename
// maps, ROB/IQ/LSQ contents, cache SRAM and tags, L2 tags, branch
// predictor, cycle/sequence counters, statistics and ACE trackers, all
// copied, and the architectural memory image, which shares its pages
// with the core it was taken from (arch.Memory.CloneInto). Campaigns take
// checkpoints during the instrumented golden run and resume each faulty
// run from the nearest one preceding its injection cycle, skipping the
// bit-identical golden prefix.
//
// A checkpoint is reusable: restoring copies it again, so any number of
// runs can resume from the same snapshot — concurrently too: its memory
// owns none of its pages, so a restore only reads it and every resumed
// run copies the pages it goes on to write.
// Interval recorders and trace sinks are golden-run instrumentation and
// are not captured.
type Checkpoint struct {
	cycle uint64
	core  *Core
}

// Cycle returns the cycle the snapshot was taken at (start-of-cycle
// state: a restored run re-enters this cycle, so an OnCycle hook fires
// for it again).
func (ck *Checkpoint) Cycle() uint64 { return ck.cycle }

// liveCheckpoints counts Checkpoint minus Release — the pool-hygiene
// leak detector used by tests.
var liveCheckpoints atomic.Int64

// Checkpoint snapshots the core's current state. It is safe to call from
// an OnCycle hook, which is invoked before the cycle's pipeline stages —
// the snapshot then captures start-of-cycle state for that cycle. The
// snapshot's storage comes from the core pool; hand it back with Release
// when the checkpoint is no longer needed.
func (c *Core) Checkpoint() *Checkpoint {
	liveCheckpoints.Add(1)
	cp := getPooledCore()
	cp.copyFrom(c)
	return &Checkpoint{cycle: c.cycle, core: cp}
}

// Release returns the checkpoint's storage (a core copy: PRFs, ROB,
// cache SRAM, page table) to the core pool. The
// checkpoint must not be restored from afterwards; Release is idempotent
// and nil-safe. Callers must ensure no concurrent RestoreFrom is still
// reading the snapshot.
func (ck *Checkpoint) Release() {
	if ck == nil || ck.core == nil {
		return
	}
	liveCheckpoints.Add(-1)
	putPooledCore(ck.core)
	ck.core = nil
}

// LiveCheckpoints returns the number of checkpoints taken and not yet
// released (leak-test hook).
func LiveCheckpoints() int64 { return liveCheckpoints.Load() }

// RestoreFrom loads ck's state into c (another copy, sharing the memory
// pages, leaving the checkpoint reusable) and applies the run-specific
// config overrides:
// the OnCycle injection hook, the sparse event schedule and skip knob,
// the functional-unit hooks and window, the watchdog limit (when
// non-zero) and the trace sink. Structural parameters always come from
// the checkpoint.
func (c *Core) RestoreFrom(ck *Checkpoint, cfg Config) {
	c.copyFrom(ck.core)
	c.cfg.OnCycle = cfg.OnCycle
	c.cfg.Events = cfg.Events
	c.cfg.NoCycleSkip = cfg.NoCycleSkip
	c.cfg.FU = cfg.FU
	c.cfg.FUOutside = cfg.FUOutside
	c.cfg.FUWindow = cfg.FUWindow
	if cfg.MaxCycles != 0 {
		c.cfg.MaxCycles = cfg.MaxCycles
	}
	c.cfg.Trace = cfg.Trace
	// Delta resimulation: a restored run never extends the golden
	// trajectory (the checkpoint's config may still point at it), but it
	// may compare against one. The stream digest travels with the
	// checkpoint, so a resumed run's digest matches what the golden run's
	// was at this cycle.
	c.cfg.DeltaRecord = nil
	c.cfg.DeltaCompare = cfg.DeltaCompare
	c.cfg.DeltaQuiesce = cfg.DeltaQuiesce
	c.armDelta()
}

// RunFromCheckpoint resumes simulation from ck under the run-specific
// overrides of cfg (see Core.RestoreFrom) on a pooled core and returns
// the completed result. Safe for concurrent use with a shared
// checkpoint.
func RunFromCheckpoint(ck *Checkpoint, cfg Config) *Result {
	c := getPooledCore()
	c.RestoreFrom(ck, cfg)
	r := c.Run()
	putPooledCore(c)
	return r
}

// copyFrom makes c a copy of src, reusing c's existing allocations where
// shapes match (the checkpoint-restore and core-pool hot paths depend on
// it). Guest memory alone is shared, copy-on-write; src is written only
// if it still owns pages, which a checkpoint never does.
func (c *Core) copyFrom(src *Core) {
	c.cfg = src.cfg
	c.prog = src.prog
	c.pre = src.pre
	c.mem = src.mem.CloneInto(c.mem)

	var tr *ace.CacheTracker
	if src.cache.tracker != nil {
		var old *ace.CacheTracker
		if c.cache != nil {
			old = c.cache.tracker
		}
		tr = src.cache.tracker.CloneInto(old)
	}
	c.cache = copyDCacheInto(c.cache, src.cache, c.mem, tr)

	if c.bp != nil && len(c.bp.table) == len(src.bp.table) {
		c.bp.history = src.bp.history
		c.bp.mask = src.bp.mask
		copy(c.bp.table, src.bp.table)
	} else {
		c.bp = &gshare{history: src.bp.history, mask: src.bp.mask,
			table: append([]uint8(nil), src.bp.table...)}
	}

	if src.irf != nil {
		c.irf = src.irf.CloneInto(c.irf)
	} else {
		c.irf = nil
	}
	if src.fprf != nil {
		c.fprf = src.fprf.CloneInto(c.fprf)
	} else {
		c.fprf = nil
	}
	c.recIRF, c.recFPRF = nil, nil
	c.ibrC = src.ibrC

	c.intPRF = grow(c.intPRF, len(src.intPRF))
	copy(c.intPRF, src.intPRF)
	c.intReady = grow(c.intReady, len(src.intReady))
	copy(c.intReady, src.intReady)
	c.intFree = append(c.intFree[:0], src.intFree...)
	c.fpPRF = grow(c.fpPRF, len(src.fpPRF))
	copy(c.fpPRF, src.fpPRF)
	c.fpReady = grow(c.fpReady, len(src.fpReady))
	copy(c.fpReady, src.fpReady)
	c.fpFree = append(c.fpFree[:0], src.fpFree...)
	c.flagPRF = grow(c.flagPRF, len(src.flagPRF))
	copy(c.flagPRF, src.flagPRF)
	c.flagRdy = grow(c.flagRdy, len(src.flagRdy))
	copy(c.flagRdy, src.flagRdy)
	c.flagFree = append(c.flagFree[:0], src.flagFree...)
	c.rat = src.rat

	c.rob = copyUopsInto(c.rob, src.rob)
	c.robHead = src.robHead
	c.robCnt = src.robCnt
	c.iq = append(c.iq[:0], src.iq...)
	c.sq = append(c.sq[:0], src.sq...)
	c.inflight = append(c.inflight[:0], src.inflight...)
	c.fq = append(c.fq[:0], src.fq...)
	c.fetchPC = src.fetchPC
	c.fetchStallUntil = src.fetchStallUntil
	c.decArmed = src.decArmed
	c.decBit = src.decBit
	c.decInst = src.decInst
	// A mutated µop's inst points at its core's decInst; rebind it to the
	// copy's. (Checkpoints are only taken on golden runs, which never
	// carry mutated µops, but pooled-core copies are cheap to keep exact.)
	for i := range c.rob {
		if c.rob[i].mutated {
			c.rob[i].inst = &c.decInst
		}
	}
	c.rebuildWakeup()

	c.cycle = src.cycle
	// Run-loop scratch: wbReadyAt is only a lower bound on the next
	// writeback, so resetting it to 0 is always safe (first writeback scan
	// re-derives it); carrying a stale-high value from a previous pooled
	// run would wrongly suppress writeback. skipped is per-run telemetry.
	c.progressed = false
	c.wbReadyAt = 0
	c.skipped = 0
	// The committed-stream digest is real state and travels with the
	// copy; the arming fields are re-derived (RestoreFrom calls armDelta
	// after applying its overrides — a bare copy never records/compares).
	c.streamDigest = src.streamDigest
	c.deltaHashOn = false
	c.deltaNextRec = 0
	c.deltaCmpIdx = 0
	c.deltaCmpFrom = 0
	c.reconverged = false
	c.seq = src.seq
	c.instret = src.instret
	c.nLoads, c.nStores = src.nLoads, src.nStores
	c.memPortsUsed = src.memPortsUsed
	c.unitUsed = src.unitUsed
	c.divBusyUntil = src.divBusyUntil
	c.oldestUnexecStore = src.oldestUnexecStore

	// Struct assignment carries the nondeterminism counter; the memory
	// bus and FU hooks are rebound at every execUop.
	c.execState = src.execState
	c.execState.Mem = nil
	c.execState.FU = nil
	c.bus = execBus{c: c}

	c.branches, c.mispredicts = src.branches, src.mispredicts
	c.flushes = src.flushes
	c.crash = src.crash
	c.timedOut = src.timedOut
	c.finished = src.finished
}

// copyUopsInto deep-copies ROB entries, retaining dst's per-µop slice
// capacity.
func copyUopsInto(dst, src []uop) []uop {
	dst = grow(dst, len(src))
	for i := range src {
		d, s := &dst[i], &src[i]
		srcs, dsts, writes, events, ibr := d.srcs, d.dsts, d.writes, d.events, d.ibr
		*d = *s
		d.srcs = append(srcs[:0], s.srcs...)
		d.dsts = append(dsts[:0], s.dsts...)
		d.writes = append(writes[:0], s.writes...)
		d.events = append(events[:0], s.events...)
		d.ibr = append(ibr[:0], s.ibr...)
	}
	return dst
}

// copyDCacheInto deep-copies the L1D model, rebinding it to the copy's
// backing memory and tracker.
func copyDCacheInto(dst, src *dcache, backing *arch.Memory, tracker *ace.CacheTracker) *dcache {
	if dst == nil || dst.cfg != src.cfg || len(dst.lines) != len(src.lines) {
		dst = &dcache{
			cfg:     src.cfg,
			numSets: src.numSets,
			lines:   make([]cacheLine, len(src.lines)),
			data:    make([]byte, len(src.data)),
		}
	}
	dst.numSets = src.numSets
	dst.backing = backing
	dst.tracker = tracker
	dst.rec = nil
	copy(dst.data, src.data)
	for i := range src.lines {
		l := src.lines[i]
		l.data = dst.data[i*src.cfg.LineBytes : (i+1)*src.cfg.LineBytes]
		dst.lines[i] = l
	}
	dst.l2 = copyL2Into(dst.l2, src.l2)
	dst.l2HitLat = src.l2HitLat
	dst.memLat = src.memLat
	dst.prefetch = src.prefetch
	dst.hits, dst.misses, dst.writebacks = src.hits, src.misses, src.writebacks
	return dst
}

func copyL2Into(dst, src *l2tags) *l2tags {
	if src == nil {
		return nil
	}
	if dst == nil || dst.numSets != src.numSets || dst.ways != src.ways {
		dst = &l2tags{
			numSets:   src.numSets,
			ways:      src.ways,
			lineBytes: src.lineBytes,
			valid:     make([]bool, len(src.valid)),
			tag:       make([]uint64, len(src.tag)),
			lastUse:   make([]uint64, len(src.lastUse)),
		}
	}
	dst.lineBytes = src.lineBytes
	copy(dst.valid, src.valid)
	copy(dst.tag, src.tag)
	copy(dst.lastUse, src.lastUse)
	dst.hits, dst.misses, dst.prefetches = src.hits, src.misses, src.prefetches
	return dst
}
