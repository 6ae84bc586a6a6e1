package uarch

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"harpocrates/internal/isa"
)

// Delta resimulation: reconvergence-based early termination of faulty
// runs (DESIGN.md §4.12).
//
// The instrumented golden run records a DeltaTrajectory — a sparse
// sequence of (cycle, instret, committed-stream digest, machine-state
// hash) points taken every Interval cycles. A faulty run carrying the
// same trajectory as Config.DeltaCompare checks itself against the next
// point whenever its cycle counter reaches one (the points are wake
// candidates of the event-driven loop, so the check piggybacks on the
// PR 5 schedule instead of forcing per-cycle work): if the committed
// instruction stream, retire count and full machine-state hash all match
// the golden run's at the same cycle, every cycle that follows is — by
// determinism of the simulator — identical to the golden run's, so the
// run is Masked by construction and stops immediately.
//
// Soundness leans on the state hash covering *everything* that can
// influence future behaviour (PRF values and ready bits of live
// registers, free-list order, rename maps, the live ROB window with
// per-µop pipeline state, issue/store/in-flight queues, fetch queue and
// stall timers, branch predictor, L1D lines with LRU timestamps, L2
// tags, the architectural memory image, the nondeterminism counter) and
// on excluding only state that provably cannot: values of free physical
// registers (no reader can hold a freed mapping — any µop that renamed
// against it must have committed before the overwriter freed it),
// recomputed-per-cycle scratch (oldestUnexecStore, unit/port counters),
// scan lower bounds (wbReadyAt), state derived from hashed state (the
// wake-up lists, the ready set and each µop's pending count, all
// functions of the IQ and the ready bits, rebuilt by every copy), state
// derived from immutable inputs (the predecode table, a function of the
// program image that every copy shares), expired timestamps (normalized
// to 0), per-µop fields that are dead in the µop's current pipeline
// state, and pure telemetry (hit/miss
// counters, ACE buffers, skipped-cycle counts). TestCoreStateTable*
// classify every field of the core this way and check the
// classification against stateHash and copyState.
// Sequence numbers are hashed relative to the core's counter so a faulty
// run that renamed extra wrong-path µops before squashing back onto the
// golden trajectory still matches.
//
// The comparison is staged cheap-to-expensive: the per-commit stream
// digest (pc, next pc, destination values, store writes folded at
// retirement) and the retire count are compared first — one branch for
// runs that have visibly diverged — and the full state scan runs only
// when both match. A masked run therefore pays one or two state scans;
// a detected run pays eight bytes of comparison per point.
//
// The stream digest is *windowed*, not cumulative: it resets at every
// trajectory point, so a point's Stream covers only the commits since
// the previous point. This matters for the most important win class —
// a corrupted value that is consumed, committed and later overwritten
// (logically masked). A cumulative digest would remember the corrupted
// commit forever and block reconvergence; the windowed digest forgets it
// as soon as a window closes with identical commits, costing at most the
// one point whose window straddles the last corrupted commit. A
// comparing run resets its digest at every point cycle it passes —
// including points before its quiesce cycle, which are never compared —
// so its windows stay aligned with the golden run's.

// DefaultDeltaInterval is the default spacing (in cycles) between
// trajectory compare points.
const DefaultDeltaInterval = 512

// DeltaPoint is one golden-run trajectory sample: start-of-cycle state
// at Cycle, before that cycle's pipeline stages run.
type DeltaPoint struct {
	Cycle   uint64
	Instret uint64
	Stream  uint64 // committed-stream digest of this point's window
	State   uint64 // full machine-state hash at this cycle
}

// DeltaTrajectory is the golden run's recorded compare-point sequence.
// Recording appends points in cycle order; comparing runs read it
// concurrently (the injector records once, then shares it read-only
// across worker goroutines).
type DeltaTrajectory struct {
	// Interval is the spacing between points in cycles (0 on a recording
	// config means DefaultDeltaInterval).
	Interval uint64
	Points   []DeltaPoint
}

// deltaTrajPool recycles trajectories across campaigns, mirroring the
// interval-recorder pool: the points slice is the only allocation and is
// reused at full capacity.
var deltaTrajPool sync.Pool

// liveDeltaTrajectories counts Get minus Release — the pool-hygiene
// leak detector used by tests.
var liveDeltaTrajectories atomic.Int64

// GetDeltaTrajectory returns an empty trajectory with the given interval
// (0 means DefaultDeltaInterval), reusing pooled storage when available.
func GetDeltaTrajectory(interval uint64) *DeltaTrajectory {
	if interval == 0 {
		interval = DefaultDeltaInterval
	}
	liveDeltaTrajectories.Add(1)
	if v := deltaTrajPool.Get(); v != nil {
		t := v.(*DeltaTrajectory)
		t.Interval = interval
		t.Points = t.Points[:0]
		return t
	}
	return &DeltaTrajectory{Interval: interval}
}

// ReleaseDeltaTrajectory returns a trajectory to the pool (nil is a
// no-op). The caller must not retain references to it afterwards.
func ReleaseDeltaTrajectory(t *DeltaTrajectory) {
	if t == nil {
		return
	}
	liveDeltaTrajectories.Add(-1)
	deltaTrajPool.Put(t)
}

// LiveDeltaTrajectories returns the number of trajectories handed out
// and not yet released (leak-test hook).
func LiveDeltaTrajectories() int64 { return liveDeltaTrajectories.Load() }

// FNV-1a parameters, folded a word at a time (stats.Mix64's scheme,
// which folds a byte at a time; duplicated here to keep uarch
// dependency-free).
const (
	deltaOffset uint64 = 14695981039346656037
	deltaPrime  uint64 = 1099511628211
)

// deltaMix folds one word into h. The multiply alone carries a
// difference only upward, so two equal-bit differences in bits 56-63
// would cancel; rotating the high half down, where the next multiply
// spreads it again, finishes the word. (A rotate costs the serial fold
// one instruction; h ^= h>>32 costs two.)
func deltaMix(h, v uint64) uint64 {
	return bits.RotateLeft64((h^v)*deltaPrime, 32)
}

func deltaMixBytes(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		h = deltaMix(h, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * uint(i))
		}
		h = deltaMix(h, tail)
	}
	return h
}

// armDelta (re)initializes the per-run delta state from the config:
// the next record cycle for a recording run, and for a comparing run the
// first trajectory point ahead of the current cycle (deltaCmpIdx, which
// paces both window resets and comparisons) plus the first cycle at
// which comparison is meaningful (deltaCmpFrom). Points strictly before
// the quiesce cycle reset the digest window but are never compared —
// before the fault has finished manifesting, matching the golden hash
// means nothing (worse: for a not-yet-fired one-shot event it would
// "reconverge" a run whose fault never fired). Called at the end of init
// and of RestoreFrom (c.cycle is 0 or the checkpoint cycle
// respectively).
func (c *Core) armDelta() {
	c.reconverged = false
	c.deltaNextRec = 0
	c.deltaCmpIdx = 0
	c.deltaCmpFrom = 0
	c.deltaHashOn = c.cfg.DeltaRecord != nil || c.cfg.DeltaCompare != nil
	if rec := c.cfg.DeltaRecord; rec != nil {
		if rec.Interval == 0 {
			rec.Interval = DefaultDeltaInterval
		}
		c.deltaNextRec = (c.cycle/rec.Interval + 1) * rec.Interval
	}
	if cmp := c.cfg.DeltaCompare; cmp != nil {
		// A point at exactly the resume cycle was already processed by the
		// recording run before the checkpoint was captured (deltaTick runs
		// before the capture), so its window reset is in the restored
		// digest; start strictly after.
		for c.deltaCmpIdx < len(cmp.Points) && cmp.Points[c.deltaCmpIdx].Cycle <= c.cycle {
			c.deltaCmpIdx++
		}
		c.deltaCmpFrom = max(c.cfg.DeltaQuiesce, c.cycle+1)
	}
}

// foldCommit folds one retired instruction into the committed-stream
// digest: its PC, the next PC it chose, the values it left in its
// destination registers and the stores it performed. Called from commit
// after the µop's effects are applied, so a corrupted value that reaches
// architectural state diverges the digest at the very instruction that
// committed it.
func (c *Core) foldCommit(u *uop) {
	d := c.streamDigest
	d = deltaMix(d, uint64(int64(u.pc)))
	d = deltaMix(d, uint64(int64(u.actualNext)))
	for _, dst := range u.dests() {
		switch dst.cls {
		case clsInt:
			d = deltaMix(d, c.intPRF[dst.phys])
		case clsFP:
			v := c.fpPRF[dst.phys]
			d = deltaMix(d, v[0])
			d = deltaMix(d, v[1])
		case clsFlag:
			d = deltaMix(d, uint64(c.flagPRF[dst.phys]))
		}
	}
	for _, w := range u.stores() {
		d = deltaMix(d, w.addr)
		d = deltaMix(d, w.data)
	}
	c.streamDigest = d
}

// deltaTick runs the trajectory instrumentation for the current cycle —
// called at the top of both run loops, before the cycle's events fire
// and stages run, so a recorded point and a compared point see the same
// start-of-cycle state. Returns true when the run has reconverged with
// the golden trajectory and must stop.
func (c *Core) deltaTick() bool {
	if rec := c.cfg.DeltaRecord; rec != nil && c.cycle == c.deltaNextRec {
		rec.Points = append(rec.Points, DeltaPoint{
			Cycle:   c.cycle,
			Instret: c.instret,
			Stream:  c.streamDigest,
			State:   c.stateHash(),
		})
		c.deltaNextRec += rec.Interval
		c.streamDigest = deltaOffset // close the window
	}
	cmp := c.cfg.DeltaCompare
	if cmp == nil {
		return false
	}
	// Both loops visit every trajectory point exactly (they are wake
	// candidates); the catch-up scan is defensive only.
	for c.deltaCmpIdx < len(cmp.Points) && cmp.Points[c.deltaCmpIdx].Cycle < c.cycle {
		c.deltaCmpIdx++
	}
	if c.deltaCmpIdx >= len(cmp.Points) {
		return false
	}
	p := &cmp.Points[c.deltaCmpIdx]
	if p.Cycle != c.cycle {
		return false
	}
	c.deltaCmpIdx++
	stream := c.streamDigest
	c.streamDigest = deltaOffset // close the window, compared or not
	if p.Cycle < c.deltaCmpFrom {
		return false // pre-quiesce: window kept aligned, no comparison
	}
	if p.Instret != c.instret || p.Stream != stream {
		return false // visibly diverged: no point scanning state
	}
	if p.State != c.stateHash() {
		return false
	}
	c.reconverged = true
	return true
}

// hashFreeList folds register class cls's free list in order (pop order
// is behavioural: future allocations come off the tail, so two states
// with the same free set but different order diverge at the next rename)
// and returns a membership bitmap over the class's physical registers so
// the caller can skip the dead values of free registers. The bitmap
// storage (deltaScratch) is reused across the three classes of one scan.
func (c *Core) hashFreeList(h *uint64, cls int) []bool {
	free := c.free[cls]
	s := grow(c.deltaScratch, len(c.ready[cls]))
	c.deltaScratch = s
	clear(s)
	hh := deltaMix(*h, uint64(len(free)))
	for _, r := range free {
		hh = deltaMix(hh, uint64(r))
		s[r] = true
	}
	*h = hh
	return s
}

// normExpired maps a timestamp that no longer binds (at or before now)
// to 0, so two states differing only in how long ago a stall expired
// still hash equal.
func normExpired(t, now uint64) uint64 {
	if t <= now {
		return 0
	}
	return t
}

// stateHash digests every piece of machine state that can influence
// future architectural or timing behaviour (see the package comment at
// the top of this file for the exclusion argument). Two runs of this
// simulator whose state hashes match at the same cycle — assuming no
// hash collision — evolve identically from that cycle on, provided
// their configs schedule no further events.
func (c *Core) stateHash() uint64 {
	h := deltaOffset
	mix := func(v uint64) { h = deltaMix(h, v) }
	mixBool := func(v bool) {
		if v {
			mix(1)
		} else {
			mix(0)
		}
	}
	mixInt := func(v int) { mix(uint64(int64(v))) }

	// Front end, counters and timers.
	mixInt(c.fetchPC)
	mix(normExpired(c.fetchStallUntil, c.cycle))
	mix(c.instret)
	mixInt(c.nLoads)
	mixInt(c.nStores)
	mix(normExpired(c.divBusyUntil[0], c.cycle))
	mix(normExpired(c.divBusyUntil[1], c.cycle))
	mix(c.execState.NondetCounter())
	mix(uint64(len(c.fq)))
	for i := range c.fq {
		e := &c.fq[i]
		mixInt(e.pc)
		mixInt(e.predNext)
		mixBool(e.poison)
		mixBool(e.mutated)
		mixBool(e.bad)
	}
	// Decoder-fault latch: an armed-but-unconsumed fault will corrupt a
	// future fetch, and any live mutated entry executes the corrupted
	// decInst rather than the program image — both bind future behaviour.
	mixBool(c.decArmed)
	if c.decArmed {
		mixInt(c.decBit)
	}

	// Rename map.
	for _, p := range c.rat {
		mix(uint64(p))
	}

	// Physical register files: free-list order plus the value and ready
	// bit of every live (non-free) register. Free registers hold stale
	// garbage that legitimately differs after wrong-path work and can
	// never be read before being rewritten, so their values are excluded.
	free := c.hashFreeList(&h, clsInt)
	for r, v := range c.intPRF {
		if free[r] {
			continue
		}
		mix(v)
		mixBool(c.ready[clsInt][r])
	}
	free = c.hashFreeList(&h, clsFP)
	for r, v := range c.fpPRF {
		if free[r] {
			continue
		}
		mix(v[0])
		mix(v[1])
		mixBool(c.ready[clsFP][r])
	}
	free = c.hashFreeList(&h, clsFlag)
	for r, v := range c.flagPRF {
		if free[r] {
			continue
		}
		mix(uint64(v))
		mixBool(c.ready[clsFlag][r])
	}

	// The live ROB window (robHead itself is instret mod ROB size, so
	// hashing instret pins it; squashed entries never appear inside the
	// window — a squash removes a contiguous youngest suffix). Sequence
	// numbers are hashed relative to the allocation counter so extra
	// squashed-away wrong-path renames do not shift them.
	mix(uint64(c.robCnt))
	n := len(c.rob)
	for k := 0; k < c.robCnt; k++ {
		u := &c.rob[(c.robHead+k)%n]
		mix(c.seq - u.seq)
		mixInt(u.pc)
		mix(uint64(u.st))
		mixBool(u.poison)
		mixBool(u.bad)
		mixBool(u.mutated)
		if u.mutated {
			// The corrupted instruction lives outside the program image;
			// its contents decide this µop's entire future behaviour.
			hashInst(&h, u.inst)
		}
		mixBool(u.isLoad)
		mixBool(u.isStore)
		mixInt(u.predNext)
		if u.st != uWaiting {
			// Execution results. doneAt of an already-done µop records
			// *when* it completed — history, not future — and is
			// normalized away; an issued µop's doneAt is its pending
			// completion time and very much binds.
			if u.st == uIssued {
				mix(u.doneAt)
			} else {
				mix(0)
			}
			mixInt(u.actualNext)
			if u.crashed() {
				mix(uint64(u.err.Kind))
				mix(uint64(u.err.Exception()))
				mix(u.err.Addr)
			} else {
				mix(^uint64(0))
			}
			mix(uint64(u.nWrites))
			for _, w := range u.stores() {
				mix(w.addr)
				mix(w.data)
				mix(uint64(w.size))
			}
		}
		mix(uint64(u.nSrcs))
		for _, s := range u.sources() {
			mix(uint64(s.cls) | uint64(s.arch)<<8 | uint64(s.bits)<<16 | uint64(s.phys)<<32)
		}
		mix(uint64(u.nDsts))
		for _, d := range u.dests() {
			mix(uint64(d.cls) | uint64(d.arch)<<8 | uint64(d.phys)<<16 | uint64(d.old)<<32)
		}
		mixBool(u.snapValid)
		if u.snapValid {
			for _, p := range u.snap {
				mix(uint64(p))
			}
		}
	}

	// Scheduler queues hold ROB indices; with instret pinned above, raw
	// indices compare like relative ones. The in-flight list is filtered
	// the same way writeback filters it (squashed or already-written-back
	// entries are pruned lazily and carry no behaviour).
	mix(uint64(len(c.iq)))
	for _, idx := range c.iq {
		mixInt(idx)
	}
	mix(uint64(len(c.sq)))
	for _, idx := range c.sq {
		mixInt(idx)
	}
	for _, idx := range c.inflight {
		u := &c.rob[idx]
		if u.squashed || u.st != uIssued {
			continue
		}
		mixInt(idx)
	}
	mix(^uint64(0)) // in-flight terminator (filtered length varies)

	// Branch predictor (trained only at commit, but hashed rather than
	// derived from the stream digest so the state hash stands alone).
	mix(c.bp.history)
	h = deltaMixBytes(h, c.bp.table)

	// L1D and L2, one digest per checkpoint chunk (l1dLineDigest,
	// l2ChunkDigest): a chunk the core did not write since its arrays last
	// equaled a checkpoint's contributes that chunk's digest, computed once
	// and kept with the chunk; any other is digested from the arrays.
	d := c.cache
	for i := range d.lines {
		if e := d.from[i]; e != nil && !isSet(d.touched, i) {
			mix(e.digest())
		} else {
			mix(l1dLineDigest(&d.lines[i], d.lineData(i)))
		}
	}
	if l2 := d.l2; l2 != nil {
		per := l2ChunkSets * l2.ways
		for k, lo := 0, 0; lo < len(l2.tag); k, lo = k+1, lo+per {
			if e := l2.from[k]; e != nil && !isSet(l2.touched, k) {
				mix(e.digest())
			} else {
				hi := min(lo+per, len(l2.tag))
				mix(l2ChunkDigest(l2.valid[lo:hi], l2.tag[lo:hi], l2.lastUse[lo:hi]))
			}
		}
	}

	// Architectural memory image (writable regions; read-only regions
	// cannot change — dirty lines only exist for regions that accepted
	// the original store). The incremental digest makes this O(1) after
	// the first scan; it travels with checkpoints and core copies, so
	// faulty runs resumed mid-campaign never rescan the image.
	mix(c.mem.Digest())
	return h
}

// l1dLineDigest digests one L1D line: its validity and, if valid, its
// dirty bit, tag, LRU timestamp and bytes. An invalid line's data is dead
// (always refilled before use) and excluded — which also naturally masks
// flips into invalid lines. LRU timestamps are behavioural: they pick
// future victims, and a dirty eviction writes memory.
func l1dLineDigest(l *cacheLine, data []byte) uint64 {
	if !l.valid {
		return finishDigest(deltaMix(deltaOffset, 0))
	}
	dirty := uint64(0)
	if l.dirty {
		dirty = 1
	}
	h := deltaMix(deltaMix(deltaMix(deltaMix(deltaOffset, 1), dirty), l.tag), l.lastUse)
	return finishDigest(deltaMixBytes(h, data))
}

// l2ChunkDigest digests L2 tag entries: validity, and the tag and LRU
// timestamp of valid ones.
func l2ChunkDigest(valid []bool, tag, lastUse []uint64) uint64 {
	h := deltaOffset
	for i, v := range valid {
		if !v {
			h = deltaMix(h, 0)
			continue
		}
		h = deltaMix(deltaMix(deltaMix(h, 1), tag[i]), lastUse[i])
	}
	return finishDigest(h)
}

// finishDigest avalanches a chunk's fold (a splitmix64 finalizer) before
// the state hash folds it in. The fold multiplies, so a difference
// confined to the top bits of the words it folds stays in the top bits of
// its result, where two such differences can cancel: finished, each
// chunk's difference is spread over the whole word. It never returns 0,
// the chunks' "not yet computed".
func finishDigest(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return max(h^h>>31, 1)
}

// digest returns the line's l1dLineDigest, computing it on first use.
func (e *l1dLine) digest() uint64 {
	h := e.hash.Load()
	if h == 0 {
		h = l1dLineDigest(&e.line, e.data)
		e.hash.Store(h)
	}
	return h
}

// digest returns the chunk's l2ChunkDigest, computing it on first use.
func (e *l2Chunk) digest() uint64 {
	h := e.hash.Load()
	if h == 0 {
		h = l2ChunkDigest(e.valid, e.tag, e.lastUse)
		e.hash.Store(h)
	}
	return h
}

// hashInst folds a full instruction instance into the state hash. Only
// decoder-mutated µops need it: every other µop's instruction is
// determined by its PC and the (shared, immutable) program image.
func hashInst(h *uint64, in *isa.Inst) {
	hh := deltaMix(*h, uint64(in.V)|uint64(in.NOps)<<32)
	for i := range in.Ops {
		op := &in.Ops[i]
		hh = deltaMix(hh, uint64(op.Kind)|uint64(op.Reg)<<8|uint64(op.X)<<16)
		hh = deltaMix(hh, uint64(op.Imm))
		hh = deltaMix(hh, uint64(op.Mem.Base)|uint64(op.Mem.Index)<<8|uint64(op.Mem.Scale)<<16|uint64(uint32(op.Mem.Disp))<<24)
		if op.Mem.HasIndex {
			hh = deltaMix(hh, 1)
		}
	}
	*h = hh
}
