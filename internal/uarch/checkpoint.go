package uarch

import (
	"slices"
	"sync"
	"sync/atomic"

	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
)

// CheckpointSpacing is the cycle spacing of the checkpoints a run
// captures for Config.Checkpoints: one at the top of every cycle that is a
// multiple of it, cycle 0 included. A faulty run resumed from them
// re-simulates fewer than this many golden cycles before its fault, on
// runs of up to maxCheckpoints·CheckpointSpacing cycles.
const CheckpointSpacing = 128

// maxCheckpoints bounds the checkpoints a run holds. A run that reaches
// it drops every other one, cycle 0 kept, and doubles its spacing, so a
// checkpoint's memory stays bounded however long the run: 32,768 cycles
// keep the full spacing, past every preset program's golden run, and a
// 95,000-cycle suite kernel keeps one checkpoint every 512 cycles.
const maxCheckpoints = 256

// Checkpoint is an immutable snapshot of all simulator state at the
// start of one cycle. It holds only what is live and what changed:
//
//   - copied: the physical register files, their ready bits and free
//     lists, the issue, store, in-flight and fetch queues, the branch
//     predictor, the scalar state (pipeState: the rename map, counters,
//     timers and statistics), and of the ROB only the live window and the
//     in-flight µops, each a whole uop (a value) copied by copyUop, the
//     one copy capture and restore share (every other entry is dead:
//     rename resets it before reuse);
//   - copied if the core wrote it since its previous checkpoint, else
//     shared with that checkpoint: the L1D, one line (metadata and bytes)
//     per chunk, and the L2 tag array, l2ChunkSets sets per chunk (the core
//     keeps, per chunk, which checkpoint chunk its arrays last equaled
//     and whether it wrote them since: dcache.from and touched);
//   - shared: the guest memory pages (arch.Memory.CloneInto) and the
//     predecode table.
//
// Shared chunks follow arch.Memory's ownership rule: once shared, nothing
// owns them, so nothing writes them. The running core never shares: a
// restore copies every chunk into arrays the core owns, because a faulty
// run goes on to write most sets and sharing them copy-on-write would
// allocate at every first touch. It only skips copying a chunk its
// arrays already hold unwritten. A chunk is garbage once the last
// checkpoint or core naming it is gone.
//
// Campaigns take checkpoints during the golden run (Config.Checkpoints)
// and resume each faulty run from the nearest one at or before its first
// faulty cycle, skipping the bit-identical golden prefix. A checkpoint is
// reusable: any number of runs can restore from it, concurrently too,
// because a restore only reads it. Coverage tracking, interval recorders
// and trace sinks are golden-run instrumentation and are not captured: a
// restored run reports no coverage.
type Checkpoint struct {
	cycle    uint64
	*ckState // nil once released
}

// ckState is a checkpoint's state. Release hands it to ckStatePool, which
// recycles all of it but the cache chunks, so a golden run's captures
// reuse what the previous campaign's checkpoints held.
type ckState struct {
	// core holds everything but the ROB entries and the cache arrays
	// (copyState): its rob, L1D lines and SRAM and L2 tag arrays are nil.
	core *Core
	// rob holds the live µops (liveSlots); slots[i] is rob[i]'s ROB slot.
	rob   []uop
	slots []int32
	l1d   []*l1dLine // one per L1D line
	l2    []*l2Chunk // one per l2ChunkSets L2 sets; nil without an L2
}

var ckStatePool = sync.Pool{New: func() any { return &ckState{core: new(Core)} }}

// l1dLine is one L1D line's metadata and bytes as checkpoints hold them.
type l1dLine struct {
	line cacheLine
	data []byte
	hash atomic.Uint64 // l1dLineDigest, once computed (0 until then)
}

// l2Chunk is l2ChunkSets consecutive L2 sets as checkpoints hold them.
type l2Chunk struct {
	valid   []bool
	tag     []uint64
	lastUse []uint64
	hash    atomic.Uint64 // l2ChunkDigest, once computed (0 until then)
}

// Cycle returns the cycle the snapshot was taken at: start-of-cycle
// state, after that cycle's trajectory point and before its events fire,
// so a restored run re-enters the cycle and fires them.
func (ck *Checkpoint) Cycle() uint64 { return ck.cycle }

// liveCheckpoints counts Checkpoint minus Release — the leak detector
// used by tests.
var liveCheckpoints atomic.Int64

// Checkpoint snapshots the core's current state: at the top of a cycle
// when called from a run's capture (Config.Checkpoints) or an OnCycle
// hook, at the end of the run when called after Run. It shares the cache
// chunks the core did not write since its previous checkpoint (or
// restore) with that one. Hand it back with Release when it is no longer
// needed.
func (c *Core) Checkpoint() *Checkpoint {
	liveCheckpoints.Add(1)
	ck := c.snapshot(ckStatePool.Get().(*ckState))
	// RestoreFrom replaces the run's hooks and instrumentation, so the
	// checkpoint keeps none of them, nor what their closures hold alive.
	cfg := &ck.core.cfg
	cfg.FU, cfg.FUOutside, cfg.OnCycle, cfg.Events, cfg.Trace = nil, nil, nil, nil, nil
	cfg.Checkpoints, cfg.DeltaRecord, cfg.DeltaCompare = nil, nil, nil
	return ck
}

// snapshot is Checkpoint without the leak accounting, into s.
func (c *Core) snapshot(s *ckState) *Checkpoint {
	ck := &Checkpoint{cycle: c.cycle, ckState: s}
	ck.core.copyState(c)
	ck.slots = c.liveSlots(ck.slots[:0])
	ck.rob = grow(ck.rob, len(ck.slots))
	for i, s := range ck.slots {
		copyUop(&ck.rob[i], &c.rob[s])
	}
	ck.captureCache(c.cache)
	return ck
}

// Release drops the checkpoint's state. The checkpoint must not be
// restored from afterwards; Release is idempotent and nil-safe. Callers
// must ensure no concurrent RestoreFrom is still reading the snapshot.
func (ck *Checkpoint) Release() {
	if ck == nil || ck.ckState == nil {
		return
	}
	liveCheckpoints.Add(-1)
	s := ck.ckState
	ck.ckState = nil
	clear(s.l1d) // the chunks are shared: the collector frees them
	clear(s.l2)
	ckStatePool.Put(s)
}

// LiveCheckpoints returns the number of checkpoints taken and not yet
// released (leak-test hook).
func LiveCheckpoints() int64 { return liveCheckpoints.Load() }

// RestoreFrom loads ck's state into c (copying it, leaving the checkpoint
// reusable; memory pages are shared copy-on-write) and applies the
// run-specific config overrides: the OnCycle hook, the sparse event
// schedule and skip knob, the functional-unit hooks and window, the
// watchdog limit (when non-zero) and the trace sink. Structural
// parameters always come from the checkpoint. A restored run captures no
// checkpoints.
func (c *Core) RestoreFrom(ck *Checkpoint, cfg Config) {
	c.restore(ck)
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
	// trajectory (the checkpoint's config holds none), but it may compare
	// against one. The stream digest travels with the checkpoint, so a
	// resumed run's digest matches what the golden run's was at this
	// cycle.
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

// restore makes c a copy of ck's state, reusing c's allocations where
// shapes match (the restore hot path depends on it). The ROB slots that
// hold no live µop keep whatever c held: dead entries, reset by rename
// before reuse.
func (c *Core) restore(ck *Checkpoint) {
	c.copyState(ck.core)
	c.rob = grow(c.rob, c.cfg.ROBSize)
	for i, s := range ck.slots {
		copyUop(&c.rob[s], &ck.rob[i])
	}
	ck.restoreCache(c.cache)
	c.rebuildWakeup()
}

// copyState makes c's state src's, all but the ROB entries, the cache
// arrays and the wake-up lists: the arrays and queues one by one, into
// c's own allocations, then pipeState as one value and runScratch reset.
// Capture and restore both copy with it. Guest memory alone is shared,
// copy-on-write; src is written only if it still owns pages, which a
// checkpoint never does.
func (c *Core) copyState(src *Core) {
	c.cfg = src.cfg
	c.prog = src.prog
	c.pre = src.pre
	c.mem = src.mem.CloneInto(c.mem)
	c.cache = copyDCacheState(c.cache, src.cache, c.mem)

	if c.bp != nil && len(c.bp.table) == len(src.bp.table) {
		c.bp.history = src.bp.history
		c.bp.mask = src.bp.mask
		copy(c.bp.table, src.bp.table)
	} else {
		c.bp = &gshare{history: src.bp.history, mask: src.bp.mask,
			table: append([]uint8(nil), src.bp.table...)}
	}

	// A copy carries no coverage state and records no log: a checkpoint
	// does not capture them, and a restored run reports neither.
	c.cfg.TrackIRF, c.cfg.TrackL1D, c.cfg.TrackFPRF, c.cfg.TrackIBR = false, false, false, false
	c.cfg.RecordIRFIntervals, c.cfg.RecordFPRFIntervals, c.cfg.RecordL1DIntervals = false, false, false
	c.recIRF, c.recFPRF = nil, nil
	c.ibrC = [coverage.NumStructures]coverage.IBRCounter{}

	c.intPRF = append(c.intPRF[:0], src.intPRF...)
	c.fpPRF = append(c.fpPRF[:0], src.fpPRF...)
	c.flagPRF = append(c.flagPRF[:0], src.flagPRF...)
	for cls := range c.ready {
		c.ready[cls] = append(c.ready[cls][:0], src.ready[cls]...)
		c.free[cls] = append(c.free[cls][:0], src.free[cls]...)
	}
	c.iq = append(c.iq[:0], src.iq...)
	c.sq = append(c.sq[:0], src.sq...)
	c.inflight = append(c.inflight[:0], src.inflight...)
	c.fq = append(c.fq[:0], src.fq...)

	// The execute stage's memory bus and FU hooks are rebound at every
	// execUop; the bus itself is rebound to c.
	c.pipeState = src.pipeState
	c.execState.Mem, c.execState.FU = nil, nil
	c.bus = execBus{c: c}
	// A copy captures no checkpoints and is not armed for delta
	// resimulation (RestoreFrom arms it after applying its overrides).
	c.runScratch = runScratch{ckNext: ^uint64(0)}
}

// copyDCacheState copies the L1D and L2 models' configuration and
// statistics, rebinding the L1D to the copy's backing memory. Their
// arrays are the checkpoint's business (captureCache, restoreCache).
func copyDCacheState(dst, src *dcache, backing *arch.Memory) *dcache {
	if dst == nil {
		dst = &dcache{}
	}
	dst.cfg = src.cfg
	dst.numSets = src.numSets
	dst.backing = backing
	dst.rec = nil
	dst.l2HitLat = src.l2HitLat
	dst.memLat = src.memLat
	dst.prefetch = src.prefetch
	dst.hits, dst.misses, dst.writebacks = src.hits, src.misses, src.writebacks
	if src.l2 == nil {
		dst.l2 = nil
		return dst
	}
	if dst.l2 == nil {
		dst.l2 = &l2tags{}
	}
	t, s := dst.l2, src.l2
	t.numSets, t.ways, t.lineBytes = s.numSets, s.ways, s.lineBytes
	t.hits, t.misses, t.prefetches = s.hits, s.misses, s.prefetches
	return dst
}

// liveSlots appends to dst, once each, the ROB slots that carry state:
// the live window, then the in-flight µops outside it (a squashed µop
// stays in flight until writeback drops it). Every other entry is dead:
// rename resets an entry before reusing it.
func (c *Core) liveSlots(dst []int32) []int32 {
	dst = slices.Grow(dst, c.robCnt+len(c.inflight))
	n := len(c.rob)
	for k := 0; k < c.robCnt; k++ {
		dst = append(dst, int32((c.robHead+k)%n))
	}
	window := len(dst)
	for _, idx := range c.inflight {
		if (idx-c.robHead+n)%n >= c.robCnt && !slices.Contains(dst[window:], int32(idx)) {
			dst = append(dst, int32(idx))
		}
	}
	return dst
}

// copyUop makes d a copy of s without the buffered IBR events (coverage
// state). rebuildWakeup sets pending.
func copyUop(d, s *uop) {
	*d = *s
	d.nIBR = 0
}

// isSet reports bit k of a bitmap.
func isSet(bits []uint64, k int) bool { return bits[k>>6]>>uint(k&63)&1 != 0 }

// captureCache fills the checkpoint's L1D lines and L2 chunks from d. A
// line or chunk d did not write since it last equaled a checkpoint's (its
// from entry) is shared with that checkpoint; the others are copied, each
// kind into one allocation, and become d's from entries. d's marks are
// cleared.
func (ck *Checkpoint) captureCache(d *dcache) {
	lb, n := d.cfg.LineBytes, len(d.lines)
	if len(d.from) != n {
		d.from = make([]*l1dLine, n)
	}
	shared := func(i int) bool { return d.from[i] != nil && !isSet(d.touched, i) }
	copied := 0
	for i := 0; i < n; i++ {
		if !shared(i) {
			copied++
		}
	}
	lines := make([]l1dLine, copied)
	data := make([]byte, copied*lb)
	ck.l1d = grow(ck.l1d, n)
	for i := range ck.l1d {
		if shared(i) {
			ck.l1d[i] = d.from[i]
			continue
		}
		e := &lines[0]
		lines = lines[1:]
		e.line = d.lines[i]
		e.data, data = data[:lb:lb], data[lb:]
		copy(e.data, d.lineData(i))
		ck.l1d[i], d.from[i] = e, e
	}
	clear(d.touched)

	t := d.l2
	if t == nil {
		ck.l2 = ck.l2[:0]
		return
	}
	per := l2ChunkSets * t.ways
	entries := len(t.tag)
	n = (entries + per - 1) / per
	if len(t.from) != n {
		t.from = make([]*l2Chunk, n)
	}
	sharedChunk := func(k int) bool { return t.from[k] != nil && !isSet(t.touched, k) }
	copied, fresh := 0, 0
	for k := 0; k < n; k++ {
		if !sharedChunk(k) {
			copied += min(per, entries-k*per)
			fresh++
		}
	}
	chunks := make([]l2Chunk, fresh)
	valid := make([]bool, copied)
	tags := make([]uint64, copied)
	lastUse := make([]uint64, copied)
	ck.l2 = grow(ck.l2, n)
	for k := range ck.l2 {
		if sharedChunk(k) {
			ck.l2[k] = t.from[k]
			continue
		}
		lo := k * per
		m := min(per, entries-lo)
		e := &chunks[0]
		chunks = chunks[1:]
		e.valid, valid = valid[:m:m], valid[m:]
		e.tag, tags = tags[:m:m], tags[m:]
		e.lastUse, lastUse = lastUse[:m:m], lastUse[m:]
		copy(e.valid, t.valid[lo:])
		copy(e.tag, t.tag[lo:])
		copy(e.lastUse, t.lastUse[lo:])
		ck.l2[k], t.from[k] = e, e
	}
	clear(t.touched)
}

// restoreCache copies the checkpoint's L1D lines and L2 chunks into d's
// own arrays (sized for d's geometry, which copyState took from the
// checkpoint), skipping each one d did not write since it last equaled
// that very chunk, and clears d's marks. Faulty runs resumed one after
// another from nearby checkpoints thus copy little of the L2, whose
// chunks the checkpoints mostly share.
func (ck *Checkpoint) restoreCache(d *dcache) {
	lb := d.cfg.LineBytes
	d.lines = grow(d.lines, d.numSets*d.cfg.Ways)
	d.data = grow(d.data, d.numSets*d.cfg.Ways*lb)
	if len(d.from) != len(ck.l1d) {
		d.from = make([]*l1dLine, len(ck.l1d))
	}
	d.touched = grow(d.touched, (len(ck.l1d)+63)/64)
	for i, e := range ck.l1d {
		if d.from[i] == e && !isSet(d.touched, i) {
			continue
		}
		d.lines[i] = e.line
		copy(d.data[i*lb:], e.data)
		d.from[i] = e
	}
	clear(d.touched)
	t := d.l2
	if t == nil {
		return
	}
	entries := t.numSets * t.ways
	t.valid = grow(t.valid, entries)
	t.tag = grow(t.tag, entries)
	t.lastUse = grow(t.lastUse, entries)
	if len(t.from) != len(ck.l2) {
		t.from = make([]*l2Chunk, len(ck.l2))
	}
	t.touched = grow(t.touched, (len(ck.l2)+63)/64)
	per := l2ChunkSets * t.ways
	for k, e := range ck.l2 {
		if t.from[k] == e && !isSet(t.touched, k) {
			continue
		}
		copy(t.valid[k*per:], e.valid)
		copy(t.tag[k*per:], e.tag)
		copy(t.lastUse[k*per:], e.lastUse)
		t.from[k] = e
	}
	clear(t.touched)
}
