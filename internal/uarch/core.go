package uarch

import (
	"fmt"

	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
)

// Result is the outcome of one simulated run.
type Result struct {
	coverage.Snapshot

	// Crash is non-nil if the program crashed architecturally.
	Crash *arch.CrashError
	// Trap is the architectural exception the crash corresponds to
	// (isa.ExcNone when the run did not crash, or crashed without trap
	// semantics — wild branch, watchdog). A non-ExcNone trap is the
	// "detected by trap" channel: real hardware reports it through the
	// exception machinery with no software signature comparison.
	Trap isa.Exception
	// TimedOut reports that the watchdog fired (hang).
	TimedOut bool

	// Signature is the architectural output digest (registers + memory).
	// Undefined (zero) when Reconverged is set: a reconverged run stopped
	// mid-program, and its final state is by construction the golden
	// run's.
	Signature uint64

	// Reconverged reports that the run was cut short by delta
	// resimulation (Config.DeltaCompare): at cycle Cycles its entire
	// machine state matched the golden trajectory, so every cycle that
	// would have followed is identical to the golden run's and the
	// outcome is Masked by construction.
	Reconverged bool

	Branches    uint64
	Mispredicts uint64
	// Flushes counts pipeline squashes (every mispredicted branch that
	// reached execute flushes the younger ROB entries and redirects
	// fetch).
	Flushes     uint64
	CacheHits   uint64
	CacheMisses uint64
	Writebacks  uint64
	L2Hits      uint64
	L2Misses    uint64
	Prefetches  uint64

	// IRFIntervals / FPRFIntervals / L1DIntervals are the consumed-value
	// interval logs of the bit arrays, present when the corresponding
	// Record*Intervals config flag was set. The fault injector queries
	// them to prove transient flips masked without simulation.
	IRFIntervals  *ace.IntervalRecorder
	FPRFIntervals *ace.IntervalRecorder
	L1DIntervals  *ace.IntervalRecorder
	// L1DFlush is what the final flush wrote back, recorded with
	// L1DIntervals (nil without them, and for a reconverged run). The
	// fault injector grades against it the flips only the flush reads.
	L1DFlush *FlushLog
}

// Clean reports a run that neither crashed nor hung.
func (r *Result) Clean() bool { return r.Crash == nil && !r.TimedOut }

// IPC returns the committed instructions per cycle (0 for an empty run).
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Detected compares a faulty run against a golden run: any deviation
// (different signature, crash, or hang) counts as detection (§II-C). A
// reconverged run finishes exactly like the golden run and is never
// detected.
func (r *Result) Detected(golden *Result) bool {
	if r.Reconverged {
		return false
	}
	if r.Crash != nil || r.TimedOut {
		return true
	}
	return r.Signature != golden.Signature
}

type fqEntry struct {
	pc       int
	predNext int
	poison   bool
	// mutated marks an instruction whose fetched bytes were corrupted by
	// an armed decoder fault but still decoded: rename substitutes the
	// core's decInst for the program image's instruction.
	mutated bool
	// bad marks fetched bytes that no longer decode at all: the entry
	// flows through the pipeline and raises #UD at execute.
	bad bool
}

// Core is the out-of-order core simulator. Its state falls in three
// parts: the arrays, queues and structures below, which a copy (copyState)
// copies one by one into its own allocations; pipeState, the scalars a
// copy takes as one value; and runScratch, what a copy and init reset.
// stateHash, the HXGA codec and state_test.go's table each list the
// fields they cover.
type Core struct {
	cfg  Config
	prog []isa.Inst
	// pre is prog's rename table, built by init and shared by every copy
	// (uop.go).
	pre *predecode
	mem *arch.Memory

	cache *dcache
	bp    *gshare
	// recIRF / recFPRF are the register files' ACE recorders, one cell
	// per PRF bit (cell = phys*64+bit; an FP register is 128 cells), nil
	// unless the run tracks or records the file. The L1D's lives on the
	// dcache.
	recIRF  *ace.IntervalRecorder
	recFPRF *ace.IntervalRecorder
	// sumIRF, sumFPRF and sumL1D are the sum-only recorders of a run that
	// tracks coverage without recording the log. Unlike a log, which
	// escapes through Result, they never leave the core, so a pooled core
	// reuses them run after run.
	sumIRF, sumFPRF, sumL1D *ace.IntervalRecorder
	ibrC                    [coverage.NumStructures]coverage.IBRCounter

	// The physical register files. Each class's values keep their own
	// type; its ready bits and free list are indexed by class (clsInt,
	// clsFP, clsFlag).
	intPRF  []uint64
	fpPRF   [][2]uint64
	flagPRF []isa.Flags
	ready   [3][]bool
	free    [3][]uint16

	rob []uop

	iq       []int // rob indices, program order
	sq       []int // rob indices of in-flight stores, program order
	inflight []int // rob indices issued but not written back

	// Wake-up lists and ready set (issue_exec.go), derived from iq and
	// the ready bits. wkHead holds each register's first waiter node (-1
	// for none), wkFree the free-node chain; rdyOther and rdyLoad are
	// bitmaps over ROB slots of the waiting µops whose sources are all
	// ready.
	wkHead   []int32
	wkNodes  []wkNode
	wkFree   int32
	rdyOther []uint64
	rdyLoad  []uint64

	fq []fqEntry

	// deltaScratch is free-list membership scratch for stateHash.
	deltaScratch []bool

	pipeState
	runScratch
}

// pipeState is the core's scalar state: everything a copy takes
// verbatim, as one assignment (copyState), and init sets as one value.
type pipeState struct {
	rat ratSnapshot

	robHead int
	robCnt  int

	fetchPC         int
	fetchStallUntil uint64

	// Decoder fault: while decArmed, the next fetched instruction's
	// encoded bytes get bit decBit flipped before decoding (one-shot;
	// consumed by the first fetch, wrong-path or not). decInst holds the
	// corrupted-but-decodable instruction for mutated fq/ROB entries.
	decArmed bool
	decBit   int
	decInst  isa.Inst

	cycle   uint64
	seq     uint64
	instret uint64

	nLoads, nStores int
	memPortsUsed    int
	unitUsed        [isa.NumUnits]int
	divBusyUntil    [2]uint64 // int div, fp div

	oldestUnexecStore uint64 // seq of oldest unexecuted store (or ^0)

	// streamDigest folds every committed instruction (PC, next PC,
	// destination values, store writes) since the last trajectory point;
	// maintained only while delta trajectory recording or comparison is
	// active (deltaHashOn).
	streamDigest uint64

	// execState is the execute stage's machine; of it only the
	// nondeterminism counter carries over from one µop to the next. Its
	// memory bus and FU hooks, and bus itself, point at the core: a copy
	// rebinds them.
	execState arch.State
	bus       execBus

	branches, mispredicts, flushes uint64

	crash    *arch.CrashError
	timedOut bool
	finished bool
}

// runScratch is the run loop's bookkeeping: a copy resets it to the
// value of a run that captures no checkpoint and is not yet armed for
// delta resimulation, and init arms it for the run.
type runScratch struct {
	// progressed is set by any stage that does work in the current cycle;
	// the event-driven loop skips ahead only after a fully idle cycle.
	progressed bool
	// wbReadyAt is a lower bound on the earliest doneAt among in-flight
	// µops: writeback skips its scan entirely while wbReadyAt > cycle.
	// Stale-low values (after a squash) only cost a wasted scan, so 0 is
	// always safe.
	wbReadyAt uint64
	// skipped counts cycles the event-driven loop jumped over (perf
	// telemetry for tests/benchmarks; no architectural effect).
	skipped uint64

	// ckNext is the next cycle the run captures a checkpoint at
	// (Config.Checkpoints; ^0 when it captures none), ckSpacing the
	// current spacing (CheckpointSpacing until maxCheckpoints thin it).
	ckNext, ckSpacing uint64

	// Delta arming (armDelta): deltaHashOn while the run records or
	// compares a trajectory; deltaNextRec is the next trajectory-record
	// cycle (0 = not recording); deltaCmpIdx indexes the next trajectory
	// point (window boundary); deltaCmpFrom is the first cycle comparison
	// applies at.
	deltaHashOn  bool
	deltaNextRec uint64
	deltaCmpIdx  int
	deltaCmpFrom uint64
	// reconverged is set when a compare point fully matched: the run
	// stops and reports Masked-by-construction (see delta.go).
	reconverged bool
}

// NewCore builds a core for one run. init provides the initial
// architectural state; its memory must be a plain *arch.Memory and is
// used directly (clone beforehand if you need to keep it pristine).
func NewCore(prog []isa.Inst, init *arch.State, cfg Config) *Core {
	c := &Core{}
	c.init(Compile(prog), init, cfg)
	return c
}

// grow reslices s to length n, reusing its backing array when it is
// large enough and allocating a zeroed one otherwise; callers reset
// whatever state needs resetting.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// init (re)initializes the core for one run, reusing any allocations a
// pooled core carries from earlier runs: the register files, ready bits,
// free lists, ROB entries, queues, cache SRAM and line metadata, L2 tag
// arrays, predictor table and sum-only ACE recorders all survive, so
// repeated runs stop churning the garbage collector. pipeState and
// runScratch are assigned whole, so nothing of an earlier run's scalars
// survives.
func (c *Core) init(cp *Compiled, init *arch.State, cfg Config) {
	mem, ok := init.Mem.(*arch.Memory)
	if !ok {
		panic("uarch: initial state must use a plain *arch.Memory")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 200*uint64(len(cp.prog)) + 1_000_000
	}
	c.cfg = cfg
	c.prog = cp.prog
	// The compiled program's table, never one this core built for an
	// earlier program: a checkpoint copied from this core may still read
	// that one.
	c.pre = cp.pre
	c.mem = mem

	if c.bp != nil && len(c.bp.table) == 1<<uint(cfg.GshareBits) {
		c.bp.reset()
	} else {
		c.bp = newGshare(cfg.GshareBits)
	}

	c.pipeState = pipeState{
		streamDigest: deltaOffset,
		execState:    arch.State{NondetSalt: cfg.NondetSalt},
		bus:          execBus{c: c},
	}

	// Initial rename map: arch register r of each class -> physical r,
	// ready; the rest of each file free.
	c.intPRF = grow(c.intPRF, cfg.IntPRF)
	clear(c.intPRF)
	copy(c.intPRF, init.GPR[:])
	c.fpPRF = grow(c.fpPRF, cfg.FPPRF)
	clear(c.fpPRF)
	copy(c.fpPRF, init.XMM[:])
	c.flagPRF = grow(c.flagPRF, cfg.FlagPRF)
	clear(c.flagPRF)
	c.flagPRF[0] = init.Flags
	for cls, n := range [3]int{cfg.IntPRF, cfg.FPPRF, cfg.FlagPRF} {
		c.ready[cls] = grow(c.ready[cls], n)
		clear(c.ready[cls])
		c.free[cls] = c.free[cls][:0]
		for r := range n {
			if r < archRegs[cls] {
				c.rat[ratSlot(uint8(cls), uint8(r))] = uint16(r)
				c.ready[cls][r] = true
			} else {
				c.free[cls] = append(c.free[cls], uint16(r))
			}
		}
	}

	// A checkpoint serializes actualNext, which uop.reset keeps: zeroed
	// µops keep HXGA bytes free of what the pooled core ran before.
	c.rob = grow(c.rob, cfg.ROBSize)
	clear(c.rob)
	c.iq = c.iq[:0]
	c.sq = c.sq[:0]
	c.inflight = c.inflight[:0]
	if cap(c.fq) < cfg.FetchQueue {
		c.fq = make([]fqEntry, 0, cfg.FetchQueue)
	} else {
		c.fq = c.fq[:0]
	}
	c.runScratch = runScratch{ckNext: ^uint64(0), ckSpacing: CheckpointSpacing}
	if cfg.Checkpoints != nil {
		c.ckNext = 0
	}
	c.armDelta()
	c.ibrC = [coverage.NumStructures]coverage.IBRCounter{}

	c.cache = initDCache(c.cache, cfg, mem,
		recorder(&c.sumL1D, cfg.TrackL1D, cfg.RecordL1DIntervals, cfg.L1D.SizeBytes))
	c.recIRF = recorder(&c.sumIRF, cfg.TrackIRF, cfg.RecordIRFIntervals, cfg.IntPRF*64)
	c.recFPRF = recorder(&c.sumFPRF, cfg.TrackFPRF, cfg.RecordFPRFIntervals, 2*cfg.FPPRF*64)
	c.rebuildWakeup()
}

// recorder returns the ACE recorder of a bit array of cells cells: a
// log-keeping one from the recorder pool when the run records the log
// (it escapes through Result: callers that finish with a Result hand it
// back via ace.ReleaseIntervalRecorder, callers that keep the Result
// never release), else, when the run tracks coverage, the sum-only one
// the core keeps in *own, reset; nil when it does neither.
func recorder(own **ace.IntervalRecorder, track, record bool, cells int) *ace.IntervalRecorder {
	switch {
	case record:
		return ace.GetIntervalRecorder(cells)
	case !track:
		return nil
	case *own == nil:
		*own = ace.NewSumRecorder(cells)
	default:
		(*own).Reset(cells)
	}
	return *own
}

// Cycle returns the current cycle (for injection hooks).
func (c *Core) Cycle() uint64 { return c.cycle }

// SkippedCycles returns how many cycles the event-driven run loop jumped
// over instead of simulating (0 under the naive loop). Telemetry only —
// deliberately not part of Result, so naive and skipping results stay
// comparable field-for-field.
func (c *Core) SkippedCycles() uint64 { return c.skipped }

// FlipIntPRFBit flips one bit of a physical integer register (transient
// fault injection).
func (c *Core) FlipIntPRFBit(reg, bit int) {
	c.intPRF[reg] ^= 1 << uint(bit)
}

// ForceIntPRFBit forces one bit of a physical integer register
// (intermittent stuck-at).
func (c *Core) ForceIntPRFBit(reg, bit int, val bool) {
	if val {
		c.intPRF[reg] |= 1 << uint(bit)
	} else {
		c.intPRF[reg] &^= 1 << uint(bit)
	}
}

// FlipFPPRFBit flips one bit of a 128-bit FP physical register.
func (c *Core) FlipFPPRFBit(reg, bit int) {
	c.fpPRF[reg][bit/64] ^= 1 << uint(bit%64)
}

// ForceFPPRFBit forces one bit of a FP physical register.
func (c *Core) ForceFPPRFBit(reg, bit int, val bool) {
	if val {
		c.fpPRF[reg][bit/64] |= 1 << uint(bit%64)
	} else {
		c.fpPRF[reg][bit/64] &^= 1 << uint(bit%64)
	}
}

// FlipCacheBit flips one bit of the L1D data SRAM.
func (c *Core) FlipCacheBit(bit int) { c.cache.FlipBit(bit) }

// ForceCacheBit forces one bit of the L1D data SRAM.
func (c *Core) ForceCacheBit(bit int, val bool) { c.cache.ForceBit(bit, val) }

// ArmDecoderFault arms a one-shot fault on the instruction-fetch path:
// the next instruction fetched (wrong-path or not) has bit `bit` of its
// encoded byte representation flipped before decoding. Depending on
// where the flip lands the instruction may decode to a different
// operation or operand (SDC/crash/trap territory), fail to decode at
// all (#UD trap), or decode identically in a don't-care bit (masked).
// The bit index is reduced modulo the actual encoded length at fetch.
func (c *Core) ArmDecoderFault(bit int) {
	c.decArmed = true
	c.decBit = bit
}

// FlipGshareBit flips one bit of a 2-bit gshare counter. The predictor
// is purely speculative state, so the flip can only perturb timing —
// architectural results must stay byte-identical (asserted by tests).
func (c *Core) FlipGshareBit(bit int) {
	c.bp.table[(bit/2)%len(c.bp.table)] ^= 1 << uint(bit%2)
}

// FlipL2TagBit flips one bit of an L2 tag entry. The L2 is a tag-only
// timing model (data always comes from backing memory), so like gshare
// faults this perturbs hit/miss latency at most; a flip in an invalid
// entry's tag is dead state.
func (c *Core) FlipL2TagBit(entry, bit int) {
	if c.cache.l2 == nil {
		return
	}
	c.cache.l2.flipTagBit(entry%len(c.cache.l2.tag), bit)
}

// FlipStoreBufferBit flips one bit of a pending store-buffer entry:
// entry selects (modulo occupancy) an in-flight store in the store
// queue, and bit addresses its captured write as a 128-bit record —
// bits 0..63 hit the data word, 64..127 the target address. Flipping
// the address can redirect the store outside the image (#PF trap at
// commit) or silently corrupt another location (SDC). Stores not yet
// executed have no captured write; the flip is then a no-op (the value
// has not entered the buffer).
func (c *Core) FlipStoreBufferBit(entry, bit int) {
	if len(c.sq) == 0 {
		return
	}
	u := &c.rob[c.sq[entry%len(c.sq)]]
	if u.squashed || u.nWrites == 0 {
		return
	}
	w := &u.writes[(bit/128)%int(u.nWrites)]
	if b := bit % 128; b < 64 {
		w.data ^= 1 << uint(b)
	} else {
		w.addr ^= 1 << uint(b-64)
	}
}

// FlipROBNextBit flips one bit of a ROB entry's next-PC metadata: entry
// selects (modulo occupancy) a live ROB µop, and bits are reduced modulo
// 31 to keep the PC an int on 32-bit hosts. Retirement follows the
// fetched path, not these fields, so a flip almost never changes what
// the program computes:
//   - a waiting µop takes it in its predicted next PC, which only a
//     branch's writeback reads: a correctly predicted branch squashes and
//     refetches the same path (timing only); a mispredicted one skips its
//     squash, committing its wrong path, only if the flip makes the
//     prediction equal the resolved target;
//   - an issued branch not yet written back takes it in its resolved next
//     PC, and writeback redirects fetch there — the one wild-branch path;
//   - any other executed µop takes it in its resolved next PC, read again
//     only by the predictor update (timing) and commit's end-of-program
//     check: the run ends early if the flip makes it equal len(prog), and
//     a flip of the last instruction's keeps it from ending the run.
func (c *Core) FlipROBNextBit(entry, bit int) {
	if c.robCnt == 0 {
		return
	}
	u := &c.rob[(c.robHead+entry%c.robCnt)%len(c.rob)]
	if u.squashed {
		return
	}
	mask := 1 << uint(bit%31)
	if u.st == uWaiting {
		u.predNext ^= mask
	} else {
		u.actualNext ^= mask
	}
}

// Run simulates to completion and returns the result. With no opaque
// OnCycle hook (and NoCycleSkip unset) the event-driven loop is used:
// fully stalled cycles are jumped over instead of ticked, with results
// bit-identical to the naive loop (see run.go). Checkpoint capture and
// trajectory recording keep the event-driven loop: their cycles are wake
// points.
func (c *Core) Run() *Result {
	if c.cfg.OnCycle != nil || c.cfg.NoCycleSkip {
		c.runNaive()
	} else {
		c.runSkipping()
	}
	return c.buildResult()
}

func (c *Core) buildResult() *Result {
	var sig uint64
	var fl *FlushLog
	// A reconverged run stopped mid-program: its cache stays unflushed
	// and its signature undefined — the final state is by construction
	// the golden run's (delta.go).
	if !c.reconverged {
		if c.cfg.RecordL1DIntervals {
			fl = &FlushLog{LineBytes: c.cache.cfg.LineBytes}
		}
		if err := c.cache.flush(c.cycle, fl); err != nil && c.crash == nil {
			c.crash = err
		}
	}
	// Coverage counts the final flush's reads but not the end-of-run
	// register reads below, which keep the log sound.
	var cov coverage.Snapshot
	if c.cfg.TrackIRF {
		cov.IRFVuln = c.recIRF.Vulnerability(c.cycle)
	}
	if c.cfg.TrackFPRF {
		cov.FPRFVuln = c.recFPRF.Vulnerability(c.cycle)
	}
	if c.cfg.TrackL1D {
		cov.L1DVuln = c.cache.rec.Vulnerability(c.cycle)
	}
	if c.cfg.TrackIBR {
		for s := coverage.Structure(0); s < coverage.NumStructures; s++ {
			cov.IBR[s] = c.ibrC[s].Value(c.cycle)
			cov.UnitUses[s] = c.ibrC[s].Uses
		}
	}
	if !c.reconverged {
		// The final architectural state is itself a consumer: physical
		// registers still mapped at the end of the run feed the output
		// signature, so their last values must be logged as read or the
		// pre-classifier would wrongly prove end-of-run flips masked. RSP
		// is excluded from the signature, so it is soundly skipped.
		if c.recIRF != nil {
			for r := 0; r < isa.NumGPR; r++ {
				if isa.Reg(r) == isa.RSP {
					continue
				}
				c.recIRF.ReadRange(int(c.rat[ratSlot(clsInt, uint8(r))])*64, 64, c.cycle)
			}
		}
		if c.recFPRF != nil {
			for x := 0; x < isa.NumXMM; x++ {
				c.recFPRF.ReadRange(2*int(c.rat[ratSlot(clsFP, uint8(x))])*64, 128, c.cycle)
			}
		}
		fs := arch.State{Mem: c.mem}
		for r := 0; r < isa.NumGPR; r++ {
			fs.GPR[r] = c.intPRF[c.rat[ratSlot(clsInt, uint8(r))]]
		}
		for x := 0; x < isa.NumXMM; x++ {
			fs.XMM[x] = c.fpPRF[c.rat[ratSlot(clsFP, uint8(x))]]
		}
		fs.Flags = c.flagPRF[c.rat[ratSlot(clsFlag, 0)]]
		sig = fs.Signature()
		if fl != nil {
			fl.Final = fs
			fl.Final.Mem = c.mem.Clone()
		}
	}

	cov.Cycles = c.cycle
	cov.Instructions = c.instret
	r := &Result{
		Snapshot:    cov,
		Crash:       c.crash,
		Trap:        c.crash.Exception(),
		TimedOut:    c.timedOut,
		Signature:   sig,
		Reconverged: c.reconverged,
		Branches:    c.branches,
		Mispredicts: c.mispredicts,
		Flushes:     c.flushes,
		CacheHits:   c.cache.hits,
		CacheMisses: c.cache.misses,
		Writebacks:  c.cache.writebacks,
	}
	if c.cache.l2 != nil {
		r.L2Hits = c.cache.l2.hits
		r.L2Misses = c.cache.l2.misses
		r.Prefetches = c.cache.l2.prefetches
	}
	if c.cfg.RecordIRFIntervals {
		r.IRFIntervals = c.recIRF
	}
	if c.cfg.RecordFPRFIntervals {
		r.FPRFIntervals = c.recFPRF
	}
	if c.cfg.RecordL1DIntervals {
		r.L1DIntervals = c.cache.rec
	}
	r.L1DFlush = fl
	return r
}

// traceCommit writes one retired-instruction line to the trace sink.
func (c *Core) traceCommit(u *uop) {
	text := "(poison)"
	switch {
	case u.bad:
		text = "(bad-decode)"
	case u.inst != nil:
		text = u.inst.String()
	}
	fmt.Fprintf(c.cfg.Trace, "cyc=%-8d seq=%-6d pc=%-6d issued@%-8d %s\n",
		c.cycle, u.seq, u.pc, u.doneAt-uint64(u.v.Latency+u.memLat), text)
}

// --- commit -----------------------------------------------------------

func (c *Core) commit() {
	// Retired stores leave the head of the store queue, which is
	// compacted once, after the loop: popping by reslicing would shrink
	// its capacity from the front and make rename's append reallocate.
	popped := 0
retire:
	for k := 0; k < c.cfg.CommitWidth && c.robCnt > 0; k++ {
		u := &c.rob[c.robHead]
		if u.st != uDone || u.doneAt > c.cycle {
			break
		}
		c.progressed = true
		if u.crashed() {
			err := u.err
			err.PC = u.pc
			c.crash = &err
			break
		}
		if u.isStore {
			for _, w := range u.stores() {
				var buf [8]byte
				for i := 0; i < int(w.size); i++ {
					buf[i] = byte(w.data >> (8 * uint(i)))
				}
				if _, err := c.cache.access(w.addr, int(w.size), true, buf[:w.size], c.cycle); err != nil {
					e := *err
					e.PC = u.pc
					c.crash = &e
					break retire
				}
			}
			c.nStores--
			// Pop from the store queue (it must be the oldest entry).
			if popped < len(c.sq) && c.sq[popped] == c.robHead {
				popped++
			}
		}
		if u.isLoad {
			c.nLoads--
		}
		if u.v != nil && u.v.IsBranch {
			c.bp.update(u.pc, u.actualNext != u.pc+1)
			c.branches++
		}
		if c.deltaHashOn {
			c.foldCommit(u)
		}
		for _, d := range u.dests() {
			c.free[d.cls] = append(c.free[d.cls], d.old)
		}
		for _, e := range u.ibr[:u.nIBR] {
			c.ibrC[e.unit].OnUse(e.a, e.b)
		}
		if c.cfg.Trace != nil {
			c.traceCommit(u)
		}
		c.instret++
		if u.actualNext == len(c.prog) {
			c.finished = true
		}
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCnt--
		if c.finished {
			break
		}
	}
	if popped > 0 {
		c.sq = c.sq[:copy(c.sq, c.sq[popped:])]
	}
}

// --- writeback --------------------------------------------------------

func (c *Core) writeback() {
	if c.wbReadyAt > c.cycle {
		return // nothing in flight can complete yet: skip the scan
	}
	minDone := ^uint64(0)
	kept := c.inflight[:0]
	for _, idx := range c.inflight {
		u := &c.rob[idx]
		if u.squashed || u.st != uIssued {
			continue // squashed entries drop out of the in-flight set
		}
		if u.doneAt > c.cycle {
			if u.doneAt < minDone {
				minDone = u.doneAt
			}
			kept = append(kept, idx)
			continue
		}
		c.progressed = true
		u.st = uDone
		for _, d := range u.dests() {
			c.ready[d.cls][d.phys] = true
			c.wake(c.wkReg(d.cls, d.phys))
		}
		if u.v != nil && u.v.IsBranch && !u.crashed() && u.actualNext != u.predNext {
			c.squashAfter(idx, u.actualNext)
			c.mispredicts++
			// Entries after the branch were removed; the in-flight list
			// is rebuilt below to drop squashed ones.
		}
	}
	c.inflight = kept
	// minDone covers entries kept before any squash this cycle; a squash
	// can only leave it stale-low (a wasted future scan), never stale-
	// high, so the early-out above stays conservative.
	c.wbReadyAt = minDone
}

// squashAfter removes every µop younger than the branch at rob index
// bIdx, restores the rename map from the branch's snapshot, and
// redirects fetch.
func (c *Core) squashAfter(bIdx int, redirect int) {
	c.flushes++
	b := &c.rob[bIdx]
	// Walk from the youngest entry back to the branch.
	tail := (c.robHead + c.robCnt - 1) % len(c.rob)
	for c.robCnt > 0 {
		u := &c.rob[tail]
		if u.seq <= b.seq {
			break
		}
		if !u.squashed {
			for i := int(u.nDsts) - 1; i >= 0; i-- {
				d := u.dsts[i]
				c.free[d.cls] = append(c.free[d.cls], d.phys)
			}
			if u.isLoad {
				c.nLoads--
			}
			if u.isStore {
				c.nStores--
			}
			u.squashed = true
		}
		c.readySet(tail)[tail>>6] &^= 1 << (tail & 63)
		c.robCnt--
		tail--
		if tail < 0 {
			tail += len(c.rob)
		}
	}
	if !b.snapValid {
		panic("uarch: mispredicted branch without RAT snapshot")
	}
	c.rat = b.snap
	// Drop squashed stores from the store queue.
	for len(c.sq) > 0 {
		last := c.sq[len(c.sq)-1]
		if c.rob[last].squashed {
			c.sq = c.sq[:len(c.sq)-1]
		} else {
			break
		}
	}
	// Drop squashed entries from the issue queue.
	kept := c.iq[:0]
	for _, idx := range c.iq {
		if !c.rob[idx].squashed {
			kept = append(kept, idx)
		}
	}
	c.iq = kept
	c.fq = c.fq[:0]
	c.fetchPC = redirect
	c.fetchStallUntil = c.cycle + uint64(c.cfg.MispredictPenalty)
}
