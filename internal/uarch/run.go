package uarch

import (
	"sync"

	"harpocrates/internal/arch"
	"harpocrates/internal/isa"
)

// corePool recycles cores across runs so the big allocations — PRFs,
// ROB entries and their per-µop slices, the 32 KB L1D SRAM, L2 tags,
// predictor table, sum-only ACE recorders, page tables (not guest pages: a run
// allocates the ones it writes) — are reused instead of churning the
// garbage collector. Core.init fully re-establishes every piece of state
// a run can observe, so pooled runs are bit-identical to fresh ones
// (asserted by TestPooledRunDeterministic).
var corePool = sync.Pool{New: func() any { return new(Core) }}

func getPooledCore() *Core  { return corePool.Get().(*Core) }
func putPooledCore(c *Core) { corePool.Put(c) }

// Run simulates prog from the given initial architectural state under
// cfg and returns the result. The initial state's memory is mutated;
// clone it first if it must survive. Runs execute on pooled cores;
// results never alias pooled storage.
func Run(prog []isa.Inst, init *arch.State, cfg Config) *Result {
	return Compile(prog).Run(init, cfg)
}

// Compiled is a program lowered for the simulator: its instructions and
// the predecode table rename reads their operands from. Nothing writes
// it after Compile, so any number of runs and checkpoints may share it.
type Compiled struct {
	prog []isa.Inst
	pre  *predecode
}

// Compile lowers prog for the simulator, building its predecode table
// once. It is the compilation step of the refinement loop's Table I
// accounting: a program compiled once is run without lowering it again.
func Compile(prog []isa.Inst) *Compiled {
	return &Compiled{prog: prog, pre: newPredecode(prog)}
}

// Run simulates the compiled program like uarch.Run.
func (cp *Compiled) Run(init *arch.State, cfg Config) *Result {
	c := getPooledCore()
	c.init(cp, init, cfg)
	r := c.Run()
	putPooledCore(c)
	return r
}

// --- run loops ---------------------------------------------------------
//
// Two loops share the five pipeline stages. runNaive ticks every cycle —
// required when an opaque OnCycle hook may mutate state at any cycle,
// and kept as the reference loop for differential testing (NoCycleSkip).
// runSkipping is event-driven: after a cycle in which no stage made
// progress it jumps the cycle counter straight to the next cycle at
// which anything *can* happen. The jump is exact, never a heuristic:
//
//   - During an idle cycle no µop executes, no value is written, no
//     cache line moves and no coverage event fires, so the machine state
//     (minus the cycle counter) is a fixed point: the naive loop would
//     reproduce the identical idle cycle until some time-based condition
//     changes stage eligibility.
//   - Every time-based condition is enumerated by nextWake: completion
//     of an in-flight µop (writeback, and transitively commit/issue/
//     rename), a divider becoming free, fetch-stall expiry, the watchdog
//     limit, the start or continuation of a scheduled fault event, and
//     the instrumentation cycles: trajectory points and checkpoint
//     captures, which observe the state without changing it.
//   - Waking early is harmless (the cycle re-runs idle and re-computes
//     the next wake); nextWake never wakes late because every candidate
//     below is a conservative lower bound.
//
// Together these make runSkipping bit-identical to runNaive in cycle
// counts, signature, coverage, IBR, branch/cache/flush statistics and
// ACE interval logs — asserted over randomized programs, all target
// structures and all fault types by the differential tests.

func (c *Core) runNaive() {
	for {
		if c.finished || (c.robCnt == 0 && len(c.fq) == 0 && c.fetchPC == len(c.prog)) {
			return
		}
		if c.cycle >= c.cfg.MaxCycles {
			c.timedOut = true
			return
		}
		if c.deltaHashOn && c.deltaTick() {
			return // reconverged with the golden trajectory
		}
		if c.cycle == c.ckNext {
			c.captureTick()
		}
		if c.cfg.OnCycle != nil {
			c.cfg.OnCycle(c, c.cycle)
		}
		c.fireEvents()
		c.commit()
		if c.crash != nil {
			return
		}
		c.writeback()
		c.issue()
		c.rename()
		c.fetch()
		c.cycle++
	}
}

func (c *Core) runSkipping() {
	for {
		if c.finished || (c.robCnt == 0 && len(c.fq) == 0 && c.fetchPC == len(c.prog)) {
			return
		}
		if c.cycle >= c.cfg.MaxCycles {
			c.timedOut = true
			return
		}
		if c.deltaHashOn && c.deltaTick() {
			return // reconverged with the golden trajectory
		}
		if c.cycle == c.ckNext {
			c.captureTick()
		}
		c.fireEvents()
		c.progressed = false
		c.commit()
		if c.crash != nil {
			return
		}
		c.writeback()
		c.issue()
		c.rename()
		c.fetch()
		if c.progressed {
			c.cycle++
			continue
		}
		next := c.nextWake()
		c.skipped += next - (c.cycle + 1)
		c.cycle = next
	}
}

// captureTick appends a checkpoint of the current start-of-cycle state
// to Config.Checkpoints and schedules the next one. Both loops call it at
// the top of the cycle, after deltaTick: a trajectory point at the same
// cycle closes its stream window first, so the checkpoint carries the
// reset digest, as armDelta expects of a resumed run.
//
// Holding maxCheckpoints already, it first releases those off the
// doubled spacing. That happens at cycle maxCheckpoints·spacing, itself
// on the doubled spacing, so every kept checkpoint and the new one lie
// on it.
func (c *Core) captureTick() {
	cks := c.cfg.Checkpoints
	if len(*cks) >= maxCheckpoints {
		c.ckSpacing *= 2
		kept := (*cks)[:0]
		for _, ck := range *cks {
			if ck.cycle%c.ckSpacing == 0 {
				kept = append(kept, ck)
			} else {
				ck.Release()
			}
		}
		clear((*cks)[len(kept):])
		*cks = kept
	}
	*cks = append(*cks, c.Checkpoint())
	c.ckNext += c.ckSpacing
}

// fireEvents applies every scheduled fault event whose window covers the
// current cycle (run-loop counterpart of the per-cycle OnCycle hook, but
// with a schedule the skipping loop can reason about).
func (c *Core) fireEvents() {
	for i := range c.cfg.Events {
		e := &c.cfg.Events[i]
		if c.cycle >= e.Start && c.cycle < e.last() {
			e.Fire(c, c.cycle)
		}
	}
}

// nextWake returns the earliest cycle after the current (fully idle) one
// at which any pipeline stage could make progress or a scheduled event
// must fire. It is called at most once per stall episode, so the
// in-flight scan here costs far less than the per-cycle stage scans it
// replaces.
func (c *Core) nextWake() uint64 {
	// The watchdog is always a wake point: a wedged machine (nothing in
	// flight, nothing scheduled) jumps straight to the timeout cycle,
	// reproducing the naive loop's hang verdict at identical cycle
	// counts.
	next := c.cfg.MaxCycles
	consider := func(t uint64) {
		if t > c.cycle && t < next {
			next = t
		}
	}
	for _, idx := range c.inflight {
		u := &c.rob[idx]
		if !u.squashed && u.st == uIssued {
			consider(u.doneAt)
		}
	}
	// A done-but-future ROB head cannot arise today (writeback marks µops
	// done only once doneAt has passed), but guard it anyway: waking
	// early is free, missing a commit would not be.
	if c.robCnt > 0 {
		if head := &c.rob[c.robHead]; head.st == uDone {
			consider(head.doneAt)
		}
	}
	// Dividers can hold back ready µops even after the occupying µop was
	// squashed out of the in-flight list, so their busy-until times are
	// wake points of their own.
	consider(c.divBusyUntil[0])
	consider(c.divBusyUntil[1])
	consider(c.fetchStallUntil)
	// Delta trajectory cycles are wake points: a recording run must
	// sample at every interval multiple, a comparing run must visit each
	// armed compare point at its exact cycle (delta.go).
	if c.deltaNextRec != 0 {
		consider(c.deltaNextRec)
	}
	if cmp := c.cfg.DeltaCompare; cmp != nil && c.deltaCmpIdx < len(cmp.Points) {
		consider(cmp.Points[c.deltaCmpIdx].Cycle)
	}
	// So are checkpoint captures (^0 when the run captures none).
	consider(c.ckNext)
	for i := range c.cfg.Events {
		e := &c.cfg.Events[i]
		if e.Start > c.cycle {
			consider(e.Start) // upcoming event: wake to apply it
		} else if c.cycle+1 < e.last() {
			consider(c.cycle + 1) // active window: no skipping inside
		}
	}
	return max(next, c.cycle+1)
}
