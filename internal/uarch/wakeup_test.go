package uarch

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/baselines/kasm"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/baselines/silifuzz"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
	"harpocrates/internal/prog"
	"harpocrates/internal/stats"
)

// The issue stage's oracle is the design it replaced: every waiting µop
// in the IQ re-tested every cycle, in age order, against the full
// predicate. The differential drives the pipeline stages from test code
// (runNaive's loop), asks the scan before every issue() which µops must
// move, and fails on the first cycle where issue() moved others. On the
// same cycles it checks the wake-up state against the IQ and the ready
// bits it is derived from, and every 37th cycle against a copyFrom
// rebuild of itself.

// issueCensus counts the situations the wake-up design must get right;
// the differential insists its sources reach each of them.
type issueCensus struct {
	cycles     int
	heldLoads  int // ready loads the scan held behind an older unexecuted store
	rmwIssues  int // read-modify-write µops issued as the oldest unexecuted store
	staleNodes int // waiter nodes whose slot another waiting µop now holds
	mutated    int // decoder-mutated µop-cycles in the IQ
	bad        int // undecodable µop-cycles in the IQ
	flushes    uint64
	rebuilds   int
}

// wakeupOracle holds the per-cycle scratch of the checks.
type wakeupOracle struct {
	cen      issueCensus
	shadow   Core
	inIQ     []bool
	produced []bool
	seen     []bool
	before   []int
}

// scanReady is the old source test: every source, no memo.
func (c *Core) scanReady(u *uop) bool {
	for _, s := range u.sources() {
		if !c.ready[s.cls][s.phys] {
			return false
		}
	}
	return true
}

// scanIssue returns, without changing any state, the ROB slots the old
// per-cycle IQ scan issues this cycle, in issue order.
func (c *Core) scanIssue(cen *issueCensus) []int {
	var unitUsed [isa.NumUnits]int
	memPorts := 0
	divBusy := [2]bool{c.divBusyUntil[0] > c.cycle, c.divBusyUntil[1] > c.cycle}
	oldest := ^uint64(0)
	for _, si := range c.sq {
		if su := &c.rob[si]; !su.squashed && su.st == uWaiting {
			oldest = su.seq
			break
		}
	}
	var out []int
	for _, idx := range c.iq {
		u := &c.rob[idx]
		cen.mutated += btoi(u.mutated)
		cen.bad += btoi(u.bad)
		if len(out) >= c.cfg.IssueWidth || u.squashed || !c.scanReady(u) {
			continue
		}
		if u.isLoad && oldest < u.seq {
			cen.heldLoads++
			continue
		}
		unit := u.v.Unit
		needMem := u.isLoad || u.isStore
		if unitUsed[unit] >= c.unitCapacity(unit) ||
			(needMem && memPorts >= c.cfg.NumMemPort) ||
			(unit == isa.UIntDiv && divBusy[0]) ||
			(unit == isa.UFPDiv && divBusy[1]) {
			continue
		}
		unitUsed[unit]++
		if needMem {
			memPorts++
		}
		// execUop marks the divider busy until a completion at least one
		// cycle away.
		divBusy[0] = divBusy[0] || unit == isa.UIntDiv
		divBusy[1] = divBusy[1] || unit == isa.UFPDiv
		if u.isLoad && u.isStore && u.seq == oldest {
			cen.rmwIssues++
		}
		out = append(out, idx)
	}
	return out
}

// describe renders ROB slots as "slot(seq@pc)".
func (c *Core) describe(idxs []int) string {
	parts := make([]string, len(idxs))
	for i, idx := range idxs {
		parts[i] = fmt.Sprintf("%d(%d@%d)", idx, c.rob[idx].seq, c.rob[idx].pc)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// bit reports whether ROB slot idx is set in a ready bitmap.
func bit(set []uint64, idx int) bool { return set[idx>>6]>>(idx&63)&1 == 1 }

// check verifies c's wake-up state against the IQ and the ready bits:
// the ready set is exactly the IQ µops whose sources are all ready, in
// the bitmap their kind selects; every other IQ µop's pending count is
// its number of unready source occurrences, each backed by a live waiter
// node on a register whose producer is still in flight; and every node is
// on exactly one list or the free chain.
func (o *wakeupOracle) check(c *Core) error {
	n := len(c.rob)
	nregs := len(c.wkHead)
	o.inIQ = grow(o.inIQ, n)
	clear(o.inIQ)
	for _, idx := range c.iq {
		o.inIQ[idx] = true
	}
	o.produced = grow(o.produced, nregs)
	clear(o.produced)
	for k := 0; k < c.robCnt; k++ {
		u := &c.rob[(c.robHead+k)%n]
		if u.st == uDone {
			continue
		}
		for _, d := range u.dests() {
			o.produced[c.wkReg(d.cls, d.phys)] = true
		}
	}

	o.seen = grow(o.seen, len(c.wkNodes))
	clear(o.seen)
	visit := func(x int32) error {
		if o.seen[x] {
			return fmt.Errorf("waiter node %d reached twice", x)
		}
		o.seen[x] = true
		return nil
	}
	live := 0
	for _, head := range c.wkHead {
		for x := head; x >= 0; x = c.wkNodes[x].next {
			if err := visit(x); err != nil {
				return err
			}
			w := c.wkNodes[x]
			u := &c.rob[w.idx]
			if !u.squashed && u.st == uWaiting {
				if u.seq == w.seq {
					live++
				} else {
					o.cen.staleNodes++
				}
			}
		}
	}
	for x := c.wkFree; x >= 0; x = c.wkNodes[x].next {
		if err := visit(x); err != nil {
			return err
		}
	}
	if i := slices.Index(o.seen, false); i >= 0 {
		return fmt.Errorf("waiter node %d is on no list and not free", i)
	}

	pending := 0
	for idx := 0; idx < n; idx++ {
		u := &c.rob[idx]
		other, load := bit(c.rdyOther, idx), bit(c.rdyLoad, idx)
		if !o.inIQ[idx] {
			if other || load {
				return fmt.Errorf("slot %d is in the ready set but not in the IQ", idx)
			}
			continue
		}
		unready := 0
		for i, s := range u.sources() {
			if c.ready[s.cls][s.phys] {
				continue
			}
			unready++
			r := c.wkReg(s.cls, s.phys)
			if !o.produced[r] {
				return fmt.Errorf("slot %d (seq %d) waits on register %d, which no µop in flight produces", idx, u.seq, r)
			}
			if slices.ContainsFunc(u.sources()[:i], func(p rsrc) bool { return p.cls == s.cls && p.phys == s.phys }) {
				continue // counted with its first occurrence
			}
			want := 0
			for _, p := range u.sources() {
				want += btoi(p.cls == s.cls && p.phys == s.phys)
			}
			got := 0
			for x := c.wkHead[r]; x >= 0; x = c.wkNodes[x].next {
				got += btoi(c.wkNodes[x].idx == int32(idx) && c.wkNodes[x].seq == u.seq)
			}
			if got != want {
				return fmt.Errorf("slot %d (seq %d) reads register %d %d times but is on its list %d times", idx, u.seq, r, want, got)
			}
		}
		if int(u.pending) != unready {
			return fmt.Errorf("slot %d (seq %d) has pending %d, %d sources unready", idx, u.seq, u.pending, unready)
		}
		pending += unready
		switch {
		case unready == 0 && !other && !load:
			return fmt.Errorf("slot %d (seq %d) has every source ready but is not in the ready set", idx, u.seq)
		case unready > 0 && (other || load):
			return fmt.Errorf("slot %d (seq %d) is in the ready set with %d sources unready", idx, u.seq, unready)
		case other && u.isLoad, load && !u.isLoad:
			return fmt.Errorf("slot %d (seq %d, load %v) is in the wrong ready bitmap", idx, u.seq, u.isLoad)
		}
	}
	if live != pending {
		return fmt.Errorf("%d live waiter nodes for %d unready sources", live, pending)
	}
	return nil
}

// checkRebuild compares c's incrementally maintained wake-up state with
// what copyFrom rebuilds from the same IQ and ready bits.
func (o *wakeupOracle) checkRebuild(c *Core) error {
	o.shadow.copyFrom(c)
	o.cen.rebuilds++
	s := &o.shadow
	if !slices.Equal(c.rdyOther, s.rdyOther) || !slices.Equal(c.rdyLoad, s.rdyLoad) {
		return fmt.Errorf("ready set %x/%x, rebuilt %x/%x", c.rdyOther, c.rdyLoad, s.rdyOther, s.rdyLoad)
	}
	for _, idx := range c.iq {
		if c.rob[idx].pending != s.rob[idx].pending {
			return fmt.Errorf("slot %d pending %d, rebuilt %d", idx, c.rob[idx].pending, s.rob[idx].pending)
		}
	}
	if err := o.check(s); err != nil {
		return fmt.Errorf("rebuilt: %w", err)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run simulates c to completion with runNaive's loop, checking the
// wake-up state before every issue stage and the µops it moved after.
func (o *wakeupOracle) run(t testing.TB, label string, c *Core) *Result {
	t.Helper()
	for {
		if c.finished || (c.robCnt == 0 && len(c.fq) == 0 && c.fetchPC == len(c.prog)) {
			break
		}
		if c.cycle >= c.cfg.MaxCycles {
			c.timedOut = true
			break
		}
		if c.deltaHashOn && c.deltaTick() {
			break
		}
		if c.cfg.OnCycle != nil {
			c.cfg.OnCycle(c, c.cycle)
		}
		c.fireEvents()
		c.commit()
		if c.crash != nil {
			break
		}
		c.writeback()
		if err := o.check(c); err != nil {
			t.Fatalf("%s: cycle %d: %v", label, c.cycle, err)
		}
		if c.cycle%37 == 0 {
			if err := o.checkRebuild(c); err != nil {
				t.Fatalf("%s: cycle %d: %v", label, c.cycle, err)
			}
		}
		want := c.scanIssue(&o.cen)
		o.before = append(o.before[:0], c.iq...)
		c.issue()
		var got []int
		for _, idx := range o.before {
			if c.rob[idx].st != uWaiting {
				got = append(got, idx)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: cycle %d: issue moved %s, the scan moves %s", label, c.cycle, c.describe(got), c.describe(want))
		}
		o.cen.cycles++
		c.rename()
		c.fetch()
		c.cycle++
	}
	r := c.buildResult()
	o.cen.flushes += r.Flushes
	return r
}

// compare runs prog under the oracle and through Run, and requires the
// two results identical.
func (o *wakeupOracle) compare(t *testing.T, label string, p []isa.Inst, init func() *arch.State, cfg Config) *Result {
	t.Helper()
	got := o.run(t, label, NewCore(p, init(), cfg))
	resultsIdentical(t, label, Run(p, init(), cfg), got)
	return got
}

// presetGens restates core.PresetFor's generator settings at scale 1
// (core imports this package): IRF and functional-unit programs draw
// uniformly, FPRF weights XMM-operand variants 5x, L1D weights memory
// variants 4x over a 32 KB region at a 64-byte stride.
func presetGens() []struct {
	name string
	cfg  gen.Config
} {
	weigh := func(cfg gen.Config, w float64, pick func(*isa.Variant) bool) gen.Config {
		cfg.Weights = make([]float64, len(cfg.Allowed))
		for i, id := range cfg.Allowed {
			cfg.Weights[i] = 1
			if pick(isa.Lookup(id)) {
				cfg.Weights[i] = w
			}
		}
		return cfg
	}
	base := gen.DefaultConfig()
	irf, fprf, l1d, fu := base, base, base, base
	irf.NumInstrs, fprf.NumInstrs, l1d.NumInstrs, fu.NumInstrs = 1250, 1250, 8000, 625
	fprf = weigh(fprf, 5, func(v *isa.Variant) bool {
		return slices.ContainsFunc(v.Ops, func(s isa.OperandSpec) bool { return s.Kind == isa.KXmm })
	})
	l1d.Mem = gen.MemPolicy{RegionBytes: 32 * 1024, Stride: 64}
	l1d = weigh(l1d, 4, (*isa.Variant).HasMemOperand)
	return []struct {
		name string
		cfg  gen.Config
	}{{"irf", irf}, {"fprf", fprf}, {"l1d", l1d}, {"fu", fu}}
}

// rmwKernel is a directed loop for the older-store rule: a
// read-modify-write add into a table slot, a load of the same slot and a
// store elsewhere each iteration, behind a data-dependent branch.
func rmwKernel(t testing.TB) *prog.Program {
	addMR := findV(t, isa.OpADD, isa.W64, isa.KMem, isa.KReg)
	testRI := findV(t, isa.OpTEST, isa.W64, isa.KReg, isa.KImm)
	b := kasm.New()
	b.MovRI(isa.RCX, 100)
	b.Label("top")
	b.MovRR(isa.RAX, isa.RCX)
	b.AndRI(isa.RAX, 31)
	b.I(addMR, isa.MemIdxOp(isa.R15, isa.RAX, 8, 0), isa.RegOp(isa.RCX))
	b.LoadIdx(isa.RBX, isa.R15, isa.RAX, 8, 0)
	b.StoreIdx(isa.R15, isa.RAX, 8, 256, isa.RBX)
	b.I(testRI, isa.RegOp(isa.RBX), isa.ImmOp(3))
	b.Jcc(isa.CondE, "skip")
	b.ImulRR(isa.RDX, isa.RBX)
	b.Label("skip")
	b.Dec(isa.RCX)
	b.Jcc(isa.CondNE, "top")
	return kasm.Kernel("rmw", b.Build(), make([]byte, 512))
}

// TestIssueWakeupDifferential: the wake-up issue stage moves exactly the
// µops the old IQ scan moves, on every cycle of generated programs over
// every preset, the four baseline suites, the 8000-instruction L1D
// programs, runs resumed from checkpoints and faulty runs (register,
// cache, decoder, store-buffer and ROB-next faults, the last two forcing
// squashes), and its state always equals its own rebuild.
func TestIssueWakeupDifferential(t *testing.T) {
	o := &wakeupOracle{}
	cfg := DefaultConfig()

	var gens []*prog.Program
	for _, g := range presetGens() {
		for seed := uint64(1); seed <= 2; seed++ {
			if g.name == "l1d" && seed > 1 {
				continue
			}
			p := gen.Materialize(gen.NewRandom(&g.cfg, stats.Derive(seed, 7)), &g.cfg)
			label := fmt.Sprintf("gen/%s/%d", g.name, seed)
			pcfg := cfg
			if seed == 1 {
				pcfg = fullTracking(cfg)
			}
			r := o.compare(t, label, p.Insts, p.NewState, pcfg)
			if !r.Clean() {
				t.Fatalf("%s: generated program did not run clean", label)
			}
			p.Name = label
			gens = append(gens, p)
		}
	}

	baselines := append(dcdiag.Programs(1), mibench.Programs(1)...)
	baselines = append(baselines, rmwKernel(t))
	sf := silifuzz.DefaultOptions()
	sf.Rounds, sf.TargetInstrs, sf.NumTests = 3000, 600, 2
	baselines = append(baselines, silifuzz.Run(sf).Tests...)
	// The suites' kernels loop for up to 95k cycles; the watchdog cuts
	// each at 3k, which still covers its loop many times over.
	bcfg := cfg
	bcfg.MaxCycles = 3000
	for _, p := range baselines {
		o.compare(t, p.Name, p.Insts, p.NewState, bcfg)
	}

	// Faulty runs, on the functional-unit preset's short programs: each
	// fault kind at two random sites and cycles.
	rng := rand.New(rand.NewPCG(3201, 3202))
	for _, p := range gens {
		if len(p.Insts) > 700 {
			continue
		}
		golden := Run(p.Insts, p.NewState(), cfg)
		at := func() uint64 { return 1 + rng.Uint64N(golden.Cycles) }
		faults := map[string]func(c *Core, _ uint64){}
		for k := 0; k < 2; k++ {
			reg, ibit, cbit := rng.IntN(cfg.IntPRF), rng.IntN(64), rng.IntN(cfg.L1D.SizeBytes*8)
			dbit, entry, sbit, rbit := rng.IntN(48), rng.IntN(64), rng.IntN(128), rng.IntN(31)
			faults[fmt.Sprintf("irf%d", k)] = func(c *Core, _ uint64) { c.FlipIntPRFBit(reg, ibit) }
			faults[fmt.Sprintf("l1d%d", k)] = func(c *Core, _ uint64) { c.FlipCacheBit(cbit) }
			faults[fmt.Sprintf("decoder%d", k)] = func(c *Core, _ uint64) { c.ArmDecoderFault(dbit) }
			faults[fmt.Sprintf("sq%d", k)] = func(c *Core, _ uint64) { c.FlipStoreBufferBit(entry, sbit) }
			faults[fmt.Sprintf("rob%d", k)] = func(c *Core, _ uint64) { c.FlipROBNextBit(entry, rbit) }
		}
		events := map[string][]CycleEvent{}
		for _, name := range slices.Sorted(maps.Keys(faults)) {
			events[name] = []CycleEvent{{Start: at(), Fire: faults[name]}}
		}
		// Opcode-byte flips are where undecodable fetches come from: arm
		// one into each bit of the first byte, at spaced cycles.
		for b := 0; b < 8; b++ {
			events["decoder-opcode"] = append(events["decoder-opcode"], CycleEvent{
				Start: uint64(b+1) * golden.Cycles / 10,
				Fire:  func(c *Core, _ uint64) { c.ArmDecoderFault(b) }})
		}
		for _, name := range slices.Sorted(maps.Keys(events)) {
			fcfg := cfg
			fcfg.Events = events[name]
			fcfg.MaxCycles = 2*golden.Cycles + 2000
			o.compare(t, p.Name+"/"+name, p.Insts, p.NewState, fcfg)
		}
	}

	// Runs resumed from a checkpoint, fault-free and with a flip after the
	// resume cycle.
	for _, p := range gens[:2] {
		golden := Run(p.Insts, p.NewState(), cfg)
		var ck *Checkpoint
		capCfg := cfg
		capCfg.OnCycle = func(c *Core, cyc uint64) {
			if cyc == golden.Cycles/3 {
				ck = c.Checkpoint()
			}
		}
		Run(p.Insts, p.NewState(), capCfg)
		reg, ibit := rng.IntN(cfg.IntPRF), rng.IntN(64)
		for _, rcfg := range []Config{
			{},
			{Events: []CycleEvent{{Start: ck.Cycle() + 5, Fire: func(c *Core, _ uint64) { c.FlipIntPRFBit(reg, ibit) }}},
				MaxCycles: 2*golden.Cycles + 2000},
		} {
			label := fmt.Sprintf("%s/resume@%d/events=%d", p.Name, ck.Cycle(), len(rcfg.Events))
			want := RunFromCheckpoint(ck, rcfg)
			c := new(Core)
			c.RestoreFrom(ck, rcfg)
			resultsIdentical(t, label, want, o.run(t, label, c))
		}
		ck.Release()
	}

	cen := o.cen
	t.Logf("census: %+v", cen)
	for name, n := range map[string]int{
		"loads held by an older store": cen.heldLoads,
		"read-modify-write issues":     cen.rmwIssues,
		"stale waiter nodes":           cen.staleNodes,
		"decoder-mutated µops":         cen.mutated,
		"undecodable µops":             cen.bad,
		"squashes":                     int(cen.flushes),
		"copyFrom rebuilds":            cen.rebuilds,
	} {
		if n == 0 {
			t.Errorf("no source exercised %s", name)
		}
	}
}
