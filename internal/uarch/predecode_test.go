package uarch

import (
	"fmt"
	"slices"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/baselines/silifuzz"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
	"harpocrates/internal/prog"
	"harpocrates/internal/stats"
)

// Rename reads each instruction's operands from the program's predecode
// table instead of deriving them per µop. The differential holds the
// table to the derivation it replaced: entry by entry against collectRefs
// and the variant's memory predicates, and µop by µop on mid-run golden
// cores against the on-the-spot path, which decoder-mutated µops still
// take.

// predecodeCensus counts what the table must get right; the differential
// insists its programs reach each of them.
type predecodeCensus struct {
	entries       int
	partialMerges int // narrow integer writes: the old register is a source
	flagMerges    int // partial or conditional flag writes: the old flags are a source
	loads, stores int
	renamed       int // µops renamed through the table and on the spot alike
	refused       int // renames both paths refused (a stall rename repeats next cycle)
	rerouted      int // mutated µops whose decInst has other operands than their pc
}

// predecodeOracle holds the differential's cores, reused across samples.
type predecodeOracle struct {
	cen                      predecodeCensus
	table, spot, tableQ, mut Core
}

// checkTable compares every entry of p's table with what the on-the-spot
// derivation gives, and restates the two merge rules the table must keep
// without consulting collectRefs.
func (o *predecodeOracle) checkTable(p []isa.Inst) error {
	tbl := newPredecode(p)
	if len(tbl.ops) != len(p) {
		return fmt.Errorf("%d entries for %d instructions", len(tbl.ops), len(p))
	}
	for pc := range p {
		in := &p[pc]
		e := &tbl.ops[pc]
		v := isa.Lookup(in.V)
		srcs, dsts := collectRefs(in, v, nil, nil)
		gotSrcs, gotDsts := tbl.operands(e)
		var need [3]uint8
		for _, d := range dsts {
			need[d.cls]++
		}
		switch {
		case e.v != v:
			return fmt.Errorf("pc %d: variant %v, want %v", pc, e.v.ID, v.ID)
		case !slices.Equal(gotSrcs, srcs) || !slices.Equal(gotDsts, dsts):
			return fmt.Errorf("pc %d (%v): operands %v → %v, want %v → %v", pc, in, gotSrcs, gotDsts, srcs, dsts)
		case e.need != need:
			return fmt.Errorf("pc %d (%v): claims %v registers per class, want %v", pc, in, e.need, need)
		case e.isLoad != (v.ReadsMem() || v.Op == isa.OpPOP) || e.isStore != (v.WritesMem() || v.Op == isa.OpPUSH):
			return fmt.Errorf("pc %d (%v): load %v store %v", pc, in, e.isLoad, e.isStore)
		}
		hasSrc := func(cls, arch uint8, bits uint16) bool {
			return slices.Contains(gotSrcs, archRef{cls: cls, arch: arch, bits: bits})
		}
		for i := 0; i < int(in.NOps); i++ {
			if spec := v.Ops[i]; spec.Kind == isa.KReg && spec.Acc&isa.AccW != 0 && spec.Width < isa.W32 {
				o.cen.partialMerges++
				if !hasSrc(clsInt, uint8(in.Ops[i].Reg), 64) {
					return fmt.Errorf("pc %d (%v): narrow write of %v merges into no 64-bit source", pc, in, isa.Reg(in.Ops[i].Reg))
				}
			}
		}
		if v.FlagsWritten != 0 && v.FlagsRead == 0 && (v.FlagsWritten != isa.AllFlags || flagsCondWritten(v)) {
			o.cen.flagMerges++
			if !hasSrc(clsFlag, 0, 8) {
				return fmt.Errorf("pc %d (%v): partial or conditional flag write merges into no flags source", pc, in)
			}
		}
		o.cen.entries++
		o.cen.loads += btoi(e.isLoad)
		o.cen.stores += btoi(e.isStore)
	}
	return nil
}

// renamedAlike compares the µop each core renamed last, pcs and the
// mutated flag aside, and the rename state both left behind.
func renamedAlike(a, b *Core) error {
	ia := (a.robHead + a.robCnt - 1) % len(a.rob)
	ib := (b.robHead + b.robCnt - 1) % len(b.rob)
	ua, ub := &a.rob[ia], &b.rob[ib]
	noInst := ua.poison || ua.bad
	same := ia == ib && ua.seq == ub.seq && ua.vid == ub.vid &&
		noInst == (ub.poison || ub.bad) && (noInst || *a.instOf(ua) == *b.instOf(ub)) &&
		slices.Equal(ua.sources(), ub.sources()) && slices.Equal(ua.dests(), ub.dests()) &&
		ua.st == ub.st && ua.pending == ub.pending && ua.isLoad == ub.isLoad && ua.isStore == ub.isStore &&
		ua.poison == ub.poison && ua.bad == ub.bad && ua.predNext == ub.predNext &&
		ua.snapValid == ub.snapValid && ua.snap == ub.snap
	if !same {
		return fmt.Errorf("µop %+v, on the spot %+v", *ua, *ub)
	}
	if a.rat != b.rat || !slices.EqualFunc(a.free[:], b.free[:], slices.Equal) ||
		!slices.EqualFunc(a.ready[:], b.ready[:], slices.Equal) || !slices.Equal(a.iq, b.iq) || !slices.Equal(a.sq, b.sq) || a.nLoads != b.nLoads ||
		a.nStores != b.nStores || a.seq != b.seq ||
		!slices.Equal(a.rdyOther, b.rdyOther) || !slices.Equal(a.rdyLoad, b.rdyLoad) {
		return fmt.Errorf("rename state diverged after µop seq %d", ua.seq)
	}
	return nil
}

// checkRename renames c's fetch queue on copies of c, every entry twice:
// through the table (clean fetch) and on the spot (the same instruction
// as a decoder-mutated µop). Then it renames each entry as a mutated µop
// whose decInst is another pc's instruction, against a clean fetch of
// that pc: a mutated µop must take its operands from decInst, never from
// the table entry of its own pc.
func (o *predecodeOracle) checkRename(c *Core) error {
	o.table.copyFrom(c)
	o.spot.copyFrom(c)
	for _, f := range c.fq {
		g := f
		if !f.poison && !f.bad && !f.mutated {
			o.spot.decInst = o.spot.prog[f.pc]
			g.mutated = true
		}
		ok := o.table.renameOne(f)
		if ok != o.spot.renameOne(g) {
			return fmt.Errorf("pc %d: the table renames it %v, on the spot %v", f.pc, ok, !ok)
		}
		if !ok {
			o.cen.refused++
			break
		}
		o.cen.renamed++
		if err := renamedAlike(&o.table, &o.spot); err != nil {
			return fmt.Errorf("pc %d: %w", f.pc, err)
		}
	}

	o.tableQ.copyFrom(c)
	o.mut.copyFrom(c)
	for _, f := range c.fq {
		if f.poison || f.bad || f.mutated {
			continue
		}
		q := otherOperands(c, f.pc)
		o.mut.decInst = o.mut.prog[q]
		ok := o.tableQ.renameOne(fqEntry{pc: q, predNext: f.predNext})
		if ok != o.mut.renameOne(fqEntry{pc: f.pc, predNext: f.predNext, mutated: true}) {
			return fmt.Errorf("mutated pc %d as pc %d: renamed by one path only", f.pc, q)
		}
		if !ok {
			break
		}
		o.cen.rerouted += btoi(q != f.pc)
		if err := renamedAlike(&o.tableQ, &o.mut); err != nil {
			return fmt.Errorf("mutated pc %d carrying pc %d's instruction: %w", f.pc, q, err)
		}
	}
	return nil
}

// otherOperands returns the first pc after pc whose table entry has other
// operands than pc's (pc itself when none has).
func otherOperands(c *Core, pc int) int {
	s0, d0 := c.pre.operands(&c.pre.ops[pc])
	for k := 1; k < len(c.prog); k++ {
		q := (pc + k) % len(c.prog)
		if s, d := c.pre.operands(&c.pre.ops[q]); !slices.Equal(s, s0) || !slices.Equal(d, d0) {
			return q
		}
	}
	return pc
}

// run simulates p as a golden run, checking the rename paths every 13th
// cycle, and requires the result to equal an unchecked run's.
func (o *predecodeOracle) run(t *testing.T, label string, p []isa.Inst, init func() *arch.State, cfg Config) {
	t.Helper()
	if err := o.checkTable(p); err != nil {
		t.Fatalf("%s: table: %v", label, err)
	}
	var err error
	ccfg := cfg
	ccfg.OnCycle = func(c *Core, cyc uint64) {
		if err == nil && cyc%13 == 0 {
			if e := o.checkRename(c); e != nil {
				err = fmt.Errorf("cycle %d: %w", cyc, e)
			}
		}
	}
	got := Run(p, init(), ccfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	resultsIdentical(t, label, Run(p, init(), cfg), got)
}

// TestPredecodeDifferential: every entry of the predecode table equals
// the on-the-spot derivation, and renaming through the table moves
// exactly what renaming on the spot moves, over generated programs of
// every preset (the 8000-instruction L1D ones included) and the four
// baseline suites. A checkpoint keeps reading its own table after the
// core it came from was reinitialized for another program.
func TestPredecodeDifferential(t *testing.T) {
	o := &predecodeOracle{}
	cfg := DefaultConfig()
	var gens []*prog.Program
	for _, g := range presetGens() {
		for seed := uint64(1); seed <= 2; seed++ {
			p := gen.Materialize(gen.NewRandom(&g.cfg, stats.Derive(seed, 11)), &g.cfg)
			o.run(t, fmt.Sprintf("gen/%s/%d", g.name, seed), p.Insts, p.NewState, cfg)
			gens = append(gens, p)
		}
	}

	baselines := append(dcdiag.Programs(1), mibench.Programs(1)...)
	baselines = append(baselines, rmwKernel(t))
	sf := silifuzz.DefaultOptions()
	sf.Rounds, sf.TargetInstrs, sf.NumTests = 3000, 600, 2
	baselines = append(baselines, silifuzz.Run(sf).Tests...)
	bcfg := cfg
	bcfg.MaxCycles = 3000 // the suites' kernels loop far longer; 3k cycles cover each loop often
	for _, p := range baselines {
		o.run(t, p.Name, p.Insts, p.NewState, bcfg)
	}

	cen := o.cen
	t.Logf("census: %+v", cen)
	for name, n := range map[string]int{
		"partial-width merges": cen.partialMerges,
		"flag merges":          cen.flagMerges,
		"loads":                cen.loads,
		"stores":               cen.stores,
		"renames":              cen.renamed,
		"refused renames":      cen.refused,
		"mutated µops with another pc's operands": cen.rerouted,
	} {
		if n == 0 {
			t.Errorf("no program exercised %s", name)
		}
	}

	// Pool aliasing: core a takes a checkpoint, then — as the pool does
	// with a returned core — is initialized for another program and runs
	// it. The checkpoint still shares a's first table; resuming from it
	// must give what a from-reset run gives.
	first, second := gens[0], gens[len(gens)-1]
	golden := Run(first.Insts, first.NewState(), cfg)
	var ck *Checkpoint
	capCfg := cfg
	capCfg.OnCycle = func(c *Core, cyc uint64) {
		if cyc == golden.Cycles/2 {
			ck = c.Checkpoint()
		}
	}
	a := NewCore(first.Insts, first.NewState(), capCfg)
	a.Run()
	shared := a.pre
	a.init(Compile(second.Insts), second.NewState(), cfg)
	if a.pre == shared {
		t.Fatal("init reused the table a live checkpoint shares")
	}
	resultsIdentical(t, "other program on the reinitialized core", Run(second.Insts, second.NewState(), cfg), a.Run())
	resultsIdentical(t, "resume after the core was reinitialized", golden, RunFromCheckpoint(ck, Config{}))
	ck.Release()
}
