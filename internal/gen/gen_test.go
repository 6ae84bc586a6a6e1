package gen

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"harpocrates/internal/arch"
	"harpocrates/internal/isa"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumInstrs = 300
	return cfg
}

// The central generator guarantee (paper §V-B): every generated program
// is valid, deterministic and non-crashing.
func TestGeneratedProgramsNeverCrash(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 60; trial++ {
		g := NewRandom(&cfg, rng)
		p := Materialize(g, &cfg)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		n, _, err := p.GoldenRun(10 * cfg.NumInstrs)
		if err != nil {
			t.Fatalf("trial %d: generated program crashed: %v", trial, err)
		}
		if n != cfg.NumInstrs {
			t.Fatalf("trial %d: retired %d instructions, want %d", trial, n, cfg.NumInstrs)
		}
		if !p.Deterministic(10 * cfg.NumInstrs) {
			t.Fatalf("trial %d: generated program is nondeterministic", trial)
		}
	}
}

func TestGeneratedProgramsRunOnCore(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewPCG(3, 4))
	ccfg := uarch.DefaultConfig()
	ccfg.DebugScrub = true
	for trial := 0; trial < 20; trial++ {
		g := NewRandom(&cfg, rng)
		p := Materialize(g, &cfg)
		_, gsig, gerr := p.GoldenRun(10 * cfg.NumInstrs)
		if gerr != nil {
			t.Fatal(gerr)
		}
		res := uarch.Run(p.Insts, p.NewState(), ccfg)
		if res.Crash != nil || res.TimedOut {
			t.Fatalf("trial %d: core run failed: %v %v", trial, res.Crash, res.TimedOut)
		}
		if res.Signature != gsig {
			t.Fatalf("trial %d: core/emulator signature mismatch", trial)
		}
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewPCG(5, 6))
	g := NewRandom(&cfg, rng)
	p1 := Materialize(g, &cfg)
	p2 := Materialize(g, &cfg)
	if len(p1.Insts) != len(p2.Insts) {
		t.Fatal("length mismatch")
	}
	for i := range p1.Insts {
		if p1.Insts[i] != p2.Insts[i] {
			t.Fatalf("instruction %d differs between materializations", i)
		}
	}
	if p1.InitGPR != p2.InitGPR {
		t.Fatal("initial GPRs differ")
	}
	_, s1, _ := p1.GoldenRun(10 * cfg.NumInstrs)
	_, s2, _ := p2.GoldenRun(10 * cfg.NumInstrs)
	if s1 != s2 {
		t.Fatal("signatures differ")
	}
}

func TestReservedRegistersNeverClobbered(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 20; trial++ {
		g := NewRandom(&cfg, rng)
		p := Materialize(g, &cfg)
		for i, in := range p.Insts {
			v := isa.Lookup(in.V)
			for k, spec := range v.Ops {
				if spec.Kind == isa.KReg && spec.Acc&isa.AccW != 0 {
					r := in.Ops[k].Reg
					if r == isa.RSP || r == BaseReg {
						t.Fatalf("instruction %d (%v) writes reserved register %v", i, in, r)
					}
				}
				if spec.Kind == isa.KMem && in.Ops[k].Mem.Base != BaseReg {
					t.Fatalf("instruction %d (%v) uses non-reserved base", i, in)
				}
			}
		}
	}
}

func TestBranchesResolveToNext(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewPCG(9, 10))
	g := NewRandom(&cfg, rng)
	p := Materialize(g, &cfg)
	for i, in := range p.Insts {
		if isa.Lookup(in.V).IsBranch && in.Ops[0].Imm != 0 {
			t.Fatalf("branch at %d targets %d, want 0 (next instruction)", i, in.Ops[0].Imm)
		}
	}
}

func TestMemOperandsAlignedAndInRegion(t *testing.T) {
	cfg := smallConfig()
	cfg.Mem = MemPolicy{RegionBytes: 4096, Stride: 24}
	rng := rand.New(rand.NewPCG(11, 12))
	g := NewRandom(&cfg, rng)
	p := Materialize(g, &cfg)
	for i, in := range p.Insts {
		v := isa.Lookup(in.V)
		for k, spec := range v.Ops {
			if spec.Kind != isa.KMem {
				continue
			}
			d := in.Ops[k].Mem.Disp
			if d < 0 || int(d) > 4096-16 {
				t.Fatalf("instruction %d: displacement %d out of region", i, d)
			}
			if spec.Width == isa.W128 && d%16 != 0 {
				t.Fatalf("instruction %d: 128-bit operand misaligned (%d)", i, d)
			}
			if int(d)%int(min(spec.Width, 16)) != 0 {
				t.Fatalf("instruction %d: operand misaligned for width %v", i, spec.Width)
			}
		}
	}
}

func min(a isa.Width, b int) int {
	if int(a) < b {
		return int(a)
	}
	return b
}

func TestWeightedSelection(t *testing.T) {
	cfg := smallConfig()
	cfg.NumInstrs = 3000
	// Weight one variant overwhelmingly.
	cfg.Weights = make([]float64, len(cfg.Allowed))
	for i := range cfg.Weights {
		cfg.Weights[i] = 0.001
	}
	cfg.Weights[7] = 1000
	rng := rand.New(rand.NewPCG(13, 14))
	g := NewRandom(&cfg, rng)
	count := 0
	for _, v := range g.Variants {
		if v == cfg.Allowed[7] {
			count++
		}
	}
	if count < cfg.NumInstrs/2 {
		t.Fatalf("heavily weighted variant selected only %d/%d times", count, cfg.NumInstrs)
	}
}

func TestAllocationPoliciesDiffer(t *testing.T) {
	policies := []RegAllocPolicy{AllocMaxDistance, AllocRoundRobin, AllocRandom}
	var sigs []string
	for _, pol := range policies {
		cfg := smallConfig()
		cfg.RegAlloc = pol
		g := &Genotype{Seed: 42}
		for i := 0; i < 100; i++ {
			g.Variants = append(g.Variants, cfg.Allowed[i%50])
		}
		p := Materialize(g, &cfg)
		sigs = append(sigs, p.Disassemble())
	}
	if sigs[0] == sigs[1] && sigs[1] == sigs[2] {
		t.Fatal("all allocation policies produced identical programs")
	}
}

func TestPoolExcludesUnsafeVariants(t *testing.T) {
	for _, id := range DefaultPool() {
		v := isa.Lookup(id)
		if v.NonDeterministic || v.Privileged {
			t.Fatalf("pool contains unsafe variant %v", v)
		}
		if v.Op == isa.OpDIV || v.Op == isa.OpIDIV {
			t.Fatalf("pool contains wide division %v", v)
		}
	}
	if len(DefaultPool()) < 500 {
		t.Fatalf("default pool suspiciously small: %d", len(DefaultPool()))
	}
}

func TestPoolFilter(t *testing.T) {
	fp := PoolFilter(func(v *isa.Variant) bool { return v.Unit == isa.UFPAdd })
	if len(fp) == 0 {
		t.Fatal("no FP-add variants in pool")
	}
	for _, id := range fp {
		if isa.Lookup(id).Unit != isa.UFPAdd {
			t.Fatal("filter leaked wrong unit")
		}
	}
}

// Stack-heavy mutants must stay in bounds: an all-PUSH and an all-POP
// program of paper-scale length must not crash.
func TestStackImbalanceStaysInBounds(t *testing.T) {
	var push, pop isa.VariantID
	for _, id := range isa.ByOp(isa.OpPUSH) {
		if isa.Lookup(id).Ops[0].Kind == isa.KReg {
			push = id
		}
	}
	for _, id := range isa.ByOp(isa.OpPOP) {
		if isa.Lookup(id).Ops[0].Kind == isa.KReg {
			pop = id
		}
	}
	cfg := smallConfig()
	cfg.NumInstrs = 30000
	for _, vid := range []isa.VariantID{push, pop} {
		g := &Genotype{Seed: 1}
		for i := 0; i < cfg.NumInstrs; i++ {
			g.Variants = append(g.Variants, vid)
		}
		p := Materialize(g, &cfg)
		if _, _, err := p.GoldenRun(2 * cfg.NumInstrs); err != nil {
			t.Fatalf("stack-only program (%v) crashed: %v", isa.Lookup(vid), err)
		}
	}
}

func TestInitialStateUsesLayout(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewPCG(15, 16))
	p := Materialize(NewRandom(&cfg, rng), &cfg)
	if p.InitGPR[BaseReg] != prog.DataBase {
		t.Fatal("base register not initialized to data region")
	}
	if p.InitGPR[isa.RSP] != prog.StackBase+StackBytes/2 {
		t.Fatal("stack pointer not initialized mid-stack")
	}
	st := p.NewState()
	if _, err := st.Mem.(*arch.Memory).Read(prog.DataBase, 8); err != nil {
		t.Fatal("data region unreadable")
	}
}

// Property: materialization must produce valid runnable programs for
// ARBITRARY variant sequences drawn from the pool (the mutation engine
// may synthesize any such sequence).
func TestMaterializeArbitrarySequencesProperty(t *testing.T) {
	cfg := smallConfig()
	f := func(seed uint64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		g := &Genotype{Seed: seed}
		for _, r := range raw {
			g.Variants = append(g.Variants, cfg.Allowed[int(r)%len(cfg.Allowed)])
		}
		p := Materialize(g, &cfg)
		if err := p.Validate(); err != nil {
			return false
		}
		n, _, err := p.GoldenRun(10*len(g.Variants) + 100)
		return err == nil && n == len(g.Variants)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolUsage(t *testing.T) {
	cfg := smallConfig()
	pool := cfg.Allowed
	if len(pool) < 3 {
		t.Skip("pool too small")
	}
	// A genotype using exactly two pool variants.
	g := &Genotype{Variants: []isa.VariantID{pool[0], pool[1], pool[0]}}
	want := 2.0 / float64(len(pool))
	if got := PoolUsage(&cfg, []*Genotype{g}); got != want {
		t.Fatalf("PoolUsage = %f, want %f", got, want)
	}
	// Out-of-pool variants must not count.
	var outside isa.VariantID
	for v := isa.VariantID(0); int(v) < isa.NumVariants(); v++ {
		found := false
		for _, p := range pool {
			if p == v {
				found = true
				break
			}
		}
		if !found {
			outside = v
			break
		}
	}
	g2 := &Genotype{Variants: []isa.VariantID{outside}}
	if got := PoolUsage(&cfg, []*Genotype{g, g2}); got != want {
		t.Fatalf("out-of-pool variant counted: %f, want %f", got, want)
	}
	// Empty pool reports zero.
	empty := Config{}
	if got := PoolUsage(&empty, []*Genotype{g}); got != 0 {
		t.Fatalf("empty pool usage %f, want 0", got)
	}
}

// TestWeightTotalLeftToRightPinned: NewRandom draws against the weights'
// left-to-right float sum, the total pick used to recompute per draw;
// any other order rounds differently (0.1+0.2+0.3 is 0.6000000000000001
// left to right, 0.6 right to left).
func TestWeightTotalLeftToRightPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Allowed = cfg.Allowed[:3]
	cfg.Weights = []float64{0.1, 0.2, 0.3}
	if got := math.Float64bits(cfg.weightTotal()); got != 0x3fe3333333333334 {
		t.Fatalf("weight total bits %#x, want 0x3fe3333333333334", got)
	}
}
