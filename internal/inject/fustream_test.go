package inject

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gates"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
	"harpocrates/internal/obs"
	"harpocrates/internal/uarch"
)

// fuStreamPrograms are the programs the functional-unit differential
// grades every unit on: the benchmark's IntMul preset, an FP-heavy one
// (the FPRF preset's XMM-biased selection, shortened), and one built
// from variants no unit model serves, on which every fault of every unit
// is pre-masked.
var fuStreamPrograms = []struct {
	name string
	pool func(*gen.Config)
}{
	{"intmul-preset", func(cfg *gen.Config) { *cfg = core.PresetFor(coverage.IntMul, 1).Gen }},
	{"fp-heavy", func(cfg *gen.Config) {
		*cfg = core.PresetFor(coverage.FPRF, 1).Gen
		cfg.NumInstrs = 400
	}},
	{"no-unit", func(cfg *gen.Config) {
		cfg.NumInstrs = 400
		var allowed []isa.VariantID
		for _, id := range cfg.Allowed {
			if _, ok := coverage.FUOf(isa.Lookup(id)); !ok {
				allowed = append(allowed, id)
			}
		}
		cfg.Allowed = allowed
	}},
}

var fuUnits = []coverage.Structure{coverage.IntAdder, coverage.IntMul, coverage.FPAdd, coverage.FPMul}

// forEachFUCase runs run as a parallel subtest per program of
// fuStreamPrograms × unit × permanent/intermittent, handing it a
// constructor of that case's 60-injection campaign. The group subtest
// returns once every case has.
func forEachFUCase(t *testing.T, run func(t *testing.T, prog string, target coverage.Structure,
	campaign func() *Campaign)) {
	t.Run("group", func(t *testing.T) {
		for _, prog := range fuStreamPrograms {
			for _, target := range fuUnits {
				for _, typ := range []FaultType{Permanent, Intermittent} {
					prog, target, typ := prog, target, typ
					t.Run(prog.name+"/"+target.String()+"/"+typ.String(), func(t *testing.T) {
						t.Parallel()
						run(t, prog.name, target, func() *Campaign {
							c := testProgram(t, 0, prog.pool)
							c.Target = target
							c.Type = typ
							c.IntermittentLen = 300
							c.N = 60
							c.Seed = 13
							c.ProgramHash = testProgramHash(c)
							return c
						})
					})
				}
			}
		}
	})
}

// TestFUStreamBitIdentical is the acceptance gate of grading
// functional-unit faults against the golden operand stream: for every
// unit × permanent/intermittent on every program of fuStreamPrograms, a
// campaign on its own bundle and one on a GoldenCache-shared bundle must
// produce statistics bit-identical to the from-reset plain-netlist
// reference, and every injection must be either pre-masked or simulated.
func TestFUStreamBitIdentical(t *testing.T) {
	var resumed atomic.Int64
	caches := map[string]*GoldenCache{}
	for _, prog := range fuStreamPrograms {
		caches[prog.name] = NewGoldenCache(0)
	}
	forEachFUCase(t, func(t *testing.T, prog string, target coverage.Structure, campaign func() *Campaign) {
		run := func(c *Campaign) *Stats {
			st, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		ref := campaign()
		ref.NoFastForward = true
		own := campaign()
		shared := campaign()
		shared.GoldenCache = caches[prog]
		reg := obs.NewRegistry()
		shared.Obs = obs.New(reg, nil)
		want := run(ref)
		if got := run(own); !want.Equal(got) {
			t.Fatalf("own bundle changed statistics:\nfrom reset: %+v\nown:        %+v", want, got)
		}
		if got := run(shared); !want.Equal(got) {
			t.Fatalf("shared bundle changed statistics:\nfrom reset: %+v\nshared:     %+v", want, got)
		}
		n := int64(shared.N)
		pre := reg.Counter("inject.premasked").Load()
		sim := reg.Counter("inject.simulated").Load()
		if pre+sim != n {
			t.Fatalf("premasked %d + simulated %d != N %d", pre, sim, n)
		}
		if target == coverage.FPAdd && pre == 0 {
			t.Fatal("no FPAdd fault pre-masked")
		}
		if prog == "no-unit" && pre != n {
			t.Fatalf("%d of %d faults pre-masked on a program that never invokes %v", pre, n, target)
		}
		resumed.Add(reg.Counter("inject.resume.checkpoint").Load())
	})
	if resumed.Load() == 0 {
		t.Fatal("no stream-graded fault resumed from a checkpoint")
	}
}

// TestFUStreamValidateAll runs the same cases on their own bundles under
// ValidateAll, which re-simulates every graded fault from reset on the
// plain netlist: a pre-masked one must reproduce the golden run, an
// activated one the graded run's outcome and cycle count.
func TestFUStreamValidateAll(t *testing.T) {
	forEachFUCase(t, func(t *testing.T, _ string, _ coverage.Structure, campaign func() *Campaign) {
		c := campaign()
		c.ValidateAll = true
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// countingHooks returns base (nil: native arithmetic) with the target
// unit's 64-bit operation replaced by a fault-free one that counts the
// calls reaching its netlist into *n.
func countingHooks(target coverage.Structure, base *arch.FUHooks, n *int) *arch.FUHooks {
	var h arch.FUHooks
	if base != nil {
		h = *base
	}
	fp := func(u *gates.FPUnit) func(a, b uint64) uint64 {
		return func(a, b uint64) uint64 {
			if !u.Bypasses(a, b) {
				*n++
			}
			return u.Op64(a, b)
		}
	}
	switch target {
	case coverage.IntAdder:
		h.IntAdd = func(a, b uint64, cin bool) uint64 {
			*n++
			if cin {
				return a + b + 1
			}
			return a + b
		}
	case coverage.IntMul:
		h.IntMul = func(a, b uint64) (uint64, uint64) {
			*n++
			hi, lo := bits.Mul64(a, b)
			return lo, hi
		}
	case coverage.FPAdd:
		h.FPAdd64 = fp(gates.NewFPAdd64Unit(nil))
	case coverage.FPMul:
		h.FPMul64 = fp(gates.NewFPMul64Unit(nil))
	}
	return &h
}

// wrongPathCampaign is a hand-written loop whose back edge waits on a
// 20-cycle divide, with a multiply on both of its paths, so whichever
// way the branch is mispredicted a multiply (and the loop's adds) run on
// the wrong path meanwhile. Generated programs resolve every branch to
// its fall-through and never do.
//
//	    mov  $12, %rcx
//	    mov  $5, %rdi
//	    mov  $3, %r8
//	L:  imul $7, %rdi, %rsi
//	    mov  %rcx, %rax
//	    mov  $0, %rdx
//	    div  %r8
//	    and  $0, %rax
//	    add  %rax, %rcx
//	    dec  %rcx
//	    jne  L
//	    imul $9, %rdi, %rsi
func wrongPathCampaign(t *testing.T) *Campaign {
	c := loopCampaign(t, 1)
	movImm := findVariant(t, isa.OpMOV, isa.W64, condAny, isa.KReg, isa.KImm)
	movReg := findVariant(t, isa.OpMOV, isa.W64, condAny, isa.KReg, isa.KReg)
	imul := findVariant(t, isa.OpIMULRRI, isa.W64, condAny, isa.KReg, isa.KReg, isa.KImm)
	div := findVariant(t, isa.OpDIV, isa.W64, condAny, isa.KReg)
	and := findVariant(t, isa.OpAND, isa.W64, condAny, isa.KReg, isa.KImm)
	add := findVariant(t, isa.OpADD, isa.W64, condAny, isa.KReg, isa.KReg)
	dec := findVariant(t, isa.OpDEC, isa.W64, condAny, isa.KReg)
	jne := findVariant(t, isa.OpJcc, isa.W32, isa.CondNE, isa.KImm)
	c.Prog = []isa.Inst{
		isa.MakeInst(movImm, isa.RegOp(isa.RCX), isa.ImmOp(12)),
		isa.MakeInst(movImm, isa.RegOp(isa.RDI), isa.ImmOp(5)),
		isa.MakeInst(movImm, isa.RegOp(isa.R8), isa.ImmOp(3)),
		isa.MakeInst(imul, isa.RegOp(isa.RSI), isa.RegOp(isa.RDI), isa.ImmOp(7)),
		isa.MakeInst(movReg, isa.RegOp(isa.RAX), isa.RegOp(isa.RCX)),
		isa.MakeInst(movImm, isa.RegOp(isa.RDX), isa.ImmOp(0)),
		isa.MakeInst(div, isa.RegOp(isa.R8)),
		isa.MakeInst(and, isa.RegOp(isa.RAX), isa.ImmOp(0)),
		isa.MakeInst(add, isa.RegOp(isa.RCX), isa.RegOp(isa.RAX)),
		isa.MakeInst(dec, isa.RegOp(isa.RCX)),
		isa.MakeInst(jne, isa.ImmOp(-8)), // back to the imul
		isa.MakeInst(imul, isa.RegOp(isa.RSI), isa.RegOp(isa.RDI), isa.ImmOp(9)),
	}
	c.Cfg = uarch.DefaultConfig()
	return c
}

// TestFUStreamRecordsEveryNetlistCall: the golden stream holds exactly
// the invocations that reach the target netlist in an out-of-order run,
// wrong-path ones included, in cycle order; the no-unit program sends
// none, and the wrong-path loop sends the multiplier more calls than
// in-order execution does.
func TestFUStreamRecordsEveryNetlistCall(t *testing.T) {
	type program struct {
		name     string
		campaign func() *Campaign
	}
	var progs []program
	for _, p := range fuStreamPrograms {
		progs = append(progs, program{p.name, func() *Campaign { return testProgram(t, 0, p.pool) }})
	}
	progs = append(progs, program{"wrong-path", func() *Campaign { return wrongPathCampaign(t) }})
	for _, prog := range progs {
		for _, target := range fuUnits {
			c := prog.campaign()
			c.Target = target
			c.Type = Permanent
			c.N = 1
			ga := c.buildGolden(false)
			s := ga.FUStream
			calls := len(s.Calls)
			want := 0
			cfg := c.goldenConfig()
			cfg.FU = countingHooks(target, cfg.FU, &want)
			if res := uarch.Run(c.Prog, c.Init(), cfg); res.Signature != ga.Result.Signature ||
				res.Cycles != ga.Result.Cycles {
				t.Fatalf("%s/%v: recording changed the golden run", prog.name, target)
			}
			if calls != want {
				t.Fatalf("%s/%v: stream holds %d calls, the netlist was invoked %d times", prog.name, target, calls, want)
			}
			for i := 1; i < calls; i++ {
				if s.Calls[i].Cycle < s.Calls[i-1].Cycle {
					t.Fatalf("%s/%v: call %d at cycle %d after cycle %d", prog.name, target, i, s.Calls[i].Cycle, s.Calls[i-1].Cycle)
				}
			}
			if calls > 0 && s.Calls[calls-1].Cycle >= ga.Result.Cycles {
				t.Fatalf("%s/%v: call stamped past the golden run's end", prog.name, target)
			}
			switch {
			case prog.name == "no-unit" && calls != 0:
				t.Fatalf("no-unit program invoked %v %d times", target, calls)
			case prog.name == "intmul-preset" && calls == 0 && (target == coverage.IntAdder || target == coverage.IntMul):
				t.Fatalf("intmul-preset program never invoked %v", target)
			case prog.name == "wrong-path" && target == coverage.IntMul:
				inOrder := 0
				st := c.Init()
				st.FU = countingHooks(target, nil, &inOrder)
				if _, err := arch.Run(c.Prog, st, 10_000); err != nil {
					t.Fatal(err)
				}
				if calls <= inOrder {
					t.Fatalf("wrong-path loop: %d multiplier calls out of order, %d in order; no wrong-path call", calls, inOrder)
				}
			}
			ga.Release()
		}
	}
}

// TestValidateAllCatchesBrokenFUStream: ValidateAll must refuse a
// campaign whose stream grading is wrong, naming the injection, gate,
// stuck value and first-activation cycle. The bundle is tampered in
// place in a GoldenCache: emptied, every fault looks never activated;
// with every call stamped at the golden run's last cycle, activated
// faults resume from a checkpoint after their real first activation.
func TestValidateAllCatchesBrokenFUStream(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(ga *uarch.GoldenArtifacts)
		want   string
	}{
		{"empty stream", func(ga *uarch.GoldenArtifacts) { ga.FUStream.Calls = nil }, "never activated"},
		{"late stamps", func(ga *uarch.GoldenArtifacts) {
			for i := range ga.FUStream.Calls {
				ga.FUStream.Calls[i].Cycle = ga.Result.Cycles - 1
			}
		}, "first activation at cycle"},
	} {
		c := testProgram(t, 0, fuStreamPrograms[0].pool)
		c.Target = coverage.IntMul
		c.Type = Permanent
		c.N = 40
		c.Seed = 13
		c.ValidateAll = true
		c.GoldenCache = NewGoldenCache(0)
		c.ProgramHash = testProgramHash(c)
		_, release := c.GoldenCache.Acquire(c.goldenKey(), nil, func() *uarch.GoldenArtifacts {
			ga := c.computeGoldenArtifacts()
			tc.tamper(ga)
			return ga
		})
		_, err := c.Run()
		release()
		if err == nil {
			t.Fatalf("%s: ValidateAll accepted a broken stream", tc.name)
		}
		for _, part := range []string{"injection ", "gate ", "stuck-at-", tc.want} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%s: error %q does not name %q", tc.name, err, part)
			}
		}
	}
}

// TestFUGraderRearmsUnits: a worker's grader runs every faulty run it
// grades on one unit set. Graded fault A and then fault B, its hooks must
// answer exactly what a fresh FUHooksFor(target, B) answers, both on the
// golden pairs (answered from the table) and on pairs the golden run
// never sent (evaluated on the reused netlist unit), single-precision
// path included; an FP intermittent campaign's fault-free hooks must
// answer what a fresh fault-free unit does.
func TestFUGraderRearmsUnits(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	normal := func() uint64 { return math.Float64bits((rng.Float64() + 0.5) * math.Ldexp(1, rng.IntN(40)-20)) }
	for _, target := range fuUnits {
		pair := func() gates.Pair {
			switch target {
			case coverage.IntAdder:
				return gates.Pair{A: rng.Uint64(), B: rng.Uint64(), Cin: rng.IntN(2) == 1}
			case coverage.IntMul:
				return gates.Pair{A: rng.Uint64(), B: rng.Uint64()}
			}
			return gates.Pair{A: normal(), B: normal()}
		}
		// call returns the unit's result for p (a product's two words, or
		// a sum) and, on an FP unit, its single-precision result for p's
		// low halves.
		call := func(h *arch.FUHooks, p gates.Pair) (r [2]uint64, single uint32) {
			switch target {
			case coverage.IntAdder:
				r[0] = h.IntAdd(p.A, p.B, p.Cin)
			case coverage.IntMul:
				r[0], r[1] = h.IntMul(p.A, p.B)
			case coverage.FPAdd:
				r[0], single = h.FPAdd64(p.A, p.B), h.FPAdd32(uint32(p.A), uint32(p.B))
			case coverage.FPMul:
				r[0], single = h.FPMul64(p.A, p.B), h.FPMul32(uint32(p.A), uint32(p.B))
			}
			return r, single
		}
		s := &gates.Stream{Table: gates.NewTable(targetNetlist(target), fuResultBits(target))}
		golden := FUHooksFor(target, nil)
		var inTable, outside []gates.Pair
		for i := 0; i < 100; i++ {
			p := pair()
			r, _ := call(golden, p)
			s.Record(p, r[0], r[1], uint64(i))
			inTable = append(inTable, p)
		}
		for i := 0; i < 64; i++ {
			outside = append(outside, pair())
		}
		all := append(inTable, outside...)

		// A and B: faults the table's pairs activate that answer some
		// pair outside it differently from each other.
		differs := func(x, y *arch.FUHooks, ps []gates.Pair) bool {
			for _, p := range ps {
				rx, _ := call(x, p)
				if ry, _ := call(y, p); rx != ry {
					return true
				}
			}
			return false
		}
		draw := func(other *arch.FUHooks) gates.StuckAt {
			for {
				f := gates.StuckAt{Gate: rng.IntN(targetNetlist(target).NumGates()), Value: rng.IntN(2) == 1}
				if h := FUHooksFor(target, &f); differs(h, golden, inTable) && differs(h, other, outside) {
					return f
				}
			}
		}
		a := draw(golden)
		b := draw(FUHooksFor(target, &a))

		c := &Campaign{Target: target, Type: Intermittent}
		g := c.newFUGrader(s)
		for _, f := range []gates.StuckAt{a, b} {
			if _, ok := g.activation(faultSpec{gate: f.Gate, val: f.Value}, false); !ok {
				t.Fatalf("%v: fault %+v changes no golden pair", target, f)
			}
			for _, p := range all {
				call(g.hooks, p) // the units run with the armed fault
			}
		}
		fresh := FUHooksFor(target, &b)
		for _, p := range all {
			gotR, gotS := call(g.hooks, p)
			wantR, wantS := call(fresh, p)
			if gotR != wantR || gotS != wantS {
				t.Fatalf("%v: fault %+v after %+v, pair %+v: reused unit %#x/%#x, fresh unit %#x/%#x",
					target, b, a, p, gotR, gotS, wantR, wantS)
			}
		}
		if target == coverage.FPAdd || target == coverage.FPMul {
			for _, p := range all {
				gotR, gotS := call(g.clean, p)
				wantR, wantS := call(golden, p)
				if gotR != wantR || gotS != wantS {
					t.Fatalf("%v: fault-free hooks, pair %+v: %#x/%#x, fresh unit %#x/%#x", target, p, gotR, gotS, wantR, wantS)
				}
			}
		}
	}
}
