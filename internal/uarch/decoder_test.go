package uarch

import (
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/isa"
)

// findV locates an ISA variant by op, width and operand kinds.
func findV(t testing.TB, op isa.Op, w isa.Width, kinds ...isa.OpKind) isa.VariantID {
	t.Helper()
	for _, id := range isa.ByOp(op) {
		v := isa.Lookup(id)
		if v.Width != w || len(v.Ops) != len(kinds) {
			continue
		}
		ok := true
		for i, k := range kinds {
			if v.Ops[i].Kind != k {
				ok = false
			}
		}
		if ok {
			return id
		}
	}
	t.Fatalf("no variant for op=%d w=%v kinds=%v", op, w, kinds)
	return 0
}

// TestCorruptInstDeterministic pins the decoder-fault mutation model:
// corruptInst is a pure function of (instruction, bit), the bit index
// wraps modulo the encoded length, and at least one bit position of a
// real instruction produces undecodable bytes (the #UD path).
func TestCorruptInstDeterministic(t *testing.T) {
	mov := findV(t, isa.OpMOV, isa.W64, isa.KReg, isa.KImm)
	in := isa.MakeInst(mov, isa.RegOp(isa.RAX), isa.ImmOp(0x1234))
	nbits := 8 * len(isa.Encode(nil, in))
	sawBad := false
	for bit := 0; bit < nbits; bit++ {
		a, okA := corruptInst(in, bit)
		b, okB := corruptInst(in, bit)
		if okA != okB || a != b {
			t.Fatalf("bit %d: corruptInst not deterministic", bit)
		}
		w, okW := corruptInst(in, bit+nbits)
		if okW != okA || w != a {
			t.Fatalf("bit %d: index does not wrap modulo encoded length", bit)
		}
		if !okA {
			sawBad = true
		}
	}
	if !sawBad {
		t.Fatal("no bit flip produced undecodable bytes (#UD path unreachable)")
	}
}

// decoderRun simulates prog with a decoder fault armed before the first
// fetch (so instruction 0 is fetched corrupted), under both the naive
// and the event-driven loop, requires the two runs bit-identical, and
// returns the result.
func decoderRun(t *testing.T, prog []isa.Inst, init func() *arch.State, bit int) *Result {
	t.Helper()
	run := func(noSkip bool) *Result {
		cfg := DefaultConfig()
		cfg.NoCycleSkip = noSkip
		cfg.MaxCycles = 100_000
		cfg.Events = []CycleEvent{{Start: 0,
			Fire: func(c *Core, _ uint64) { c.ArmDecoderFault(bit) }}}
		return Run(prog, init(), cfg)
	}
	naive, skip := run(true), run(false)
	resultsIdentical(t, "decoder-fault", naive, skip)
	if naive.Trap != skip.Trap {
		t.Fatalf("Trap diverged across loops: %v vs %v", naive.Trap, skip.Trap)
	}
	return skip
}

// TestDecoderFaultTrapKinds sweeps every bit position of hand-built
// single-instruction programs and checks the architectural-exception
// plumbing end to end: whenever a corrupted fetch crashes the run,
// Result.Trap must equal the crash's exception, the naive and skipping
// loops must agree bit-for-bit, and across the sweep at least three
// distinct exception kinds must be exercised — #UD from undecodable
// bytes plus data-dependent traps (#DE, #PF, ...) from flips that
// decode into a different valid instruction.
func TestDecoderFaultTrapKinds(t *testing.T) {
	divInit := func() *arch.State {
		s := arch.NewState(arch.NewMemory())
		s.GPR[isa.RBX] = 7 // divisor; every other GPR is zero (#DE bait)
		s.GPR[isa.RAX] = 42
		return s
	}
	loadInit := func() *arch.State {
		m := arch.NewMemory()
		if err := m.AddRegion(arch.Region{Name: "data", Base: dataBase, Size: 4096, Writable: true}); err != nil {
			t.Fatal(err)
		}
		s := arch.NewState(m)
		s.GPR[isa.RSI] = dataBase
		return s
	}
	div := findV(t, isa.OpDIV, isa.W64, isa.KReg)
	mov := findV(t, isa.OpMOV, isa.W64, isa.KReg, isa.KMem)
	programs := []struct {
		name string
		prog []isa.Inst
		init func() *arch.State
	}{
		{"div", []isa.Inst{isa.MakeInst(div, isa.RegOp(isa.RBX))}, divInit},
		{"load", []isa.Inst{isa.MakeInst(mov, isa.RegOp(isa.RAX), isa.MemOp(isa.RSI, 64))}, loadInit},
	}

	kinds := map[isa.Exception]bool{}
	for _, p := range programs {
		nbits := 8 * len(isa.Encode(nil, p.prog[0]))
		for bit := 0; bit < nbits; bit++ {
			res := decoderRun(t, p.prog, p.init, bit)
			if res.Crash != nil {
				if res.Trap != res.Crash.Exception() {
					t.Fatalf("%s bit %d: Trap %v != crash exception %v (%v)",
						p.name, bit, res.Trap, res.Crash.Exception(), res.Crash)
				}
				if res.Trap != isa.ExcNone {
					kinds[res.Trap] = true
				}
			} else if res.Trap != isa.ExcNone {
				t.Fatalf("%s bit %d: clean run reports trap %v", p.name, bit, res.Trap)
			}
		}
	}
	if !kinds[isa.ExcInvalidOpcode] {
		t.Fatal("no bit flip raised #UD")
	}
	if len(kinds) < 3 {
		t.Fatalf("decoder faults exercised only %d exception kinds (%v); want >= 3", len(kinds), kinds)
	}
	t.Logf("exception kinds observed: %v", kinds)
}

// TestDecoderFaultUnconsumedIsClean: an armed decoder fault that no
// fetch ever consumes (armed after the last fetch) must leave the run's
// architectural results untouched — the arm is pipeline state, not an
// outcome.
func TestDecoderFaultUnconsumedIsClean(t *testing.T) {
	mov := findV(t, isa.OpMOV, isa.W64, isa.KReg, isa.KImm)
	prog := []isa.Inst{isa.MakeInst(mov, isa.RegOp(isa.RAX), isa.ImmOp(5))}
	init := func() *arch.State { return arch.NewState(arch.NewMemory()) }

	clean := Run(prog, init(), DefaultConfig())
	if !clean.Clean() {
		t.Fatalf("baseline not clean: %v", clean.Crash)
	}
	cfg := DefaultConfig()
	cfg.Events = []CycleEvent{{Start: clean.Cycles + 10,
		Fire: func(c *Core, _ uint64) { c.ArmDecoderFault(3) }}}
	late := Run(prog, init(), cfg)
	if late.Signature != clean.Signature || late.Crash != nil || late.Trap != isa.ExcNone {
		t.Fatalf("unconsumed decoder arm changed the run: %+v", late)
	}
}

// TestWatchdogBoundaryStuckLoop: a genuinely stuck loop (counter far
// beyond the cycle budget) must time out at exactly MaxCycles under both
// loops, with bit-identical results — the commit/cycle-boundary watchdog
// semantics the Hang outcome classification depends on.
func TestWatchdogBoundaryStuckLoop(t *testing.T) {
	mov := findV(t, isa.OpMOV, isa.W64, isa.KReg, isa.KImm)
	dec := findV(t, isa.OpDEC, isa.W64, isa.KReg)
	var jne isa.VariantID
	for _, id := range isa.ByOp(isa.OpJcc) {
		if v := isa.Lookup(id); v.Cond == isa.CondNE {
			jne = id
			break
		}
	}
	if jne == 0 {
		t.Fatal("no jne variant")
	}
	prog := []isa.Inst{
		isa.MakeInst(mov, isa.RegOp(isa.RCX), isa.ImmOp(1<<40)),
		isa.MakeInst(dec, isa.RegOp(isa.RCX)),
		isa.MakeInst(jne, isa.ImmOp(-2)),
	}
	init := func() *arch.State { return arch.NewState(arch.NewMemory()) }
	for _, noSkip := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.NoCycleSkip = noSkip
		cfg.MaxCycles = 5000
		r := Run(prog, init(), cfg)
		if !r.TimedOut || r.Cycles != cfg.MaxCycles {
			t.Fatalf("noSkip=%v: stuck loop gave TimedOut=%v Cycles=%d; want timeout at exactly %d",
				noSkip, r.TimedOut, r.Cycles, cfg.MaxCycles)
		}
	}
}
