package inject

import (
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
	"harpocrates/internal/uarch"
)

// TestFastForwardBitIdenticalStats is the optimization's acceptance
// gate: for every structure, a checkpointed + ACE-pre-classified
// campaign must produce per-outcome counts bit-identical to the
// simulate-everything-from-cycle-0 path for the same seed.
func TestFastForwardBitIdenticalStats(t *testing.T) {
	cases := []struct {
		target coverage.Structure
		typ    FaultType
		n      int
	}{
		{coverage.IRF, Transient, 48},
		{coverage.FPRF, Transient, 48},
		{coverage.L1D, Transient, 48},
		{coverage.IRF, Intermittent, 16},
		{coverage.IntAdder, Permanent, 12},
		{coverage.IntMul, Permanent, 8},
		{coverage.IntAdder, Intermittent, 8},
		{coverage.FPAdd, Permanent, 8},
		{coverage.FPMul, Permanent, 8},
		{coverage.FPAdd, Intermittent, 6},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.target.String()+"/"+tc.typ.String(), func(t *testing.T) {
			t.Parallel()
			run := func(noFF bool) *Stats {
				c := testProgram(t, 350, nil)
				c.Target = tc.target
				c.Type = tc.typ
				c.IntermittentLen = 80
				c.N = tc.n
				c.spacing.checkpoints = 64 // small, to exercise thinning
				c.NoFastForward = noFF
				st, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			slow, fast := run(true), run(false)
			if !slow.Equal(fast) {
				t.Fatalf("fast-forward changed campaign statistics:\nfrom cycle 0:  %+v\nfast-forward: %+v", slow, fast)
			}
		})
	}
}

// TestValidateAllSoundness simulates every pre-classified injection and
// asserts the simulator agrees with the ACE pre-classifier. A
// disagreement fails Campaign.Run with an error.
func TestValidateAllSoundness(t *testing.T) {
	for _, target := range []coverage.Structure{coverage.IRF, coverage.FPRF, coverage.L1D} {
		c := testProgram(t, 300, nil)
		c.Target = target
		c.Type = Transient
		c.N = 40
		c.ValidateAll = true
		st, err := c.Run()
		if err != nil {
			t.Fatalf("%v: pre-classifier contradicted by simulation: %v", target, err)
		}

		c2 := testProgram(t, 300, nil)
		c2.Target = target
		c2.Type = Transient
		c2.N = 40
		st2, err := c2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Equal(st2) {
			t.Fatalf("%v: ValidateAll changed statistics: %+v vs %+v", target, st, st2)
		}
	}
}

func TestIntermittentFPRFCampaign(t *testing.T) {
	c := testProgram(t, 300, nil)
	c.Target = coverage.FPRF
	c.Type = Intermittent
	c.IntermittentLen = 120
	c.N = 24
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Masked+st.Detected() != st.N {
		t.Fatalf("outcome counts don't sum: %+v", st)
	}
	t.Log(st)
}

func TestIntermittentL1DCampaign(t *testing.T) {
	c := testProgram(t, 300, nil)
	c.Target = coverage.L1D
	c.Type = Intermittent
	c.IntermittentLen = 120
	c.N = 24
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Masked+st.Detected() != st.N {
		t.Fatalf("outcome counts don't sum: %+v", st)
	}
	t.Log(st)
}

// findVariant locates an ISA variant by op, width and operand kinds;
// cond additionally filters conditional variants (pass condAny to
// ignore).
const condAny = isa.Cond(isa.NumCond)

func findVariant(t testing.TB, op isa.Op, w isa.Width, cond isa.Cond, kinds ...isa.OpKind) isa.VariantID {
	t.Helper()
	for _, id := range isa.ByOp(op) {
		v := isa.Lookup(id)
		if v.Width != w || len(v.Ops) != len(kinds) {
			continue
		}
		if cond != condAny && v.Cond != cond {
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

// loopCampaign builds a hand-written counted loop —
//
//	movabsq $iters, %rcx
//	dec     %rcx
//	jne     .-1
//
// whose only liveness is the loop counter. A transient flip of a high
// counter bit mid-loop multiplies the trip count by billions, so the
// faulty run trips the cycle watchdog: the Hang outcome.
func loopCampaign(t *testing.T, iters int64) *Campaign {
	mov := findVariant(t, isa.OpMOV, isa.W64, condAny, isa.KReg, isa.KImm)
	dec := findVariant(t, isa.OpDEC, isa.W64, condAny, isa.KReg)
	jne := findVariant(t, isa.OpJcc, isa.W32, isa.CondNE, isa.KImm)
	prog := []isa.Inst{
		isa.MakeInst(mov, isa.RegOp(isa.RCX), isa.ImmOp(iters)),
		isa.MakeInst(dec, isa.RegOp(isa.RCX)),
		isa.MakeInst(jne, isa.ImmOp(-2)), // back to the dec
	}
	init := func() *arch.State {
		m := arch.NewMemory()
		if err := m.AddRegion(arch.Region{Name: "stack", Base: 0x20000, Size: 4096, Writable: true}); err != nil {
			t.Fatal(err)
		}
		s := arch.NewState(m)
		s.GPR[isa.RSP] = 0x20000 + 4096
		return s
	}
	cfg := uarch.DefaultConfig()
	cfg.IntPRF = 28 // small PRF: random flips often land on the live counter
	return &Campaign{Prog: prog, Init: init, Cfg: cfg, Target: coverage.IRF, Type: Transient}
}

// TestHangOutcome drives the Hang classification path: flips that blow
// up a loop counter must be reported as hangs, identically with and
// without fast-forward.
func TestHangOutcome(t *testing.T) {
	run := func(noFF bool) *Stats {
		c := loopCampaign(t, 300)
		c.N = 40
		c.Seed = 3
		c.NoFastForward = noFF
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := run(false)
	if st.Hang == 0 {
		t.Fatalf("no hang among %d counter-loop flips: %+v", st.N, st)
	}
	if slow := run(true); !slow.Equal(st) {
		t.Fatalf("hang statistics diverge: from cycle 0 %+v, fast-forward %+v", slow, st)
	}
	t.Log(st)
}

// TestCampaignDeterministicAcrossWorkers asserts (Seed, N) fully
// determines Stats regardless of scheduling.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Stats {
		c := testProgram(t, 300, nil)
		c.Target = coverage.FPRF
		c.Type = Transient
		c.N = 32
		c.Workers = workers
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b, c := run(1), run(4), run(16)
	if !a.Equal(b) || !b.Equal(c) {
		t.Fatalf("worker count changed statistics: %+v / %+v / %+v", a, b, c)
	}
}
