package inject

import (
	"strings"
	"testing"

	"harpocrates/internal/ace"
	"harpocrates/internal/coverage"
	"harpocrates/internal/obs"
	"harpocrates/internal/uarch"
)

// TestDeltaTerminationBitIdenticalStats is the acceptance gate of delta
// resimulation: for every structure and fault type, a campaign with
// reconvergence-based early termination (the default) must produce
// per-injection outcomes bit-identical to the same campaign with
// NoDeltaTermination forcing every run to completion. The FU-permanent
// rows are delta-ineligible (the faulty netlist never quiesces) and pin
// that the knob is harmless there too.
func TestDeltaTerminationBitIdenticalStats(t *testing.T) {
	cases := []struct {
		target coverage.Structure
		typ    FaultType
		n      int
	}{
		{coverage.IRF, Transient, 48},
		{coverage.FPRF, Transient, 48},
		{coverage.L1D, Transient, 48},
		{coverage.IRF, Intermittent, 16},
		{coverage.FPRF, Intermittent, 12},
		{coverage.L1D, Intermittent, 12},
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
			run := func(noDelta bool) *Stats {
				c := testProgram(t, 350, nil)
				c.Target = tc.target
				c.Type = tc.typ
				c.IntermittentLen = 80
				c.N = tc.n
				c.Seed = 11
				c.NoDeltaTermination = noDelta
				st, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			full, delta := run(true), run(false)
			if !full.Equal(delta) {
				t.Fatalf("delta termination changed campaign statistics:\nfull:  %+v\ndelta: %+v", full, delta)
			}
		})
	}
}

// TestDeltaTerminationConverges: the optimization must actually fire —
// an IRF transient campaign (where most consumed-then-overwritten flips
// reconverge) must terminate at least one run early, count the cycles it
// saved, and classify every converged run without a full simulation.
func TestDeltaTerminationConverges(t *testing.T) {
	reg := obs.NewRegistry()
	c := testProgram(t, 350, nil)
	c.Target = coverage.IRF
	c.Type = Transient
	c.N = 64
	c.Seed = 11
	c.spacing.trajectory = 64
	c.Obs = obs.New(reg, nil)
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	conv := reg.Counter("inject.delta.converged").Load()
	div := reg.Counter("inject.delta.diverged").Load()
	saved := reg.Counter("inject.delta.cycles_saved").Load()
	if conv == 0 {
		t.Fatalf("no run reconverged (diverged=%d): delta termination never fired; %+v", div, st)
	}
	if saved == 0 {
		t.Fatal("runs reconverged but saved no cycles")
	}
	if conv+div != reg.Counter("inject.simulated").Load() {
		t.Fatalf("converged %d + diverged %d != simulated %d",
			conv, div, reg.Counter("inject.simulated").Load())
	}
	t.Logf("converged %d, diverged %d, saved %d cycles (golden %d)",
		conv, div, saved, st.GoldenCycles)
}

// TestDeltaTerminationHangInterplay: hang outcomes (the runs delta can
// never terminate early — they never reconverge) must be untouched, on
// the counter-loop workload whose flips produce real hangs.
func TestDeltaTerminationHangInterplay(t *testing.T) {
	run := func(noDelta bool) *Stats {
		c := loopCampaign(t, 300)
		c.N = 40
		c.Seed = 3
		c.NoDeltaTermination = noDelta
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	delta := run(false)
	if delta.Hang == 0 {
		t.Fatalf("no hang among %d counter-loop flips: %+v", delta.N, delta)
	}
	if full := run(true); !full.Equal(delta) {
		t.Fatalf("hang statistics diverge: full %+v, delta %+v", full, delta)
	}
}

// TestDeltaTerminationValidateAll: the soundness self-check re-simulates
// every delta-terminated run to completion and must find all of them
// Masked.
func TestDeltaTerminationValidateAll(t *testing.T) {
	reg := obs.NewRegistry()
	c := testProgram(t, 350, nil)
	c.Target = coverage.IRF
	c.Type = Transient
	c.N = 48
	c.Seed = 11
	c.spacing.trajectory = 64
	c.ValidateAll = true
	c.Obs = obs.New(reg, nil)
	st, err := c.Run()
	if err != nil {
		t.Fatalf("delta validation failed: %v", err)
	}
	if reg.Counter("inject.delta.converged").Load() == 0 {
		t.Fatal("validation pass exercised no reconvergence")
	}

	plain := testProgram(t, 350, nil)
	plain.Target = coverage.IRF
	plain.Type = Transient
	plain.N = 48
	plain.Seed = 11
	plain.NoDeltaTermination = true
	pst, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !pst.Equal(st) {
		t.Fatalf("ValidateAll+delta changed statistics: %+v vs %+v", pst, st)
	}
}

// TestCampaignPoolHygiene: a campaign must hand every pooled resource
// back — interval recorders, checkpoint core snapshots and the delta
// trajectory — on the success path and on the golden-timeout error path.
// Not parallel: it compares global live counters around the calls, so no
// other campaign may run concurrently (package tests marked t.Parallel
// never overlap a non-parallel test).
func TestCampaignPoolHygiene(t *testing.T) {
	baseRec := ace.LiveIntervalRecorders()
	baseCk := uarch.LiveCheckpoints()
	baseTraj := uarch.LiveDeltaTrajectories()
	check := func(label string) {
		t.Helper()
		if got := ace.LiveIntervalRecorders(); got != baseRec {
			t.Fatalf("%s: %d interval recorders leaked", label, got-baseRec)
		}
		if got := uarch.LiveCheckpoints(); got != baseCk {
			t.Fatalf("%s: %d checkpoints leaked", label, got-baseCk)
		}
		if got := uarch.LiveDeltaTrajectories(); got != baseTraj {
			t.Fatalf("%s: %d delta trajectories leaked", label, got-baseTraj)
		}
	}

	// Success path, with caller-set Record* flags that goldenConfig must
	// strip (each faulty run would otherwise draw a recorder and leak it
	// through the discarded Result).
	c := testProgram(t, 350, nil)
	c.Target = coverage.IRF
	c.Type = Transient
	c.N = 32
	c.Seed = 11
	c.Cfg.RecordIRFIntervals = true
	c.Cfg.RecordFPRFIntervals = true
	c.Cfg.RecordL1DIntervals = true
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	check("success path")

	// Long enough to force the checkpoint-halving pass (which must
	// release the snapshots it drops).
	big := testProgram(t, 2000, nil)
	big.Target = coverage.IRF
	big.Type = Transient
	big.N = 8
	big.Seed = 11
	big.spacing.checkpoints = 16
	if _, err := big.Run(); err != nil {
		t.Fatal(err)
	}
	check("checkpoint halving")

	// Golden-timeout error path: instrumentation is acquired before the
	// timeout is noticed and must still be released.
	bad := testProgram(t, 350, nil)
	bad.Target = coverage.IRF
	bad.Type = Transient
	bad.N = 8
	bad.Cfg.MaxCycles = 5
	if _, err := bad.Run(); err == nil {
		t.Fatal("golden timeout not reported")
	}
	check("golden-timeout path")

	// The same exits over a shared bundle, where the one release drops a
	// reference: once the cache lets go, nothing may be left behind.
	gc := NewGoldenCache(0)
	shared := func(maxCycles uint64) *Campaign {
		c := testProgram(t, 350, nil)
		c.Target = coverage.IRF
		c.Type = Transient
		c.N = 32
		c.Seed = 11
		c.Cfg.MaxCycles = maxCycles
		c.GoldenCache = gc
		c.ProgramHash = testProgramHash(c)
		return c
	}
	if _, err := shared(0).Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := shared(5).Run(); err == nil {
		t.Fatal("golden timeout not reported over a shared bundle")
	}
	// ValidateAll failure: a bundle whose IRF log is empty calls every
	// flip masked, which the simulation of a consumed one contradicts.
	v := shared(1 << 20)
	_, release := gc.Acquire(v.goldenKey(), nil, func() *uarch.GoldenArtifacts {
		ga := v.computeGoldenArtifacts()
		ace.ReleaseIntervalRecorder(ga.Result.IRFIntervals)
		ga.Result.IRFIntervals = ace.GetIntervalRecorder(v.Cfg.IntPRF * 64)
		return ga
	})
	release()
	v.ValidateAll = true
	if _, err := v.Run(); err == nil || !strings.Contains(err.Error(), "pre-classifier unsound") {
		t.Fatalf("campaign over an emptied interval log: %v, want the pre-classifier refuted", err)
	}
	if gc.Len() != 3 {
		t.Fatalf("cache holds %d bundles, want 3", gc.Len())
	}
	gc.Purge()
	check("shared bundle: success, golden-timeout and validation-failure paths")
}
