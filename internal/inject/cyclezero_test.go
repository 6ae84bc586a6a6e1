package inject

import (
	"testing"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/obs"
	"harpocrates/internal/uarch"
)

// A fast-forward campaign resumes every simulated fault from a golden
// checkpoint, those before the first spaced one (cycle
// uarch.CheckpointSpacing) from checkpoint 0. The differentials below pin
// that to the from-reset reference.

// fastForward runs c as is and under NoFastForward, fails unless the
// statistics are equal, and returns the fast-forward run's counters.
func fastForward(t *testing.T, label string, campaign func() *Campaign) *obs.Registry {
	t.Helper()
	ref := campaign()
	ref.NoFastForward = true
	want, err := ref.Run()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	c := campaign()
	reg := obs.NewRegistry()
	c.Obs = obs.New(reg, nil)
	got, err := c.Run()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !want.Equal(got) {
		t.Fatalf("%s: fast-forward changed statistics:\nfrom reset:   %+v\nfast-forward: %+v", label, want, got)
	}
	if n := reg.Counter("inject.resume.reset").Load(); n != 0 {
		t.Fatalf("%s: %d fast-forward runs started from reset", label, n)
	}
	if ck, sim := reg.Counter("inject.resume.checkpoint").Load(), reg.Counter("inject.simulated").Load(); ck != sim {
		t.Fatalf("%s: %d runs resumed from a checkpoint, %d simulated", label, ck, sim)
	}
	return reg
}

// seedDrawing sets c.Seed to the first seed whose campaign draws a fault
// that starts at cycle 1.
func seedDrawing(t *testing.T, c *Campaign, goldenCycles uint64) {
	t.Helper()
	nl := targetNetlist(c.Target)
	for seed := uint64(1); seed < 10_000; seed++ {
		c.Seed = seed
		for i := 0; i < c.N; i++ {
			if c.deriveSpec(i, goldenCycles, nl).start == 1 {
				return
			}
		}
	}
	t.Fatalf("%v/%v: no seed draws a fault at cycle 1", c.Target, c.Type)
}

// TestResumeFromCycleZeroBitIdentical: on a program whose golden run ends
// before the second spaced checkpoint, every target × fault type resumes
// its simulated faults — most of them from checkpoint 0, functional-unit
// faults at their first activation, every other kind at its start,
// decoder flips and intermittent windows at cycle 1 among them — with
// statistics equal to the from-reset reference and no run started from
// reset. On an L1D preset program the golden run keeps a checkpoint at
// every multiple of the spacing before its end, none dropped, and the
// campaign is again equal to the reference.
func TestResumeFromCycleZeroBitIdentical(t *testing.T) {
	short := func() *Campaign { return testProgram(t, 40, nil) }
	goldenCycles := short().Golden().Cycles
	if goldenCycles >= 2*uarch.CheckpointSpacing {
		t.Fatalf("golden run takes %d cycles, not under the second spaced checkpoint at %d",
			goldenCycles, 2*uarch.CheckpointSpacing)
	}
	models := []struct {
		target coverage.Structure
		typ    FaultType
	}{
		{coverage.IRF, Transient}, {coverage.IRF, Intermittent},
		{coverage.FPRF, Transient}, {coverage.FPRF, Intermittent},
		{coverage.L1D, Transient}, {coverage.L1D, Intermittent},
		{coverage.IntAdder, Permanent}, {coverage.IntAdder, Intermittent},
		{coverage.IntMul, Permanent}, {coverage.IntMul, Intermittent},
		{coverage.FPAdd, Permanent}, {coverage.FPAdd, Intermittent},
		{coverage.FPMul, Permanent}, {coverage.FPMul, Intermittent},
		{coverage.Decoder, Transient}, {coverage.LSQ, Transient},
	}
	var fuPermanentRuns int64
	for _, m := range models {
		c := short()
		c.Target, c.Type, c.N = m.target, m.typ, 24
		c.IntermittentLen = 40
		if m.typ != Permanent {
			seedDrawing(t, c, goldenCycles)
		}
		seed := c.Seed
		reg := fastForward(t, m.target.String()+"/"+m.typ.String(), func() *Campaign {
			c := short()
			c.Target, c.Type, c.N, c.Seed = m.target, m.typ, 24, seed
			c.IntermittentLen = 40
			return c
		})
		if m.typ == Permanent {
			fuPermanentRuns += reg.Counter("inject.resume.checkpoint").Load()
		}
	}
	if fuPermanentRuns == 0 {
		t.Fatal("no permanent functional-unit fault was simulated")
	}

	l1d := func() *Campaign {
		c := testProgram(t, 0, func(cfg *gen.Config) { *cfg = core.PresetFor(coverage.L1D, 1).Gen })
		c.Target, c.Type, c.N = coverage.L1D, Transient, 16
		return c
	}
	ga := l1d().buildGolden(false)
	cks := ga.Checkpoints
	want := int((ga.Result.Cycles-1)/uarch.CheckpointSpacing) + 1
	for i, ck := range cks {
		if ck.Cycle() != uint64(i)*uarch.CheckpointSpacing {
			t.Fatalf("L1D golden run: checkpoint %d at cycle %d, want %d", i, ck.Cycle(), uint64(i)*uarch.CheckpointSpacing)
		}
	}
	if len(cks) != want {
		t.Fatalf("L1D golden run (%d cycles) kept %d checkpoints, want %d", ga.Result.Cycles, len(cks), want)
	}
	ga.Release()
	fastForward(t, "L1D preset", l1d)
}
