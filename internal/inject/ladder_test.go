package inject

import (
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gates"
	"harpocrates/internal/obs"
	"harpocrates/internal/uarch"
)

// TestGradingLadder: on a case per rung family, ValidateAll — one oracle
// run from reset per injection, checked against its verdict — changes
// neither the statistics nor the three grading counters, every
// injection is counted by exactly one of them, and the ladder itself
// never starts a run from reset. Across the table every rung decides at
// least one injection.
func TestGradingLadder(t *testing.T) {
	cases := []struct {
		name     string
		campaign func() *Campaign
	}{
		{"irf/transient/delta", func() *Campaign {
			c := testProgram(t, 350, nil)
			c.Target, c.Type, c.N, c.Seed, c.BurstLen = coverage.IRF, Transient, 48, 11, 64
			c.trajectorySpacing = 64
			return c
		}},
		{"fprf/intermittent", func() *Campaign {
			c := testProgram(t, 300, nil)
			c.Target, c.Type, c.N, c.IntermittentLen = coverage.FPRF, Intermittent, 24, 120
			return c
		}},
		{"l1d/transient/burst 3", func() *Campaign {
			return l1dCampaign(presetCampaign(t, coverage.L1D), 12, 3, 21)
		}},
		{"intmul/permanent", func() *Campaign {
			c := testProgram(t, 0, fuStreamPrograms[0].pool)
			c.Target, c.Type, c.N, c.Seed = coverage.IntMul, Permanent, 24, 13
			return c
		}},
		{"fpadd/intermittent", func() *Campaign {
			c := testProgram(t, 0, fuStreamPrograms[1].pool)
			c.Target, c.Type, c.N, c.IntermittentLen = coverage.FPAdd, Intermittent, 24, 2000
			return c
		}},
	}
	var decided [numRungs]int64
	for _, tc := range cases {
		var fu bool
		run := func(validate bool) (*Stats, *obs.Registry) {
			c := tc.campaign()
			c.ValidateAll = validate
			fu = c.Target.IsFunctionalUnit()
			reg := obs.NewRegistry()
			c.Obs = obs.New(reg, nil)
			st, err := c.Run()
			if err != nil {
				t.Fatalf("%s (ValidateAll %v): %v", tc.name, validate, err)
			}
			return st, reg
		}
		counters := func(reg *obs.Registry) [3]int64 {
			return [3]int64{reg.Counter("inject.premasked").Load(), reg.Counter("inject.flushgraded").Load(),
				reg.Counter("inject.simulated").Load()}
		}
		plain, preg := run(false)
		checked, creg := run(true)
		if !plain.Equal(checked) {
			t.Fatalf("%s: ValidateAll changed statistics:\n%+v\n%+v", tc.name, plain, checked)
		}
		pc, cc := counters(preg), counters(creg)
		if pc != cc {
			t.Fatalf("%s: premasked, flushgraded, simulated %v, under ValidateAll %v", tc.name, pc, cc)
		}
		if sum := pc[0] + pc[1] + pc[2]; sum != int64(plain.N) {
			t.Fatalf("%s: premasked %d + flushgraded %d + simulated %d != N %d", tc.name, pc[0], pc[1], pc[2], plain.N)
		}
		if n := preg.Counter("inject.resume.reset").Load(); n != 0 {
			t.Fatalf("%s: the ladder started %d runs from reset", tc.name, n)
		}
		if n := creg.Counter("inject.resume.reset").Load(); n != int64(plain.N) {
			t.Fatalf("%s: %d oracle runs from reset under ValidateAll, want one per injection (%d)", tc.name, n, plain.N)
		}

		conv := preg.Counter("inject.delta.converged").Load()
		if fu {
			decided[byStream] += pc[0]
		} else {
			decided[byInterval] += pc[0]
		}
		decided[byFlush] += pc[1]
		decided[byReconverged] += conv
		decided[bySimulated] += pc[2] - conv
		t.Logf("%s: premasked %d, flushgraded %d, reconverged %d, simulated %d", tc.name, pc[0], pc[1], conv, pc[2]-conv)
	}
	for r, n := range decided {
		if n == 0 {
			t.Errorf("no injection decided by the %s rung", rungNames[r])
		}
	}
}

// TestGradingLadderEdges places faults on the edges of two rungs, where a
// random campaign seldom lands:
//
//   - a flip of a flushed byte at the start of its flush-only window,
//     which the read at that cycle consumes, climbs the ladder and passes
//     check, on the golden run of an IRF-preset program;
//   - an intermittent FPAdd fault's first activation is the first call
//     inside its window whose result the fault changes, found by running
//     the golden core with a hook that evaluates every call on a fresh
//     faulty unit as well.
func TestGradingLadderEdges(t *testing.T) {
	c := l1dCampaign(presetCampaign(t, coverage.IRF), 1, 1, 21)
	ga := c.buildGolden(false)
	defer ga.Release()
	golden, fl := ga.Result, ga.Result.L1DFlush
	checked := 0
	for li, l := range fl.Lines {
		end := len(fl.Runs)
		if li+1 < len(fl.Lines) {
			end = fl.Lines[li+1].Runs
		}
		for _, r := range fl.Runs[l.Runs:end] {
			b := l.Line*fl.LineBytes + r.Off
			if r.Start == 0 || r.Start+1 >= golden.Cycles || !golden.L1DIntervals.Consumed(b, r.Start) || checked == 64 {
				continue
			}
			sp := faultSpec{idx: b, start: r.Start, bit: 8 * b}
			if err := c.check(sp, c.grade(sp, ga, nil), golden); err != nil {
				t.Fatal(err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no flushed byte is read at its window start")
	}

	fu := testProgram(t, 0, fuStreamPrograms[1].pool)
	fu.Target, fu.Type, fu.N, fu.IntermittentLen = coverage.FPAdd, Intermittent, 24, 2000
	fga := fu.buildGolden(false)
	defer fga.Release()
	g := fu.newFUGrader(fga.FUStream)
	activated := 0
	for i := range fu.N {
		sp := fu.deriveSpec(i, fga.Result.Cycles, targetNetlist(fu.Target))
		clean, faulty := gates.NewFPAdd64Unit(nil), gates.NewFPAdd64Unit(&gates.StuckAt{Gate: sp.gate, Value: sp.val})
		var want uint64
		var wantOK bool
		var core *uarch.Core
		cfg := fu.goldenConfig()
		hooks := *cfg.FU
		hooks.FPAdd64 = func(a, b uint64) uint64 {
			r := clean.Op64(a, b)
			if cyc := core.Cycle(); !wantOK && cyc >= sp.start && cyc < sp.end && faulty.Op64(a, b) != r {
				want, wantOK = cyc, true
			}
			return r
		}
		cfg.FU = &hooks
		core = uarch.NewCore(fu.Prog, fu.Init(), cfg)
		core.Run()
		if got, ok := g.activation(sp, true); got != want || ok != wantOK {
			t.Fatalf("%s: injection %d (gate %d, window [%d, %d)): first activation (%d, %v), want (%d, %v)",
				rungNames[byStream], i, sp.gate, sp.start, sp.end, got, ok, want, wantOK)
		}
		if wantOK {
			activated++
		}
	}
	if activated == 0 || activated == fu.N {
		t.Fatalf("%d of %d faults activated in their window; want some and not all", activated, fu.N)
	}
}
