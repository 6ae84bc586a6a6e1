package experiments

import (
	"fmt"
	"io"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

// InterplayPoint is the detection capability of one fault duration.
type InterplayPoint struct {
	Label     string
	Type      inject.FaultType
	WindowLen uint64 // cycles; 0 for single-cycle transients
	Detection float64
	Lo, Hi    float64
}

// InterplayResult quantifies the paper's §II-D fault-type containment
// (Fig. 2): transients are single (bit, cycle) events, intermittents
// persist for a window, and a whole-run window behaves like a permanent
// stuck-at. Detection capability is expected to grow with fault
// duration — "a program that detects all transient faults is also very
// likely to detect the other two types".
type InterplayResult struct {
	Structure coverage.Structure
	Program   string
	Points    []InterplayPoint
}

// Interplay measures detection of transient, windowed-intermittent and
// whole-run stuck-at faults in one bit-array structure using one
// Harpocrates-style random program.
func Interplay(st coverage.Structure, pp Params) (*InterplayResult, error) {
	if st.IsFunctionalUnit() {
		return nil, fmt.Errorf("experiments: interplay targets bit arrays (got %v)", st)
	}
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 1000 * pp.Scale
	p := gen.Materialize(gen.NewRandom(&cfg, stats.Derive(pp.Seed, 2)), &cfg)

	golden := (&inject.Campaign{
		Prog: p.Insts, Init: p.InitFunc(), Target: st,
		Type: inject.Transient, N: 1, Seed: pp.Seed, Cfg: uarch.DefaultConfig(), Obs: pp.Obs,
	}).Golden()
	if !golden.Clean() {
		return nil, fmt.Errorf("experiments: interplay program failed")
	}

	res := &InterplayResult{Structure: st, Program: p.Name}
	cases := []InterplayPoint{
		{Label: "transient (1 cycle)", Type: inject.Transient},
		{Label: "intermittent (16 cycles)", Type: inject.Intermittent, WindowLen: 16},
		{Label: "intermittent (256 cycles)", Type: inject.Intermittent, WindowLen: 256},
		{Label: "stuck-at (whole run)", Type: inject.Intermittent, WindowLen: 4*golden.Cycles + 200_000},
	}
	for _, c := range cases {
		camp := &inject.Campaign{
			Prog: p.Insts, Init: p.InitFunc(), Target: st,
			Type: c.Type, IntermittentLen: c.WindowLen,
			N: pp.Injections(st), Seed: pp.Seed, Cfg: uarch.DefaultConfig(), Obs: pp.Obs,
		}
		s, err := camp.Run()
		if err != nil {
			return nil, err
		}
		c.Detection = s.Detection()
		c.Lo, c.Hi = s.CI()
		res.Points = append(res.Points, c)
	}
	return res, nil
}

// FprintInterplay renders the duration sweep. The ordering claim is
// printed only when the whole-run row's interval lies above the
// transient row's; otherwise the sweep is unresolved at this budget.
func FprintInterplay(w io.Writer, r *InterplayResult) {
	fmt.Fprintf(w, "Fault-type interplay (§II-D, Fig. 2) — %v, program %s\n", r.Structure, r.Program)
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-26s detection %5.1f%%  [%4.1f, %5.1f]%%\n",
			p.Label, 100*p.Detection, 100*p.Lo, 100*p.Hi)
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.Lo > first.Hi {
		fmt.Fprintln(w, "  -> longer-lived faults are easier to detect; single-cycle transients are the hard case")
	} else {
		fmt.Fprintf(w, "  -> unresolved: the %s interval does not lie above the %s one\n", last.Label, first.Label)
	}
}
