package experiments

import (
	"fmt"
	"io"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// ConvergencePoint is one sampled iteration of a Harpocrates run:
// coverage of the best survivor and (at checkpoints) its SFI-measured
// detection capability.
type ConvergencePoint struct {
	Iteration int
	Coverage  float64
	Detection float64 // -1 when not sampled at this iteration
}

// Convergence is a Fig. 10 panel for one structure.
type Convergence struct {
	Structure coverage.Structure
	Points    []ConvergencePoint
	// FinalCoverage / FinalDetection are the converged values.
	FinalCoverage  float64
	FinalDetection float64
	Iterations     int
	// Best is the final best program, named harpocrates/<structure>:
	// the Harpocrates entry of Fig. 11 and §VI-C.
	Best *prog.Program
}

// Fig10 runs the Harpocrates loop for one structure and samples coverage
// every iteration plus detection at ~8 checkpoints — the paper's
// "coverage and detection measured across Harpocrates optimization".
// The run is made on first use and shared with Fig. 11 and §VI-C.
func (s *Session) Fig10(st coverage.Structure) (*Convergence, error) {
	if c, ok := s.conv[st]; ok {
		return c, nil
	}
	c, err := fig10(st, s.pp)
	if err == nil {
		s.conv[st] = c
	}
	return c, err
}

func fig10(st coverage.Structure, pp Params) (*Convergence, error) {
	o := core.PresetFor(st, pp.Scale)
	o.Seed = pp.Seed
	o.Obs = pp.Obs

	nCheck := 8
	every := o.Iterations / nCheck
	if every < 1 {
		every = 1
	}
	type checkpoint struct {
		it int
		g  *gen.Genotype
	}
	var checks []checkpoint
	o.OnIteration = func(it int, best *core.Individual) {
		if it%every == 0 || it == o.Iterations-1 {
			checks = append(checks, checkpoint{it, best.G.Clone()})
		}
	}
	res, err := core.Run(o)
	if err != nil {
		return nil, err
	}

	best := gen.Materialize(res.Best.G, &o.Gen)
	best.Name = fmt.Sprintf("harpocrates/%v", st)
	conv := &Convergence{Structure: st, Iterations: res.Iterations, Best: best}
	det := make(map[int]float64)
	for _, c := range checks {
		p := gen.Materialize(c.g, &o.Gen)
		camp := &inject.Campaign{
			Prog:   p.Insts,
			Init:   p.InitFunc(),
			Target: st,
			Type:   inject.DefaultFaultType(st),
			N:      pp.Injections(st),
			Seed:   pp.Seed,
			Cfg:    uarch.DefaultConfig(),
			Obs:    pp.Obs,
		}
		s, err := camp.Run()
		if err != nil {
			return nil, fmt.Errorf("fig10 %v checkpoint %d: %w", st, c.it, err)
		}
		det[c.it] = s.Detection()
	}
	for it, cov := range res.History.Best {
		p := ConvergencePoint{Iteration: it, Coverage: cov, Detection: -1}
		if d, ok := det[it]; ok {
			p.Detection = d
		}
		conv.Points = append(conv.Points, p)
	}
	conv.FinalCoverage = res.Best.Fitness
	if len(checks) > 0 {
		conv.FinalDetection = det[checks[len(checks)-1].it]
	}
	return conv, nil
}

// FprintConvergence renders a Fig. 10 panel as a text series.
func FprintConvergence(w io.Writer, c *Convergence) {
	fmt.Fprintf(w, "Fig. 10 — %v: coverage (and detection at checkpoints) across optimization\n", c.Structure)
	for _, p := range c.Points {
		bar := ""
		for i := 0.0; i < p.Coverage*50; i++ {
			bar += "*"
		}
		if p.Detection >= 0 {
			fmt.Fprintf(w, "  it %4d  cov %6.2f%%  det %6.2f%%  %s\n",
				p.Iteration, 100*p.Coverage, 100*p.Detection, bar)
		} else {
			fmt.Fprintf(w, "  it %4d  cov %6.2f%%              %s\n", p.Iteration, 100*p.Coverage, bar)
		}
	}
	fmt.Fprintf(w, "  converged after %d iterations: coverage %.2f%%, detection %.2f%%\n",
		c.Iterations, 100*c.FinalCoverage, 100*c.FinalDetection)
}
