package experiments

import (
	"fmt"
	"io"
	"sync"

	"harpocrates/internal/core"
	"harpocrates/internal/corpus"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
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
	Result         *core.Result
	GenCfg         gen.Config
}

// Fig10 results are cached per structure so Fig. 11 and §VI-C reuse the
// same optimization runs.
var (
	fig10Mu    sync.Mutex
	fig10Cache = map[coverage.Structure]*Convergence{}
)

// Fig10 runs the Harpocrates loop for one structure and samples coverage
// every iteration plus detection at ~8 checkpoints — the paper's
// "coverage and detection measured across Harpocrates optimization".
func Fig10(st coverage.Structure, pp Params) (*Convergence, error) {
	fig10Mu.Lock()
	if c, ok := fig10Cache[st]; ok {
		fig10Mu.Unlock()
		return c, nil
	}
	fig10Mu.Unlock()
	c, err := fig10(st, pp)
	if err == nil {
		fig10Mu.Lock()
		fig10Cache[st] = c
		fig10Mu.Unlock()
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

	conv := &Convergence{Structure: st, Iterations: res.Iterations, Result: res, GenCfg: o.Gen}
	det := make(map[int]float64)
	var lastCamp *inject.Campaign
	var lastStats *inject.Stats
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
		lastCamp, lastStats = camp, s
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

	// Feed the persistent corpus: the evolved best program (with its
	// genotype, so it can seed later runs) plus the final checkpoint's
	// detection measurement when it belongs to the same genotype.
	if pp.Corpus != nil {
		add, err := pp.Corpus.Add(gen.Materialize(res.Best.G, &o.Gen), res.Best.G, corpus.Meta{
			Structure: st.String(),
			Fitness:   res.Best.Fitness,
			Iteration: res.Iterations - 1,
		})
		if err != nil {
			return nil, fmt.Errorf("fig10 %v: archive: %w", st, err)
		}
		if last := checks[len(checks)-1]; len(checks) > 0 && add.Added && last.g.Hash() == res.Best.G.Hash() {
			if err := pp.Corpus.SetDetection(add.Hash, lastCamp, lastStats); err != nil {
				return nil, fmt.Errorf("fig10 %v: archive detection: %w", st, err)
			}
		}
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
