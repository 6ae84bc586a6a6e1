package experiments

import (
	"fmt"
	"io"
	"time"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
)

// StepBreakdown is Table I: the duration of one
// mutation/generation/compilation/evaluation loop step.
type StepBreakdown struct {
	Mutation    time.Duration
	Generation  time.Duration
	Compilation time.Duration
	Evaluation  time.Duration
	Programs    int // programs per step
	Instrs      int // instructions per program
	Steps       int // steps averaged over
}

// Total returns the single-step total.
func (s StepBreakdown) Total() time.Duration {
	return s.Mutation + s.Generation + s.Compilation + s.Evaluation
}

// InstrsPerSecond returns the generated-and-evaluated instruction rate
// (the §VI-A throughput figure).
func (s StepBreakdown) InstrsPerSecond() float64 {
	t := s.Total().Seconds()
	if t <= 0 {
		return 0
	}
	return float64(s.Programs*s.Instrs) / t
}

// Table1 measures the loop-step breakdown at (scaled) paper parameters:
// 96 programs of 5K instructions per step.
func Table1(pp Params) (StepBreakdown, error) {
	o := core.Options{Structure: coverage.IntAdder, Seed: pp.Seed, Obs: pp.Obs}
	o.Gen = gen.DefaultConfig()
	o.Gen.NumInstrs = min(5000, 1250*pp.Scale)
	o.PopSize = min(96, 24*pp.Scale)
	o.TopK = o.PopSize / 6
	o.MutantsPerParent = 6
	o.Iterations = 4
	res, err := core.Run(o)
	if err != nil {
		return StepBreakdown{}, err
	}
	h := res.History
	steps := res.Iterations
	return StepBreakdown{
		Mutation:    h.Times.Mutation / time.Duration(steps),
		Generation:  h.Times.Generation / time.Duration(steps),
		Compilation: h.Times.Compilation / time.Duration(steps),
		Evaluation:  h.Times.Evaluation / time.Duration(steps),
		Programs:    o.PopSize,
		Instrs:      o.Gen.NumInstrs,
		Steps:       steps,
	}, nil
}

// FprintTable1 renders Table I.
func FprintTable1(w io.Writer, s StepBreakdown) {
	fmt.Fprintf(w, "Table I — Harpocrates single loop step duration breakdown (%d programs x %d instructions, avg of %d steps)\n",
		s.Programs, s.Instrs, s.Steps)
	fmt.Fprintf(w, "  %-12s %-12s %-12s %-12s %-12s\n", "Mutation", "Generation", "Compilation", "Evaluation", "Total")
	fmt.Fprintf(w, "  %-12v %-12v %-12v %-12v %-12v\n",
		s.Mutation.Round(time.Microsecond), s.Generation.Round(time.Microsecond),
		s.Compilation.Round(time.Microsecond), s.Evaluation.Round(time.Microsecond),
		s.Total().Round(time.Microsecond))
	fmt.Fprintf(w, "  throughput: %.0f generated-and-evaluated instructions/second\n", s.InstrsPerSecond())
}
