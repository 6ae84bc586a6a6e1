package experiments

import (
	"fmt"
	"io"
	"sort"

	"harpocrates/internal/coverage"
	"harpocrates/internal/prog"
)

// BaselineFigure reproduces the shared shape of paper Figs. 4, 5 and 6:
// hardware coverage and SFI detection capability of every baseline
// program for a pair of target structures.
//
//	Fig. 4: IRF + L1D (transient faults, ACE coverage)
//	Fig. 5: integer adder + multiplier (permanent gate faults, IBR)
//	Fig. 6: SSE FP adder + multiplier (permanent gate faults, IBR)
func (s *Session) BaselineFigure(structs []coverage.Structure) ([]Measurement, error) {
	suites := s.baselinePrograms()
	type task struct {
		fw string
		p  *prog.Program
		st coverage.Structure
	}
	var tasks []task
	for _, fw := range []string{FwMiBench, FwSiliFuzz, FwOpenDCDiag} {
		for _, p := range suites[fw] {
			for _, st := range structs {
				tasks = append(tasks, task{fw, p, st})
			}
		}
	}
	out := make([]Measurement, len(tasks))
	errs := make([]error, len(tasks))
	// Campaigns parallelize internally across all cores; tasks run
	// serially to bound memory.
	for i, t := range tasks {
		m, err := s.Measure(t.p, t.st)
		m.Framework = t.fw
		out[i] = m
		errs[i] = err
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Fig4 measures the IRF and L1D (bit arrays, transient faults).
func (s *Session) Fig4() ([]Measurement, error) {
	return s.BaselineFigure([]coverage.Structure{coverage.IRF, coverage.L1D})
}

// Fig5 measures the integer adder and multiplier (permanent gate
// faults).
func (s *Session) Fig5() ([]Measurement, error) {
	return s.BaselineFigure([]coverage.Structure{coverage.IntAdder, coverage.IntMul})
}

// Fig6 measures the SSE FP adder and multiplier (permanent gate faults).
func (s *Session) Fig6() ([]Measurement, error) {
	return s.BaselineFigure([]coverage.Structure{coverage.FPAdd, coverage.FPMul})
}

// Summary aggregates per framework and structure.
type Summary struct {
	Framework string
	Structure coverage.Structure
	MaxDet    float64
	AvgDet    float64
	MaxCov    float64
	AvgCov    float64
	Programs  int
}

// Summarize groups measurements by (framework, structure).
func Summarize(ms []Measurement) []Summary {
	type key struct {
		fw string
		st coverage.Structure
	}
	agg := map[key]*Summary{}
	var order []key
	for _, m := range ms {
		k := key{m.Framework, m.Structure}
		s, ok := agg[k]
		if !ok {
			s = &Summary{Framework: m.Framework, Structure: m.Structure}
			agg[k] = s
			order = append(order, k)
		}
		s.Programs++
		s.AvgDet += m.Detection
		s.AvgCov += m.Coverage
		if m.Detection > s.MaxDet {
			s.MaxDet = m.Detection
		}
		if m.Coverage > s.MaxCov {
			s.MaxCov = m.Coverage
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].st != order[b].st {
			return order[a].st < order[b].st
		}
		return order[a].fw < order[b].fw
	})
	var out []Summary
	for _, k := range order {
		s := agg[k]
		s.AvgDet /= float64(s.Programs)
		s.AvgCov /= float64(s.Programs)
		out = append(out, *s)
	}
	return out
}

// FprintSummaries renders framework/structure aggregates.
func FprintSummaries(w io.Writer, title string, ss []Summary) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s %-12s %5s %9s %9s %9s %9s\n",
		"structure", "framework", "progs", "avg cov", "max cov", "avg det", "max det")
	for _, s := range ss {
		fmt.Fprintf(w, "%-10s %-12s %5d %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			s.Structure, s.Framework, s.Programs,
			100*s.AvgCov, 100*s.MaxCov, 100*s.AvgDet, 100*s.MaxDet)
	}
}
