package experiments

import (
	"fmt"
	"io"

	"harpocrates/internal/coverage"
)

// AllStructures lists the six evaluation targets in paper order.
func AllStructures() []coverage.Structure {
	return []coverage.Structure{
		coverage.IRF, coverage.L1D,
		coverage.IntAdder, coverage.IntMul,
		coverage.FPAdd, coverage.FPMul,
	}
}

// Fig11 reproduces the paper's headline comparison: maximum and average
// detection capability of every framework for all six structures.
func (s *Session) Fig11() ([]Summary, []Measurement, error) {
	ms, err := s.BaselineFigure(AllStructures())
	if err != nil {
		return nil, nil, err
	}
	for _, st := range AllStructures() {
		c, err := s.Fig10(st)
		if err != nil {
			return nil, nil, err
		}
		m, err := s.Measure(c.Best, st)
		if err != nil {
			return nil, nil, err
		}
		m.Framework = FwHarpocrates
		ms = append(ms, m)
	}
	return Summarize(ms), ms, nil
}

// FprintFig11 renders the Fig. 11 bar data.
func FprintFig11(w io.Writer, ss []Summary) {
	fmt.Fprintln(w, "Fig. 11 — Maximum and average detection per method and structure")
	FprintSummaries(w, "", ss)
}
