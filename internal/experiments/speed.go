package experiments

import (
	"fmt"
	"io"

	"harpocrates/internal/coverage"
)

// SpeedSide is one contender of the §VI-C detection-speed comparison.
type SpeedSide struct {
	Program   string
	Detection float64
	Cycles    uint64
}

// SpeedResult compares the best general-purpose benchmark against the
// Harpocrates-generated program on the integer adder: the paper's point
// is that comparable detection is reached in orders of magnitude fewer
// cycles (~50K vs >11M, ~220x).
type SpeedResult struct {
	BestBaseline SpeedSide
	Harpocrates  SpeedSide
	SpeedupX     float64
}

// DetectionSpeed runs the comparison for the integer adder.
func (s *Session) DetectionSpeed() (*SpeedResult, error) {
	r := &SpeedResult{}

	// Best baseline for the adder (by detection, across MiBench).
	for _, p := range s.baselinePrograms()[FwMiBench] {
		m, err := s.Measure(p, coverage.IntAdder)
		if err != nil {
			return nil, err
		}
		better := m.Detection > r.BestBaseline.Detection ||
			(m.Detection == r.BestBaseline.Detection && r.BestBaseline.Cycles > 0 && m.Cycles < r.BestBaseline.Cycles)
		if r.BestBaseline.Program == "" || better {
			r.BestBaseline = SpeedSide{Program: m.Program, Detection: m.Detection, Cycles: m.Cycles}
		}
	}

	c, err := s.Fig10(coverage.IntAdder)
	if err != nil {
		return nil, err
	}
	m, err := s.Measure(c.Best, coverage.IntAdder)
	if err != nil {
		return nil, err
	}
	r.Harpocrates = SpeedSide{Program: m.Program, Detection: m.Detection, Cycles: m.Cycles}
	if r.Harpocrates.Cycles > 0 {
		r.SpeedupX = float64(r.BestBaseline.Cycles) / float64(r.Harpocrates.Cycles)
	}
	return r, nil
}

// FprintSpeed renders the comparison.
func FprintSpeed(w io.Writer, r *SpeedResult) {
	fmt.Fprintln(w, "§VI-C — Detection speed on the integer adder")
	fmt.Fprintf(w, "  best baseline: %-24s detection %5.1f%% in %d cycles\n",
		r.BestBaseline.Program, 100*r.BestBaseline.Detection, r.BestBaseline.Cycles)
	fmt.Fprintf(w, "  Harpocrates:   %-24s detection %5.1f%% in %d cycles\n",
		r.Harpocrates.Program, 100*r.Harpocrates.Detection, r.Harpocrates.Cycles)
	fmt.Fprintf(w, "  Harpocrates reaches comparable detection %.0fx faster (paper: ~220x)\n", r.SpeedupX)
}
