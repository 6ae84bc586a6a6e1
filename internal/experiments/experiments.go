// Package experiments contains one harness per table and figure of the
// paper's evaluation (§III-C and §VI). Each harness returns structured
// results and can print the rows/series the paper reports. DESIGN.md §3
// maps every experiment to its harness; EXPERIMENTS.md records
// paper-versus-measured outcomes.
//
// A harness is a function of its Params, which DefaultParams scales
// with the HARPO_SCALE environment variable (default 1 = CI scale,
// minutes of CPU; larger values approach the paper's full parameters).
// The harnesses that share inputs — the baseline suites, the Fig. 10
// optimization runs and the per-(program, structure) measurements — are
// methods of a Session, which computes each input once for its Params.
package experiments

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/baselines/silifuzz"
	"harpocrates/internal/coverage"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// Scale reads the HARPO_SCALE experiment scale factor (>= 1).
func Scale() int {
	if v, err := strconv.Atoi(os.Getenv("HARPO_SCALE")); err == nil && v >= 1 {
		return v
	}
	return 1
}

// Params bundles the knobs shared by the harnesses.
type Params struct {
	Scale int
	// Injections per SFI campaign by target class; the integer
	// multiplier is the most expensive netlist, so it gets fewer at CI
	// scale.
	InjBitArray int
	InjAdder    int
	InjMul      int
	InjFP       int
	Seed        uint64

	// Obs, if set, is threaded into every refinement loop and SFI
	// campaign a harness runs (purely observational; nil disables).
	Obs *obs.Observer
}

// DefaultParams derives campaign sizes from the scale factor.
func DefaultParams() Params {
	s := Scale()
	capped := func(v, cap int) int {
		if v > cap {
			return cap
		}
		return v
	}
	return Params{
		Scale:       s,
		InjBitArray: capped(96*s, 960),
		InjAdder:    capped(32*s, 600),
		InjMul:      capped(12*s, 300),
		InjFP:       capped(24*s, 400),
		Seed:        20240704,
	}
}

// Injections returns the campaign size for a structure.
func (p Params) Injections(st coverage.Structure) int {
	switch st {
	case coverage.IRF, coverage.L1D, coverage.FPRF:
		return p.InjBitArray
	case coverage.IntAdder:
		return p.InjAdder
	case coverage.IntMul:
		return p.InjMul
	default:
		return p.InjFP
	}
}

// Framework names, in the paper's presentation order.
const (
	FwMiBench     = "MiBench"
	FwSiliFuzz    = "SiliFuzz"
	FwOpenDCDiag  = "OpenDCDiag"
	FwHarpocrates = "Harpocrates"
)

// Session runs the harnesses that share inputs for one Params. Each
// input is computed on first use and kept for the session's lifetime:
// the baseline suites, one Fig. 10 optimization run per structure, and
// one measurement per (program, structure). Two sessions share
// nothing. A Session is not safe for concurrent use; campaigns already
// parallelize internally across all cores.
type Session struct {
	pp        Params
	baselines map[string][]*prog.Program
	conv      map[coverage.Structure]*Convergence
	meas      map[measKey]Measurement
}

type measKey struct {
	p  *prog.Program
	st coverage.Structure
}

// NewSession returns an empty session for pp.
func NewSession(pp Params) *Session {
	return &Session{
		pp:   pp,
		conv: map[coverage.Structure]*Convergence{},
		meas: map[measKey]Measurement{},
	}
}

// baselinePrograms returns the three baseline suites at pp.Scale
// (SiliFuzz runs a fuzzing session on first use).
func (s *Session) baselinePrograms() map[string][]*prog.Program {
	if s.baselines == nil {
		sf := silifuzz.Run(silifuzz.Options{
			Seed:          7,
			Rounds:        8000 * s.pp.Scale,
			MaxInputBytes: 100,
			TargetInstrs:  1250 * s.pp.Scale,
			NumTests:      8,
			SnapshotSteps: 512,
		})
		s.baselines = map[string][]*prog.Program{
			FwMiBench:    mibench.Programs(s.pp.Scale),
			FwSiliFuzz:   sf.Tests,
			FwOpenDCDiag: dcdiag.Programs(s.pp.Scale),
		}
	}
	return s.baselines
}

// Measurement is one (program, structure) evaluation: the hardware
// coverage metric and the SFI-measured detection capability.
type Measurement struct {
	Framework string
	Program   string
	Structure coverage.Structure
	Coverage  float64
	Detection float64
	DetLo     float64
	DetHi     float64
	Cycles    uint64
	Uses      uint64 // operations on the target FU (0 for bit arrays)
}

// Measure evaluates one program against one structure: a tracked run for
// the coverage metric and an SFI campaign for detection (§II-C/§II-E).
// Overlapping harnesses (Figs. 4/5/6, Fig. 11 and §VI-C) share the
// result, so no campaign runs twice in a session.
func (s *Session) Measure(p *prog.Program, st coverage.Structure) (Measurement, error) {
	k := measKey{p, st}
	if m, ok := s.meas[k]; ok {
		return m, nil
	}
	m, err := measure(p, st, s.pp)
	if err == nil {
		s.meas[k] = m
	}
	return m, err
}

func measure(p *prog.Program, st coverage.Structure, pp Params) (Measurement, error) {
	m := Measurement{Program: p.Name, Structure: st}

	r := uarch.Run(p.Insts, p.NewState(), uarch.DefaultConfig().TrackFor(st))
	if !r.Clean() {
		return m, fmt.Errorf("experiments: %s failed: crash=%v timeout=%v", p.Name, r.Crash, r.TimedOut)
	}
	m.Coverage = r.Value(st)
	m.Cycles = r.Cycles
	m.Uses = r.UnitUses[st]

	c := &inject.Campaign{
		Prog:   p.Insts,
		Init:   p.InitFunc(),
		Target: st,
		Type:   inject.DefaultFaultType(st),
		N:      pp.Injections(st),
		Seed:   pp.Seed,
		Cfg:    uarch.DefaultConfig(),
		Obs:    pp.Obs,
	}
	stt, err := c.Run()
	if err != nil {
		return m, err
	}
	m.Detection = stt.Detection()
	m.DetLo, m.DetHi = stt.CI()
	return m, nil
}

// FprintMeasurements renders a measurement table.
func FprintMeasurements(w io.Writer, title string, ms []Measurement) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s %-24s %-10s %9s %9s %14s %10s\n",
		"framework", "program", "structure", "coverage", "detect", "95%CI", "cycles")
	for _, m := range ms {
		fmt.Fprintf(w, "%-12s %-24s %-10s %8.1f%% %8.1f%% [%4.1f,%5.1f]%% %10d\n",
			m.Framework, m.Program, m.Structure,
			100*m.Coverage, 100*m.Detection, 100*m.DetLo, 100*m.DetHi, m.Cycles)
	}
}
