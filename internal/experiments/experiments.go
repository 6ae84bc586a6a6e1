// Package experiments contains one harness per table and figure of the
// paper's evaluation (§III-C and §VI). Each harness returns structured
// results and can print the rows/series the paper reports. DESIGN.md §3
// maps every experiment to its harness; EXPERIMENTS.md records
// paper-versus-measured outcomes.
//
// All harnesses scale with the HARPO_SCALE environment variable
// (default 1 = CI scale, minutes of CPU; larger values approach the
// paper's full parameters).
package experiments

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/baselines/silifuzz"
	"harpocrates/internal/corpus"
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

	// Corpus, if set, archives the programs the harnesses evolve: Fig10
	// adds each structure's final best program (with genotype and
	// detection metadata) to the persistent store, so experiment runs
	// feed the same corpus the CLI workflow uses.
	Corpus *corpus.Store
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

var (
	baselineOnce sync.Once
	baselineSet  map[string][]*prog.Program
)

// BaselinePrograms returns the three baseline suites at the current
// scale (SiliFuzz runs a fuzzing session on first use; results are
// cached for the process).
func BaselinePrograms() map[string][]*prog.Program {
	baselineOnce.Do(func() {
		s := Scale()
		sf := silifuzz.Run(silifuzz.Options{
			Seed:          7,
			Rounds:        8000 * s,
			MaxInputBytes: 100,
			TargetInstrs:  1250 * s,
			NumTests:      8,
			SnapshotSteps: 512,
		})
		baselineSet = map[string][]*prog.Program{
			FwMiBench:    mibench.Programs(s),
			FwSiliFuzz:   sf.Tests,
			FwOpenDCDiag: dcdiag.Programs(s),
		}
	})
	return baselineSet
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

// Measurements are memoized so overlapping harnesses (Fig. 4/5/6 and
// Fig. 11) never repeat a campaign within a process.
var (
	measMu    sync.Mutex
	measCache = map[string]Measurement{}
)

// Measure evaluates one program against one structure: a tracked run for
// the coverage metric and an SFI campaign for detection (§II-C/§II-E).
func Measure(p *prog.Program, st coverage.Structure, pp Params) (Measurement, error) {
	key := fmt.Sprintf("%s|%d|%d|%d", p.Name, st, pp.Injections(st), pp.Seed)
	measMu.Lock()
	if m, ok := measCache[key]; ok {
		measMu.Unlock()
		return m, nil
	}
	measMu.Unlock()
	m, err := measure(p, st, pp)
	if err == nil {
		measMu.Lock()
		measCache[key] = m
		measMu.Unlock()
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
