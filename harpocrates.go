// Package harpocrates is the public API of the Harpocrates
// reproduction: automated, hardware-model-in-the-loop generation of
// short constrained-random functional test programs that maximize fault
// detection in target CPU structures (Karystinos et al., ISCA 2024).
//
// The three components of the methodology map onto this API:
//
//   - Generator/Mutator: Generate produces valid deterministic random
//     programs; the loop's mutation engine refines them (§V).
//   - Evaluator: Simulate grades a program on the out-of-order core
//     model, producing the hardware-coverage snapshot (§II-D).
//   - The loop: Evolve runs the full generate→evaluate→select→mutate
//     refinement (§IV, Fig. 7); Preset returns the paper's per-structure
//     configurations (§VI-B).
//
// Final program quality is measured with statistical fault injection:
// MeasureDetection runs a GeFIN-style campaign (§II-E) with the paper's
// fault models — uniform-random transient bit flips for the register
// file and L1D cache, gate-level stuck-at faults simulated on structural
// netlists for the integer and SSE floating-point units.
//
// A minimal session:
//
//	opts := harpocrates.Preset(harpocrates.IntAdder, 1)
//	res, _ := harpocrates.Evolve(opts)
//	best := harpocrates.BestProgram(res, &opts)
//	stats, _ := harpocrates.MeasureDetection(best, harpocrates.IntAdder, 100, 1)
//	fmt.Println(stats)
package harpocrates

import (
	"io"
	"math/rand/v2"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// Structure identifies a target hardware structure.
type Structure = coverage.Structure

// The six structures of the paper's evaluation (§III-B2), plus the
// extension targets: the FP register file and the post-paper
// microarchitectural fault sites (decoder and store buffer: SFI-only,
// transient faults). Gshare, ROBMeta and L2Tags name structures that
// are not fault targets — a campaign on one is refused, saying why —
// and are kept because coverage.NumStructures sizes the coverage block
// of a loop checkpoint (HXCK).
const (
	IRF      = coverage.IRF
	L1D      = coverage.L1D
	FPRF     = coverage.FPRF // extension target (not in the paper's six)
	IntAdder = coverage.IntAdder
	IntMul   = coverage.IntMul
	FPAdd    = coverage.FPAdd
	FPMul    = coverage.FPMul
	Decoder  = coverage.Decoder
	Gshare   = coverage.Gshare
	LSQ      = coverage.LSQ
	ROBMeta  = coverage.ROBMeta
	L2Tags   = coverage.L2Tags
)

// Re-exported configuration and result types.
type (
	// Program is a self-contained runnable functional test program.
	Program = prog.Program
	// GenConfig parameterizes constrained-random generation (§V-D).
	GenConfig = gen.Config
	// Genotype is the mutable representation the loop evolves (variant
	// sequence + operand seed), exposed through LoopOptions.Seeds.
	Genotype = gen.Genotype
	// LoopOptions parameterizes the refinement loop (§IV).
	LoopOptions = core.Options
	// LoopResult is the outcome of a refinement run.
	LoopResult = core.Result
	// Individual is one member of the refinement population with its
	// evaluation (exposed through LoopOptions.OnIteration/OnTopK).
	Individual = core.Individual
	// SimResult is one simulated execution with coverage data.
	SimResult = uarch.Result
	// CoreConfig parameterizes the microarchitectural model.
	CoreConfig = uarch.Config
	// DetectionStats summarizes a fault-injection campaign.
	DetectionStats = inject.Stats
	// Campaign is a configurable fault-injection campaign.
	Campaign = inject.Campaign
	// Metric is a coverage objective function.
	Metric = coverage.Metric
	// Observer carries the observability layer (metrics + trace) into
	// the loop and campaigns via LoopOptions.Obs / Campaign.Obs.
	Observer = obs.Observer
	// Metrics is a registry of counters, gauges and histograms.
	Metrics = obs.Registry
	// Tracer emits a structured JSONL event log.
	Tracer = obs.Tracer
)

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTracer returns a tracer writing JSONL events to w.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// NewObserver bundles a metrics registry and/or tracer into an Observer
// (either may be nil; both nil returns a nil, fully no-op Observer).
func NewObserver(reg *Metrics, tr *Tracer) *Observer { return obs.New(reg, tr) }

// DefaultGenConfig returns the default generator configuration
// (10K instructions, uniform selection over the deterministic pool,
// max-dependency-distance allocation, strided 32 KB memory region).
func DefaultGenConfig() GenConfig { return gen.DefaultConfig() }

// DefaultCoreConfig returns the reference out-of-order core model
// configuration.
func DefaultCoreConfig() CoreConfig { return uarch.DefaultConfig() }

// Preset returns the paper's loop configuration for a structure (§VI-B),
// scaled: 1 is laptop/CI scale; larger values approach paper scale.
func Preset(st Structure, scale int) LoopOptions { return core.PresetFor(st, scale) }

// Evolve runs the Harpocrates refinement loop.
func Evolve(o LoopOptions) (*LoopResult, error) { return core.Run(o) }

// BestProgram materializes the fittest genotype of a finished run.
func BestProgram(res *LoopResult, o *LoopOptions) *Program {
	return gen.Materialize(res.Best.G, &o.Gen)
}

// Generate produces one valid, deterministic, non-crashing random test
// program from a generator configuration.
func Generate(cfg *GenConfig, seed uint64) *Program {
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	return gen.Materialize(gen.NewRandom(cfg, rng), cfg)
}

// Simulate runs a program on the out-of-order core model with coverage
// tracking for the given structure and returns the result (the
// Evaluator's grading step).
func Simulate(p *Program, st Structure) *SimResult {
	return uarch.Run(p.Insts, p.NewState(), uarch.DefaultConfig().TrackFor(st))
}

// NewDetectionCampaign builds the standard statistical fault-injection
// campaign for a program: the structure's default fault model (transient
// bit flips for bit arrays, permanent gate-level stuck-at faults for
// functional units) on the reference core. Adjust fields (e.g. attach an
// Observer via Obs) before calling Run.
func NewDetectionCampaign(p *Program, st Structure, injections int, seed uint64) *Campaign {
	return &inject.Campaign{
		Prog:   p.Insts,
		Init:   p.InitFunc(),
		Target: st,
		Type:   inject.DefaultFaultType(st),
		N:      injections,
		Seed:   seed,
		Cfg:    uarch.DefaultConfig(),
	}
}

// MeasureDetection runs a statistical fault-injection campaign against
// the structure's default fault model (transient bit flips for bit
// arrays, permanent gate-level stuck-at faults for functional units) and
// returns the detection statistics.
func MeasureDetection(p *Program, st Structure, injections int, seed uint64) (*DetectionStats, error) {
	return NewDetectionCampaign(p, st, injections, seed).Run()
}
