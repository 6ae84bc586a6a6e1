package core

import (
	"fmt"
	"math"
	"time"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/uarch"
)

// EvalResult is one genotype's grade: the fitness the selection step
// sorts on plus the coverage snapshot it was derived from. The struct is
// JSON-serializable so batches of grades can travel over the
// internal/dist wire protocol.
type EvalResult struct {
	Fitness  float64           `json:"fitness"`
	Snapshot coverage.Snapshot `json:"snapshot"`
}

// Evaluator is a pluggable grading backend for the refinement loop.
// When Options.Evaluator is set, every batch of not-yet-memoized
// genotypes is handed to EvaluateBatch instead of the in-process
// materialize-compile-simulate pipeline; results must be positionally
// aligned with the input. Grading is a pure function of (genotype,
// configuration), so any backend that implements the contract of
// GradeGenotype — the distributed worker pool in internal/dist does by
// construction — keeps the GA trajectory bit-identical to a local run.
//
// Configure is called once per Run, after option normalization, with
// the exact generator and core configurations the local path would use.
// Remote backends grade with the structure's default coverage metric
// (coverage.MetricFor); a custom Options.Metric cannot be shipped over
// the wire and must be graded in process.
type Evaluator interface {
	Configure(st coverage.Structure, gcfg gen.Config, ccfg uarch.Config) error
	EvaluateBatch(gs []*gen.Genotype) ([]EvalResult, error)
}

// gradeTiming is the per-stage cost of one grading (Table I accounting).
type gradeTiming struct {
	genNS, compNS, evalNS int64
	insts                 int64
}

// gradeTimed materializes, compiles and simulates one genotype,
// returning its grade, the raw simulator result and the per-stage
// wall-clock split. Generation draws the genotype's data region through
// regions (nil: drawn afresh); compilation is the program's predecode
// table, built once and handed to the run; evaluation starts the initial
// state and simulates. This is THE grading function: the local evaluate
// loop and the distributed worker both call it, so the two paths cannot
// disagree about fitness semantics (crashing candidates and NaN metric
// values are clamped to fitness 0 here, in one place).
func gradeTimed(g *gen.Genotype, gcfg *gen.Config, ccfg uarch.Config, metric coverage.Metric, regions *gen.RegionCache) (EvalResult, *uarch.Result, gradeTiming) {
	t0 := time.Now()
	p := regions.Materialize(g, gcfg)
	t1 := time.Now()
	// "Compilation": lower the program for the simulator, as the C
	// wrapper + compiler step does in the paper's toolchain.
	cp := uarch.Compile(p.Insts)
	t2 := time.Now()
	r := cp.Run(p.NewState(), ccfg)
	t3 := time.Now()

	res := EvalResult{Snapshot: r.Snapshot}
	if r.Clean() {
		res.Fitness = metric.Score(&r.Snapshot)
	}
	if math.IsNaN(res.Fitness) {
		// A pathological metric value must not poison the sort (NaN
		// compares false to everything, corrupting selection); discard
		// like a crash.
		res.Fitness = 0
	}
	return res, r, gradeTiming{
		genNS:  t1.Sub(t0).Nanoseconds(),
		compNS: t2.Sub(t1).Nanoseconds(),
		evalNS: t3.Sub(t2).Nanoseconds(),
		insts:  int64(len(p.Insts)),
	}
}

// GradeGenotype grades one genotype under an explicit evaluation
// configuration, with exactly the semantics of the in-process loop
// (crash/NaN clamping included). Remote workers and local fallbacks use
// it to stay bit-compatible with Run. Coverage grading runs one tracked
// simulation per genotype, whose coverage is the Result itself, so the
// golden artifact cache (inject.GoldenCache), which shares a campaign's
// untracked golden bundle, does not apply here; reuse across repeated
// grades of identical genotypes is the evalCache memo's job.
func GradeGenotype(g *gen.Genotype, gcfg *gen.Config, ccfg uarch.Config, metric coverage.Metric) EvalResult {
	res, _, _ := gradeTimed(g, gcfg, ccfg, metric, nil)
	return res
}

// GradeBatch grades gs in order, each exactly as GradeGenotype does,
// drawing every seed's data region once for the whole batch.
func GradeBatch(gs []*gen.Genotype, gcfg *gen.Config, ccfg uarch.Config, metric coverage.Metric) []EvalResult {
	regions := gen.NewRegionCache()
	out := make([]EvalResult, len(gs))
	for i, g := range gs {
		out[i], _, _ = gradeTimed(g, gcfg, ccfg, metric, regions)
	}
	return out
}

// gradeRemote ships inds[i] for every i in fresh to Options.Evaluator as
// one batch and writes each grade into its individual. The whole remote
// round-trip is accounted as evaluation time.
func gradeRemote(inds []*Individual, fresh []int, o *Options, hist *History) error {
	if len(fresh) == 0 {
		return nil
	}
	t0 := time.Now()
	batch := make([]*gen.Genotype, len(fresh))
	for j, i := range fresh {
		batch[j] = inds[i].G
	}
	results, err := o.Evaluator.EvaluateBatch(batch)
	if err != nil {
		return fmt.Errorf("core: remote evaluation: %w", err)
	}
	if len(results) != len(batch) {
		return fmt.Errorf("core: remote evaluation returned %d results for %d genotypes",
			len(results), len(batch))
	}
	var cycles, instrs int64
	for j, i := range fresh {
		r := results[j]
		if math.IsNaN(r.Fitness) {
			r.Fitness = 0 // defense in depth; workers already clamp
		}
		inds[i].Fitness, inds[i].Snapshot = r.Fitness, r.Snapshot
		hist.EvaluatedInstructions += uint64(len(batch[j].Variants))
		cycles += int64(r.Snapshot.Cycles)
		instrs += int64(r.Snapshot.Instructions)
	}
	if o.Obs.Enabled() {
		o.Obs.Counter("core.eval.remote.batches").Inc()
		o.Obs.Counter("core.eval.remote.genotypes").Add(int64(len(batch)))
		o.Obs.Counter("core.sim.cycles").Add(cycles)
		o.Obs.Counter("core.sim.instructions").Add(instrs)
	}
	hist.Times.Evaluation += time.Since(t0)
	return nil
}
