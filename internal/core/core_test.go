package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
	"harpocrates/internal/mutate"
	"harpocrates/internal/obs"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

func tinyOptions(st coverage.Structure) Options {
	o := Options{Structure: st, Seed: 42}
	o.Gen = gen.DefaultConfig()
	o.Gen.NumInstrs = 150
	o.PopSize = 8
	o.TopK = 2
	o.MutantsPerParent = 3
	o.Iterations = 6
	return o
}

func TestLoopImprovesIntAdderCoverage(t *testing.T) {
	o := tinyOptions(coverage.IntAdder)
	o.Iterations = 12
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	if len(h.Best) != res.Iterations {
		t.Fatalf("history length %d != iterations %d", len(h.Best), res.Iterations)
	}
	first, last := h.Best[0], h.Best[len(h.Best)-1]
	if last < first {
		t.Fatalf("best fitness regressed: %f -> %f (elitism broken)", first, last)
	}
	if last <= first {
		t.Fatalf("no improvement over %d iterations: %f -> %f", res.Iterations, first, last)
	}
	t.Logf("IntAdder IBR: %.4f -> %.4f over %d iterations", first, last, res.Iterations)
}

func TestLoopBestFitnessMonotone(t *testing.T) {
	res, err := Run(tinyOptions(coverage.IRF))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History.Best); i++ {
		if res.History.Best[i] < res.History.Best[i-1]-1e-12 {
			t.Fatalf("best fitness dropped at iteration %d: %f -> %f",
				i, res.History.Best[i-1], res.History.Best[i])
		}
	}
}

func TestLoopDeterministic(t *testing.T) {
	r1, err := Run(tinyOptions(coverage.IntMul))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(tinyOptions(coverage.IntMul))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.History.Best) != len(r2.History.Best) {
		t.Fatal("iteration counts differ")
	}
	for i := range r1.History.Best {
		if r1.History.Best[i] != r2.History.Best[i] {
			t.Fatalf("runs diverged at iteration %d", i)
		}
	}
}

func TestLoopConvergenceStop(t *testing.T) {
	o := tinyOptions(coverage.IntAdder)
	o.Iterations = 200
	o.ConvergeWindow = 3
	o.ConvergeEps = 2.0 // impossible improvement: stops immediately
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("loop did not report convergence")
	}
	if res.Iterations >= 200 {
		t.Fatal("early stop did not trigger")
	}
}

func TestLoopRecordsTimings(t *testing.T) {
	res, err := Run(tinyOptions(coverage.IntAdder))
	if err != nil {
		t.Fatal(err)
	}
	ts := res.History.Times
	if ts.Generation <= 0 || ts.Evaluation <= 0 || ts.Mutation <= 0 || ts.Compilation <= 0 {
		t.Fatalf("missing phase timings: %+v", ts)
	}
	if res.History.EvaluatedPrograms == 0 || res.History.EvaluatedInstructions == 0 {
		t.Fatal("throughput counters empty")
	}
}

func TestLoopTopKOrdered(t *testing.T) {
	res, err := Run(tinyOptions(coverage.IRF))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.TopK); i++ {
		if res.TopK[i].Fitness > res.TopK[i-1].Fitness {
			t.Fatal("TopK not sorted by fitness")
		}
	}
	if res.Best.Fitness != res.TopK[0].Fitness {
		t.Fatal("Best is not TopK[0]")
	}
}

func TestLoopBestProgramValid(t *testing.T) {
	o := tinyOptions(coverage.FPAdd)
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Best.Program(&o.Gen)
	if _, _, err := p.GoldenRun(10 * o.Gen.NumInstrs); err != nil {
		t.Fatalf("evolved best program crashes: %v", err)
	}
}

func TestPresets(t *testing.T) {
	for st := coverage.Structure(0); st < coverage.NumStructures; st++ {
		o := PresetFor(st, 1)
		if o.Gen.NumInstrs <= 0 || o.PopSize <= 0 || o.Iterations <= 0 {
			t.Fatalf("bad preset for %v: %+v", st, o)
		}
		if err := o.normalize(); err != nil {
			t.Fatal(err)
		}
	}
	// L1D preset carries the cache-aware constraints: a region sized to
	// the cache, fixed-stride sequential references, memory-heavy
	// selection.
	l1d := PresetFor(coverage.L1D, 1)
	if l1d.Gen.Mem.RegionBytes != 32*1024 || l1d.Gen.Mem.Stride == 0 {
		t.Fatal("L1D preset missing cache-sized strided-region constraint")
	}
	if l1d.Gen.Weights == nil {
		t.Fatal("L1D preset missing memory-heavy weighting")
	}
}

func TestOnIterationCallback(t *testing.T) {
	o := tinyOptions(coverage.IntAdder)
	var seen []float64
	o.OnIteration = func(it int, best *Individual) {
		seen = append(seen, best.Fitness)
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Iterations {
		t.Fatalf("callback fired %d times, want %d", len(seen), res.Iterations)
	}
}

func TestBadOptionsRejected(t *testing.T) {
	o := tinyOptions(coverage.IRF)
	o.TopK = 100
	if _, err := Run(o); err == nil {
		t.Fatal("TopK > PopSize accepted")
	}
}

func TestNaNFitnessDiscarded(t *testing.T) {
	// A metric returning NaN must not poison selection: NaN compares
	// false against everything, which would make the fitness sort
	// order-dependent garbage. NaN clamps to 0, like a crash.
	o := tinyOptions(coverage.IRF)
	o.Workers = 1 // the counting metric below is not thread-safe
	calls := 0
	o.Metric = coverage.Metric{Name: "nan", Score: func(s *coverage.Snapshot) float64 {
		calls++
		if calls%2 == 0 {
			return math.NaN()
		}
		return 0.5
	}}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range res.TopK {
		if math.IsNaN(ind.Fitness) {
			t.Fatal("NaN fitness survived into the population")
		}
	}
	if math.IsNaN(res.Best.Fitness) || res.Best.Fitness != 0.5 {
		t.Fatalf("best fitness %f, want 0.5 (NaN individuals discarded)", res.Best.Fitness)
	}
}

func TestFitnessMemoization(t *testing.T) {
	// A no-op "mutation" reproduces the parent genotype exactly, so every
	// offspring after the first generation must be served from the memo.
	o := tinyOptions(coverage.IntAdder)
	o.Mutate = func(parent *gen.Genotype, cfg *gen.Config, rng *rand.Rand) *gen.Genotype {
		return parent.Clone()
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	wantHits := (res.Iterations - 1) * o.TopK * o.MutantsPerParent
	if h.CacheHits != wantHits {
		t.Fatalf("cache hits %d, want %d (every clone offspring memoized)", h.CacheHits, wantHits)
	}
	// Cached fitness must equal a fresh evaluation's: the trajectory is
	// flat under no-op mutation.
	for i := 1; i < len(h.Best); i++ {
		if h.Best[i] != h.Best[0] {
			t.Fatalf("best fitness drifted under no-op mutation: %v", h.Best)
		}
	}
}

func TestNormalizePreservesCustomGenFields(t *testing.T) {
	// Regression: normalize used to replace the entire Gen config with
	// DefaultConfig whenever NumInstrs was zero, silently discarding a
	// caller-set variant pool (or weights, or memory policy).
	pool := gen.DefaultPool()[:5]
	o := Options{Structure: coverage.IntAdder}
	o.Gen.Allowed = pool
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(o.Gen.Allowed) != 5 {
		t.Fatalf("custom pool clobbered: %d variants, want 5", len(o.Gen.Allowed))
	}
	for i, v := range pool {
		if o.Gen.Allowed[i] != v {
			t.Fatalf("custom pool rewritten at %d", i)
		}
	}
	d := gen.DefaultConfig()
	if o.Gen.NumInstrs != d.NumInstrs {
		t.Fatalf("NumInstrs not defaulted: %d", o.Gen.NumInstrs)
	}
	if o.Gen.Mem.RegionBytes != d.Mem.RegionBytes || o.Gen.Mem.Stride != d.Mem.Stride {
		t.Fatalf("memory policy not defaulted: %+v", o.Gen.Mem)
	}
}

func TestNormalizePreservesCustomCoreFields(t *testing.T) {
	// Regression: normalize used to replace the entire Core config with
	// uarch.DefaultConfig whenever ROBSize was zero, silently discarding
	// a caller-set cache geometry.
	o := tinyOptions(coverage.L1D)
	o.Core.L1D.SizeBytes = 16 * 1024
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	if o.Core.L1D.SizeBytes != 16*1024 {
		t.Fatalf("custom L1D size clobbered: %d", o.Core.L1D.SizeBytes)
	}
	if o.Core.ROBSize == 0 || o.Core.IntPRF == 0 || o.Core.L1D.Ways == 0 {
		t.Fatalf("unset core fields not defaulted: %+v", o.Core)
	}
	if !o.Core.TrackL1D {
		t.Fatal("structure tracking flag not enabled")
	}
}

func TestIterationAccountingConverged(t *testing.T) {
	// The history must have exactly one entry per reported iteration on
	// the early-converged exit path.
	o := tinyOptions(coverage.IntAdder)
	o.Iterations = 200
	o.ConvergeWindow = 3
	o.ConvergeEps = 2.0 // impossible improvement: stops at the window edge
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("expected convergence")
	}
	if len(res.History.Best) != res.Iterations {
		t.Fatalf("history %d entries, reported %d iterations", len(res.History.Best), res.Iterations)
	}
	if len(res.History.MeanTopK) != res.Iterations {
		t.Fatalf("MeanTopK %d entries, reported %d iterations", len(res.History.MeanTopK), res.Iterations)
	}
}

func TestIterationAccountingExhausted(t *testing.T) {
	o := tinyOptions(coverage.IntAdder)
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("unexpected convergence flag")
	}
	if res.Iterations != o.Iterations {
		t.Fatalf("ran %d iterations, want %d", res.Iterations, o.Iterations)
	}
	if len(res.History.Best) != res.Iterations {
		t.Fatalf("history %d entries, reported %d iterations", len(res.History.Best), res.Iterations)
	}
}

func TestConvergeZeroEpsNeverFiresOnMonotoneElite(t *testing.T) {
	// With eps 0, convergence requires the windowed best to *decrease* —
	// impossible under elitism (the best is monotone non-decreasing), so
	// the loop must run to exhaustion, never falsely triggering on a
	// plateau.
	o := tinyOptions(coverage.IntAdder)
	o.ConvergeWindow = 2
	o.ConvergeEps = 0
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("eps=0 convergence fired on a monotone trajectory")
	}
	if res.Iterations != o.Iterations {
		t.Fatalf("stopped after %d iterations, want %d", res.Iterations, o.Iterations)
	}
}

func TestRunEmitsTraceAndPhaseTimings(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	tr := obs.NewTracer(&buf)
	o := tinyOptions(coverage.IntAdder)
	o.Obs = obs.New(reg, tr)
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	// Every line must parse; iteration end-spans must match the reported
	// iteration count exactly (both exit paths end the span).
	type rec struct {
		Ev     string         `json:"ev"`
		Name   string         `json:"name"`
		Fields map[string]any `json:"fields"`
	}
	itBegins, itEnds, runEnds := 0, 0, 0
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("trace line %d unparseable: %v\n%s", i, err, line)
		}
		if r.Ev == "begin" && r.Name == "iteration" {
			itBegins++
		}
		if r.Ev == "end" && r.Name == "iteration" {
			itEnds++
			if _, ok := r.Fields["best"]; !ok {
				t.Fatalf("iteration end-span missing best fitness: %s", line)
			}
		}
		if r.Ev == "end" && r.Name == "run" {
			runEnds++
		}
	}
	if itBegins != res.Iterations || itEnds != res.Iterations {
		t.Fatalf("%d iteration begin-spans and %d end-spans, want %d", itBegins, itEnds, res.Iterations)
	}
	if runEnds != 1 {
		t.Fatalf("%d run end-spans, want 1", runEnds)
	}

	// Phase wall-clock timings are structural, not a share of the run:
	// every phase ran, the phases nest inside the run (their sum cannot
	// exceed it beyond timer granularity), and the select phase left one
	// history entry per iteration. How much of the run the phases account
	// for is a wall-clock ratio that a loaded machine moves at will, so it
	// is not asserted.
	if len(res.History.Best) != res.Iterations || len(res.History.MeanTopK) != res.Iterations {
		t.Fatalf("history holds %d best / %d mean entries for %d iterations",
			len(res.History.Best), len(res.History.MeanTopK), res.Iterations)
	}
	phases := []string{
		"core.phase.generate.wall_ns", "core.phase.evaluate.wall_ns",
		"core.phase.select.wall_ns", "core.phase.mutate.wall_ns",
	}
	var sum int64
	for _, ph := range phases {
		v := reg.Counter(ph).Load()
		if v <= 0 {
			t.Fatalf("phase %s recorded no time", ph)
		}
		sum += v
	}
	run := reg.Counter("core.run.wall_ns").Load()
	if run <= 0 {
		t.Fatal("core.run.wall_ns empty")
	}
	if float64(sum) > 1.01*float64(run) {
		t.Fatalf("phase timings sum %d ns exceed run %d ns (%.1f%%)",
			sum, run, 100*float64(sum)/float64(run))
	}
	if got := reg.Counter("core.iterations").Load(); got != int64(res.Iterations) {
		t.Fatalf("core.iterations %d, want %d", got, res.Iterations)
	}
	if reg.Counter("core.sim.cycles").Load() <= 0 || reg.Counter("core.sim.instructions").Load() <= 0 {
		t.Fatal("simulator counters empty")
	}
}

func TestObservationDoesNotPerturbTrajectory(t *testing.T) {
	// Attaching an Observer must not change a single fitness value.
	plain, err := Run(tinyOptions(coverage.IntAdder))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o := tinyOptions(coverage.IntAdder)
	o.Obs = obs.New(obs.NewRegistry(), obs.NewTracer(&buf))
	observed, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.History.Best) != len(observed.History.Best) {
		t.Fatal("iteration counts diverged under observation")
	}
	for i := range plain.History.Best {
		if plain.History.Best[i] != observed.History.Best[i] {
			t.Fatalf("trajectory diverged at iteration %d under observation", i)
		}
	}
}

func TestDiversity(t *testing.T) {
	g1 := &gen.Genotype{Variants: []isa.VariantID{1, 2, 3}, Seed: 1}
	g2 := &gen.Genotype{Variants: []isa.VariantID{1, 2, 3}, Seed: 1} // duplicate content
	g3 := &gen.Genotype{Variants: []isa.VariantID{1, 2, 4}, Seed: 1}
	pop := []*Individual{{G: g1}, {G: g2}, {G: g3}}
	if d := diversity(pop); d != 2.0/3.0 {
		t.Fatalf("diversity %f, want 2/3", d)
	}
	if d := diversity(nil); d != 0 {
		t.Fatalf("diversity of empty population %f, want 0", d)
	}
}

func TestMemoizationPreservesTrajectory(t *testing.T) {
	// Memoization serves bit-identical fitness values, so two identical
	// runs (which share every genotype) must agree point for point.
	a, err := Run(tinyOptions(coverage.IRF))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyOptions(coverage.IRF))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.History.Best) != len(b.History.Best) {
		t.Fatal("iteration counts diverged")
	}
	for i := range a.History.Best {
		if a.History.Best[i] != b.History.Best[i] {
			t.Fatalf("trajectory diverged at %d: %v vs %v", i, a.History.Best[i], b.History.Best[i])
		}
	}
	if a.History.CacheHits != b.History.CacheHits {
		t.Fatalf("cache hits diverged: %d vs %d", a.History.CacheHits, b.History.CacheHits)
	}
}

// stubEvaluator implements Evaluator with the same in-process grading
// the local path uses, plus call accounting. A run through it must be
// bit-identical to a run without it.
type stubEvaluator struct {
	st      coverage.Structure
	gen     gen.Config
	core    uarch.Config
	batches int
	graded  int
}

func (e *stubEvaluator) Configure(st coverage.Structure, gcfg gen.Config, ccfg uarch.Config) error {
	e.st, e.gen, e.core = st, gcfg, ccfg
	return nil
}

func (e *stubEvaluator) EvaluateBatch(gs []*gen.Genotype) ([]EvalResult, error) {
	e.batches++
	e.graded += len(gs)
	out := make([]EvalResult, len(gs))
	metric := coverage.MetricFor(e.st)
	for i, g := range gs {
		out[i] = GradeGenotype(g, &e.gen, e.core, metric)
	}
	return out, nil
}

func TestEvaluatorPathBitIdentical(t *testing.T) {
	local, err := Run(tinyOptions(coverage.IntAdder))
	if err != nil {
		t.Fatal(err)
	}
	ev := &stubEvaluator{}
	o := tinyOptions(coverage.IntAdder)
	o.Evaluator = ev
	remote, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if ev.batches == 0 || ev.graded == 0 {
		t.Fatal("evaluator was never used")
	}
	if remote.Best.Fitness != local.Best.Fitness {
		t.Fatalf("best fitness %v != %v", remote.Best.Fitness, local.Best.Fitness)
	}
	if remote.Best.G.Hash() != local.Best.G.Hash() {
		t.Fatalf("best genotype %016x != %016x", remote.Best.G.Hash(), local.Best.G.Hash())
	}
	if !slicesEqualFloat(remote.History.Best, local.History.Best) {
		t.Fatalf("best trajectory diverged:\n evaluator %v\n local     %v",
			remote.History.Best, local.History.Best)
	}
	if remote.History.EvaluatedPrograms != local.History.EvaluatedPrograms {
		t.Fatalf("evaluated %d programs, local %d",
			remote.History.EvaluatedPrograms, local.History.EvaluatedPrograms)
	}
}

func slicesEqualFloat(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// failingEvaluator errors on the first batch; Run must surface it.
type failingEvaluator struct{}

func (failingEvaluator) Configure(coverage.Structure, gen.Config, uarch.Config) error { return nil }
func (failingEvaluator) EvaluateBatch([]*gen.Genotype) ([]EvalResult, error) {
	return nil, fmt.Errorf("fleet on fire")
}

func TestEvaluatorErrorPropagates(t *testing.T) {
	o := tinyOptions(coverage.IntAdder)
	o.Evaluator = failingEvaluator{}
	if _, err := Run(o); err == nil {
		t.Fatal("evaluator failure swallowed")
	}
}

// A batch holding one genotype twice must grade it once whatever the
// worker count or backend: the duplicate is a memo hit decided before
// dispatch (planBatch), never a race between two workers.
func TestInBatchDuplicateGradedOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		remote  bool
	}{
		{"workers=1", 1, false},
		{"workers=2", 2, false},
		{"workers=8", 8, false},
		{"evaluator", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tinyOptions(coverage.IntAdder)
			o.Workers = tc.workers
			ev := &stubEvaluator{}
			if tc.remote {
				o.Evaluator = ev
			}
			if err := o.normalize(); err != nil {
				t.Fatal(err)
			}
			if tc.remote {
				if err := ev.Configure(o.Structure, o.Gen, o.Core); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewPCG(1, 2))
			a, b := gen.NewRandom(&o.Gen, rng), gen.NewRandom(&o.Gen, rng)
			inds := []*Individual{{G: a}, {G: b}, {G: a.Clone()}}
			hist, memo := &History{}, make(evalCache)
			if err := evaluate(inds, &o, hist, memo, gen.NewRegionCache()); err != nil {
				t.Fatal(err)
			}
			if hist.CacheHits != 1 || hist.EvaluatedPrograms != 3 {
				t.Fatalf("CacheHits = %d, EvaluatedPrograms = %d, want 1 and 3", hist.CacheHits, hist.EvaluatedPrograms)
			}
			if want := uint64(2 * o.Gen.NumInstrs); hist.EvaluatedInstructions != want {
				t.Fatalf("EvaluatedInstructions = %d, want %d (duplicate counted once)", hist.EvaluatedInstructions, want)
			}
			if tc.remote && ev.graded != 2 {
				t.Fatalf("evaluator graded %d genotypes, want 2", ev.graded)
			}
			if inds[2].Fitness != inds[0].Fitness || inds[2].Snapshot != inds[0].Snapshot {
				t.Fatal("duplicate not filled with its twin's grade")
			}
			if len(memo) != 2 {
				t.Fatalf("memo holds %d entries, want 2", len(memo))
			}
		})
	}
}

// TestStaticPathBitIdentity holds Run to an independent replica of the
// paper's loop — same RNG stream, same draw order, same selection and
// mutation schedule — and demands an identical fitness history and
// final best genotype. Any extra RNG draw, reordered selection or
// changed dispatch breaks this immediately.
func TestStaticPathBitIdentity(t *testing.T) {
	o := tinyOptions(coverage.IntAdder)
	got, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}

	// Independent replica of the legacy loop.
	ref := tinyOptions(coverage.IntAdder)
	if err := ref.normalize(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(stats.DeriveSource(ref.Seed, 0))
	pop := make([]*Individual, ref.PopSize)
	for i := range pop {
		pop[i] = &Individual{G: gen.NewRandom(&ref.Gen, rng)}
	}
	grade := func(inds []*Individual) {
		for _, ind := range inds {
			res := GradeGenotype(ind.G, &ref.Gen, ref.Core, ref.Metric)
			ind.Fitness, ind.Snapshot = res.Fitness, res.Snapshot
		}
	}
	grade(pop)
	var best []float64
	for it := 0; it < ref.Iterations; it++ {
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].Fitness > pop[b].Fitness })
		top := pop[:ref.TopK]
		best = append(best, top[0].Fitness)
		if it == ref.Iterations-1 {
			break
		}
		var offspring []*Individual
		for _, parent := range top {
			for m := 0; m < ref.MutantsPerParent; m++ {
				offspring = append(offspring, &Individual{G: mutate.ReplaceAll(parent.G, &ref.Gen, rng)})
			}
		}
		grade(offspring)
		pop = append(append([]*Individual(nil), top...), offspring...)
	}
	sort.SliceStable(pop, func(a, b int) bool { return pop[a].Fitness > pop[b].Fitness })

	if !reflect.DeepEqual(got.History.Best, best) {
		t.Errorf("static Run fitness history diverged from the legacy loop:\nRun:    %v\nlegacy: %v",
			got.History.Best, best)
	}
	if got.Best.G.Hash() != pop[0].G.Hash() || got.Best.Fitness != pop[0].Fitness {
		t.Errorf("static Run best diverged: hash %#x fitness %v, legacy hash %#x fitness %v",
			got.Best.G.Hash(), got.Best.Fitness, pop[0].G.Hash(), pop[0].Fitness)
	}
}
