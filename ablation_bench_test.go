// Ablation benchmarks for the design decisions called out in DESIGN.md
// §4. (The bit-parallel gate evaluation ablation lives next to its
// subject: internal/gates.BenchmarkGateEvalScalarVsParallel.)
package harpocrates_test

import (
	"math/rand/v2"
	"testing"
	"time"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/mutate"
	"harpocrates/internal/prog"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

// BenchmarkAblationMutationStrategy compares the paper's uniform
// instruction replacement (§V-B1) against point mutation and k-point
// crossover under identical budgets, reporting the final coverage each
// strategy reaches.
func BenchmarkAblationMutationStrategy(b *testing.B) {
	strategies := []struct {
		name string
		fn   func(*gen.Genotype, *gen.Config, *rand.Rand) *gen.Genotype
	}{
		{"replace-all", mutate.ReplaceAll},
		{"point", mutate.Point},
		{"crossover2", func(g *gen.Genotype, cfg *gen.Config, rng *rand.Rand) *gen.Genotype {
			other := gen.NewRandom(cfg, rng)
			return mutate.CrossoverK(g, other, 2, rng)
		}},
	}
	for _, s := range strategies {
		s := s
		b.Run(s.name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				o := core.PresetFor(coverage.IntAdder, 1)
				o.Gen.NumInstrs = 300
				o.PopSize, o.TopK, o.MutantsPerParent = 12, 3, 4
				o.Iterations = 15
				o.Seed = 4242
				o.Mutate = s.fn
				res, err := core.Run(o)
				if err != nil {
					b.Fatal(err)
				}
				final = res.Best.Fitness
			}
			b.ReportMetric(100*final, "%final-coverage")
		})
	}
}

// BenchmarkAblationAceWidthMask measures the IRF ACE coverage of the
// same program with and without per-read width masks (DESIGN.md §4.3):
// ignoring widths inflates the metric and blunts the signal that rewards
// full-width register traffic.
func BenchmarkAblationAceWidthMask(b *testing.B) {
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 2000
	rng := rand.New(rand.NewPCG(77, 78))
	p := gen.Materialize(gen.NewRandom(&cfg, rng), &cfg)

	for _, mode := range []struct {
		name   string
		ignore bool
	}{{"width-masked", false}, {"ignore-widths", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var vuln float64
			for i := 0; i < b.N; i++ {
				ccfg := uarch.DefaultConfig()
				ccfg.TrackIRF = true
				ccfg.ACEIgnoreWidths = mode.ignore
				r := uarch.Run(p.Insts, p.NewState(), ccfg)
				if !r.Clean() {
					b.Fatal("program failed")
				}
				vuln = r.IRFVuln
			}
			b.ReportMetric(100*vuln, "%irf-coverage")
		})
	}
}

// benchOffOn is the shape of every campaign-level ablation below: each
// iteration runs the knob's "off" side then its "on" side, fails on any
// outcome difference between them (the soundness claim the speedup
// rides on) and accumulates both wall clocks; the off/on ratio is
// reported as x-speedup. run returns the statistics of every campaign
// it ran, in a fixed order.
func benchOffOn(b *testing.B, what string, run func(off bool) ([]*inject.Stats, error)) {
	var offNS, onNS int64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		slow, err := run(true)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		fast, err := run(false)
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		for k := range slow {
			if !slow[k].Equal(fast[k]) {
				b.Fatalf("%s changed campaign %d statistics: off %+v vs on %+v", what, k, slow[k], fast[k])
			}
		}
		offNS += t1.Sub(t0).Nanoseconds()
		onNS += t2.Sub(t1).Nanoseconds()
	}
	b.ReportMetric(float64(offNS)/float64(onNS), "x-speedup")
}

// ablationSeed seeds the delta-termination and golden-reuse workloads
// (experiments.DefaultParams' seed, so the numbers continue the series
// DESIGN.md §4.12 and §4.16 quote).
const ablationSeed = 20240704

func ablationProgram(numInstrs, stream int) *prog.Program {
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = numInstrs
	return gen.Materialize(gen.NewRandom(&cfg, stats.Derive(ablationSeed, stream)), &cfg)
}

// BenchmarkAblationCheckpointedSFI measures the campaign-level effect of
// checkpointed fast-forward + ACE pre-classification (DESIGN.md §4.7):
// the same transient-IRF campaign is timed with the optimization off
// (every injection simulated from cycle 0) and on, asserting bit-
// identical statistics and reporting the wall-clock ratio.
func BenchmarkAblationCheckpointedSFI(b *testing.B) {
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 1200
	rng := rand.New(rand.NewPCG(55, 56))
	p := gen.Materialize(gen.NewRandom(&cfg, rng), &cfg)
	benchOffOn(b, "fast-forward", func(noFF bool) ([]*inject.Stats, error) {
		c := &inject.Campaign{
			Prog: p.Insts, Init: p.InitFunc(),
			Target: coverage.IRF, Type: inject.Transient,
			N: 96, Seed: 9, Cfg: uarch.DefaultConfig(),
			NoFastForward: noFF,
		}
		st, err := c.Run()
		return []*inject.Stats{st}, err
	})
}

// BenchmarkAblationDeltaTermination measures reconvergence-based early
// termination of faulty runs (DESIGN.md §4.12): one transient-IRF
// campaign with NoDeltaTermination (every faulty run simulated to
// completion) against the identical campaign with it on. The workload
// is longer and denser in injections than the fast-forward one: delta's
// win is the simulated tail after a masked fault's last architectural
// trace, which grows with golden-run length, and it only shows once
// enough injections survive ACE pre-classification for faulty-run
// simulation to dominate the campaign.
func BenchmarkAblationDeltaTermination(b *testing.B) {
	p := ablationProgram(4000, 7)
	benchOffOn(b, "delta termination", func(noDelta bool) ([]*inject.Stats, error) {
		c := &inject.Campaign{
			Prog: p.Insts, Init: p.InitFunc(),
			Target: coverage.IRF, Type: inject.Transient,
			N: 256, Seed: ablationSeed, Cfg: uarch.DefaultConfig(),
			NoDeltaTermination: noDelta,
		}
		st, err := c.Run()
		return []*inject.Stats{st}, err
	})
}

// BenchmarkAblationGoldenReuse measures the golden artifact cache
// (DESIGN.md §4.16) on the workload it exists for: one program ranked
// against five structures, all of the plain golden class so a single
// bundle serves every one. Off, every campaign recomputes the
// instrumented golden run; on, a fresh cache per iteration sees one
// cold compute and four warm hits (not an ever-warm steady state).
// Fault-injection work is identical on both sides.
func BenchmarkAblationGoldenReuse(b *testing.B) {
	p := ablationProgram(4000, 8)
	progHash := stats.Mix64(stats.HashInit, ablationSeed|1)
	targets := []coverage.Structure{
		coverage.IRF, coverage.FPRF, coverage.L1D,
		coverage.Decoder, coverage.LSQ,
	}
	benchOffOn(b, "golden reuse", func(off bool) ([]*inject.Stats, error) {
		var gc *inject.GoldenCache // nil: every campaign computes its own golden
		if !off {
			gc = inject.NewGoldenCache(0)
			defer gc.Purge()
		}
		out := make([]*inject.Stats, 0, len(targets))
		for _, target := range targets {
			c := &inject.Campaign{
				Prog: p.Insts, Init: p.InitFunc(),
				Target: target, Type: inject.Transient,
				N: 8, Seed: ablationSeed, Cfg: uarch.DefaultConfig(),
				GoldenCache: gc, ProgramHash: progHash,
			}
			st, err := c.Run()
			if err != nil {
				return nil, err
			}
			out = append(out, st)
		}
		return out, nil
	})
}

// BenchmarkAblationL1DConstraints quantifies the cache-aware generation
// constraints of the L1D preset (fixed-stride sequential references in a
// region intentionally sized to the 32 KB cache, memory-heavy
// selection): the initial random population starts at far higher L1D
// coverage than generation over an oversized region — the paper's ~77%
// starting-point phenomenon (§VI-B2).
func BenchmarkAblationL1DConstraints(b *testing.B) {
	mean := func(cfg gen.Config, seed uint64) float64 {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		total := 0.0
		n := 6
		for k := 0; k < n; k++ {
			p := gen.Materialize(gen.NewRandom(&cfg, rng), &cfg)
			ccfg := uarch.DefaultConfig()
			ccfg.TrackL1D = true
			r := uarch.Run(p.Insts, p.NewState(), ccfg)
			if !r.Clean() {
				b.Fatal("program failed")
			}
			total += r.L1DVuln
		}
		return total / float64(n)
	}
	b.Run("cache-aware", func(b *testing.B) {
		o := core.PresetFor(coverage.L1D, 1)
		var v float64
		for i := 0; i < b.N; i++ {
			v = mean(o.Gen, 91)
		}
		b.ReportMetric(100*v, "%initial-l1d-coverage")
	})
	b.Run("oversized-region", func(b *testing.B) {
		o := core.PresetFor(coverage.L1D, 1)
		cfg := o.Gen
		cfg.Weights = nil
		cfg.Mem.RegionBytes = 256 * 1024 // 8x the cache
		var v float64
		for i := 0; i < b.N; i++ {
			v = mean(cfg, 91)
		}
		b.ReportMetric(100*v, "%initial-l1d-coverage")
	})
}
