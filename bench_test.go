// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md §3 maps each to its source). Run with:
//
//	go test -bench . -benchtime 1x
//
// Scale with HARPO_SCALE (default 1). Each benchmark prints the
// rows/series the paper reports on its first iteration and exports the
// headline numbers as benchmark metrics.
package harpocrates_test

import (
	"os"
	"sync"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/experiments"
)

var printOnce sync.Map

func once(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

func BenchmarkFig1DPPM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries := experiments.Fig1DPPM()
		if len(entries) != 3 {
			b.Fatal("bad Fig. 1 data")
		}
	}
	once("fig1", func() { experiments.FprintFig1(os.Stdout) })
}

func benchBaselineFigure(b *testing.B, name string, fig func(experiments.Params) ([]experiments.Measurement, error)) {
	pp := experiments.DefaultParams()
	var ms []experiments.Measurement
	var err error
	for i := 0; i < b.N; i++ {
		ms, err = fig(pp)
		if err != nil {
			b.Fatal(err)
		}
	}
	once(name, func() {
		experiments.FprintMeasurements(os.Stdout, name+" — coverage and detection per baseline program", ms)
		experiments.FprintSummaries(os.Stdout, name+" — per-framework aggregates", experiments.Summarize(ms))
	})
}

func BenchmarkFig4Baselines(b *testing.B) {
	benchBaselineFigure(b, "Fig. 4 (IRF, L1D)", experiments.Fig4)
}

func BenchmarkFig5Baselines(b *testing.B) {
	benchBaselineFigure(b, "Fig. 5 (IntAdder, IntMul)", experiments.Fig5)
}

func BenchmarkFig6Baselines(b *testing.B) {
	benchBaselineFigure(b, "Fig. 6 (FPAdd, FPMul)", experiments.Fig6)
}

func BenchmarkFig8Scenario(b *testing.B) {
	pp := experiments.DefaultParams()
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8Scenario(pp)
	}
	b.ReportMetric(100*r.ByteInvalidFrac, "%bytes-unusable")
	once("fig8", func() { experiments.FprintFig8(os.Stdout, r) })
}

func BenchmarkFig10Convergence(b *testing.B) {
	pp := experiments.DefaultParams()
	for _, st := range experiments.AllStructures() {
		st := st
		b.Run(st.String(), func(b *testing.B) {
			var c *experiments.Convergence
			var err error
			for i := 0; i < b.N; i++ {
				c, err = experiments.Fig10(st, pp)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*c.FinalCoverage, "%coverage")
			b.ReportMetric(100*c.FinalDetection, "%detection")
			once("fig10-"+st.String(), func() { experiments.FprintConvergence(os.Stdout, c) })
		})
	}
}

func BenchmarkFig11Detection(b *testing.B) {
	pp := experiments.DefaultParams()
	var ss []experiments.Summary
	var err error
	for i := 0; i < b.N; i++ {
		ss, _, err = experiments.Fig11(pp)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range ss {
		if s.Framework == experiments.FwHarpocrates && s.Structure == coverage.IntMul {
			b.ReportMetric(100*s.MaxDet, "%harpo-intmul-det")
		}
	}
	once("fig11", func() { experiments.FprintFig11(os.Stdout, ss) })
}

func BenchmarkTable1StepBreakdown(b *testing.B) {
	pp := experiments.DefaultParams()
	var s experiments.StepBreakdown
	var err error
	for i := 0; i < b.N; i++ {
		s, err = experiments.Table1(pp)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.InstrsPerSecond(), "instrs/s")
	once("table1", func() { experiments.FprintTable1(os.Stdout, s) })
}

func BenchmarkGenRate(b *testing.B) {
	pp := experiments.DefaultParams()
	var r *experiments.RateComparison
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.GenRate(pp)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Ratio, "x-vs-silifuzz")
	once("rate", func() { experiments.FprintGenRate(os.Stdout, r) })
}

func BenchmarkDetectionSpeed(b *testing.B) {
	pp := experiments.DefaultParams()
	var r *experiments.SpeedResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.DetectionSpeed(pp)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.SpeedupX, "x-faster")
	once("speed", func() { experiments.FprintSpeed(os.Stdout, r) })
}
