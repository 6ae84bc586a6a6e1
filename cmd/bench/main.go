// Command bench regenerates the paper's tables and figures from the
// internal/experiments harnesses — paper tables and figures only;
// timing lives in benchmark/. One experiments.Session per process
// shares the baseline suites, Fig. 10 runs and measurements between
// the figures it prints.
//
// Usage:
//
//	bench -fig 4          # one figure
//	bench -table 1
//	bench -rate -speed
//	bench -all            # everything (Table I, Figs 1,4,5,6,8,10,11, §VI-A, §VI-C)
//
// Scale with HARPO_SCALE.
package main

import (
	"flag"
	"fmt"
	"os"

	"harpocrates/internal/coverage"
	"harpocrates/internal/experiments"
	"harpocrates/internal/obs"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure number: 1, 4, 5, 6, 8, 10, 11")
		table     = flag.Int("table", 0, "table number: 1")
		rate      = flag.Bool("rate", false, "§VI-A generation-rate comparison")
		interplay = flag.Bool("interplay", false, "fault-type interplay sweep (§II-D, Fig. 2)")
		speed     = flag.Bool("speed", false, "§VI-C detection-speed comparison")
		all       = flag.Bool("all", false, "run everything")

		tracePath = flag.String("trace", "", "write a JSONL event trace to this file")
		metrics   = flag.Bool("metrics", false, "print a metrics summary at exit")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	ob, obFinish, err := obs.SetupCLI(*tracePath, *metrics, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	pp := experiments.DefaultParams()
	pp.Obs = ob
	sess := experiments.NewSession(pp)
	fmt.Printf("scale=%d (HARPO_SCALE), injections per campaign: bit-array=%d adder=%d mul=%d fp=%d\n\n",
		pp.Scale, pp.InjBitArray, pp.InjAdder, pp.InjMul, pp.InjFP)

	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	figBase := func(title string, f func() ([]experiments.Measurement, error)) {
		ms, err := f()
		die(err)
		experiments.FprintMeasurements(os.Stdout, title, ms)
		experiments.FprintSummaries(os.Stdout, title+" — aggregates", experiments.Summarize(ms))
		fmt.Println()
	}

	if *all || *fig == 1 {
		experiments.FprintFig1(os.Stdout)
		fmt.Println()
	}
	if *all || *fig == 4 {
		figBase("Fig. 4 — IRF and L1D (transient faults)", sess.Fig4)
	}
	if *all || *fig == 5 {
		figBase("Fig. 5 — Integer adder and multiplier (permanent gate faults)", sess.Fig5)
	}
	if *all || *fig == 6 {
		figBase("Fig. 6 — SSE FP adder and multiplier (permanent gate faults)", sess.Fig6)
	}
	if *all || *fig == 8 {
		experiments.FprintFig8(os.Stdout, experiments.Fig8Scenario(pp))
		fmt.Println()
	}
	if *all || *fig == 10 {
		for _, st := range experiments.AllStructures() {
			c, err := sess.Fig10(st)
			die(err)
			experiments.FprintConvergence(os.Stdout, c)
			fmt.Println()
		}
	}
	if *all || *fig == 11 {
		ss, _, err := sess.Fig11()
		die(err)
		experiments.FprintFig11(os.Stdout, ss)
		fmt.Println()
	}
	if *all || *table == 1 {
		s, err := experiments.Table1(pp)
		die(err)
		experiments.FprintTable1(os.Stdout, s)
		fmt.Println()
	}
	if *all || *interplay {
		for _, st := range []coverage.Structure{coverage.IRF, coverage.L1D} {
			r, err := experiments.Interplay(st, pp)
			die(err)
			experiments.FprintInterplay(os.Stdout, r)
			fmt.Println()
		}
	}
	if *all || *rate {
		r, err := experiments.GenRate(pp)
		die(err)
		experiments.FprintGenRate(os.Stdout, r)
		fmt.Println()
	}
	if *all || *speed {
		r, err := sess.DetectionSpeed()
		die(err)
		experiments.FprintSpeed(os.Stdout, r)
		fmt.Println()
	}
	die(obFinish(os.Stdout))
}
