// Command harpocrates runs the program-refinement loop for a target
// hardware structure and reports the evolved test program's coverage and
// fault detection capability.
//
// Usage:
//
//	harpocrates -structure intmul -scale 1 -detect 50 -dump 20
//	harpocrates -structure irf -corpus corpus/ -resume
//	harpocrates -load best.hxpg -structure irf -detect 100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"harpocrates"
	"harpocrates/internal/corpus"
	"harpocrates/internal/coverage"
	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/queue"
)

func main() {
	var (
		structure  = flag.String("structure", "intadd", "target structure: irf, l1d, fprf, intadd, intmul, fpadd, fpmul")
		scale      = flag.Int("scale", 1, "experiment scale factor (1 = laptop scale)")
		iterations = flag.Int("iterations", 0, "override the preset iteration count")
		seed       = flag.Uint64("seed", 1, "random seed")
		detect     = flag.Int("detect", 0, "run a final fault-injection campaign with N injections")
		dump       = flag.Int("dump", 0, "print the first N instructions of the best program")
		save       = flag.String("save", "", "save the best program to a .hxpg file")
		load       = flag.String("load", "", "skip evolution: load a saved .hxpg program and re-evaluate it")
		corpusDir  = flag.String("corpus", "", "persistent corpus directory: seed the run from archived elites and auto-archive each iteration's survivors")
		corpusMax  = flag.Int("corpus-max", 64, "per-structure corpus archive bound (0 = unbounded)")
		resume     = flag.Bool("resume", false, "resume an interrupted run from the checkpoint in the corpus directory (requires -corpus)")
		jsonOut    = flag.Bool("json", false, "print a deterministic one-line JSON run summary as the last line of output")
		workers    = flag.String("workers", "", "comma-separated harpod worker URLs to shard evaluation across (e.g. http://host1:9090,http://host2:9090)")
		queueURL   = flag.String("queue", "", "harpoq coordinator URL: shard evaluation through the durable job queue (and its result cache) instead of direct push")
		tracePath  = flag.String("trace", "", "write a JSONL event trace to this file")
		metrics    = flag.Bool("metrics", false, "print a metrics summary at exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	st, err := coverage.Parse(*structure)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ob, obFinish, err := obs.SetupCLI(*tracePath, *metrics, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *load != "" {
		// Re-evaluation path: grade a saved program instead of evolving
		// one (-save output is no longer write-only).
		p, err := prog.Load(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		reEvaluate(p, st, *detect, *dump, *seed, ob)
		if err := obFinish(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	o := harpocrates.Preset(st, *scale)
	o.Seed = *seed
	o.Obs = ob
	if *iterations > 0 {
		o.Iterations = *iterations
	}
	switch {
	case *queueURL != "":
		client := queue.NewClient(*queueURL)
		if err := client.Healthz(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("queue: coordinator %s healthy\n", *queueURL)
		o.Evaluator = client.Evaluator()
	case *workers != "":
		pool := dist.New(strings.Split(*workers, ","), dist.Options{Obs: ob})
		fmt.Printf("fleet: %d/%d workers healthy\n", pool.Probe(), pool.Size())
		o.Evaluator = pool.Evaluator()
	}

	var store *corpus.Store
	if *corpusDir != "" {
		store, err = corpus.Open(*corpusDir, ob)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		store.SetBound(*corpusMax)
		// Warm-start from archived elites (cold start when the archive is
		// empty) and auto-archive each iteration's survivor set.
		seeds, err := store.Elites(st.String(), o.TopK)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		o.Seeds = seeds
		gcfg := o.Gen
		o.OnTopK = func(it int, top []*harpocrates.Individual) {
			for _, ind := range top {
				_, err := store.Add(ind.Program(&gcfg), ind.G, corpus.Meta{
					Structure: st.String(),
					Fitness:   ind.Fitness,
					Iteration: it,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "warning: corpus archive: %v\n", err)
					return
				}
			}
		}
		o.CheckpointPath = filepath.Join(*corpusDir, "checkpoint-"+strings.ToLower(st.String())+".hxck")
		o.Resume = *resume
		if len(seeds) > 0 && !*resume {
			fmt.Printf("corpus: seeding %d of %d population slots from archived elites\n", len(seeds), o.PopSize)
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "-resume requires -corpus")
		os.Exit(2)
	}

	fmt.Printf("Harpocrates loop: structure=%v programs=%d instructions=%d topK=%d iterations=%d\n",
		st, o.PopSize, o.Gen.NumInstrs, o.TopK, o.Iterations)
	res, err := harpocrates.Evolve(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	h := res.History
	for it := 0; it < len(h.Best); it += max(1, len(h.Best)/20) {
		fmt.Printf("  it %4d  best coverage %6.2f%%  (top-%d mean %6.2f%%)\n",
			it, 100*h.Best[it], o.TopK, 100*h.MeanTopK[it])
	}
	fmt.Printf("converged=%v after %d iterations; best %v coverage %.2f%%\n",
		res.Converged, res.Iterations, st, 100*res.Best.Fitness)
	fmt.Printf("loop step breakdown: mutation %v, generation %v, compilation %v, evaluation %v (totals)\n",
		h.Times.Mutation, h.Times.Generation, h.Times.Compilation, h.Times.Evaluation)
	fmt.Printf("throughput: %d programs, %d instructions generated and evaluated\n",
		h.EvaluatedPrograms, h.EvaluatedInstructions)
	if store != nil {
		fmt.Printf("corpus: %d programs archived in %s\n", store.Len(), store.Dir())
	}

	best := harpocrates.BestProgram(res, &o)
	if *dump > 0 {
		lines := strings.Split(best.Disassemble(), "\n")
		n := min(*dump, len(lines))
		fmt.Printf("best program (first %d of %d instructions):\n%s\n",
			n, len(best.Insts), strings.Join(lines[:n], "\n"))
	}
	if *save != "" {
		if err := best.Save(*save); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("saved best program to %s (%d instructions)\n", *save, len(best.Insts))
	}
	var detStats *harpocrates.DetectionStats
	if *detect > 0 {
		detStats = runDetection(best, st, *detect, *seed, ob)
	}
	if *jsonOut {
		printSummary(res, st, &o, *detect, detStats)
	}
	if err := obFinish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runSummary is the -json output schema: one deterministic object (no
// wall-clock fields), printed as the final stdout line so CI gates can
// `tail -n 1 | jq` it. BestHash fingerprints the winning genotype, so
// two runs printing equal summaries evolved the identical program.
type runSummary struct {
	Structure   string  `json:"structure"`
	Seed        uint64  `json:"seed"`
	Iterations  int     `json:"iterations"`
	Converged   bool    `json:"converged"`
	Evaluated   int     `json:"evaluated"`
	CacheHits   int     `json:"cache_hits"`
	BestFitness float64 `json:"best_fitness"`
	BestHash    string  `json:"best_hash"`
	DetectN     int     `json:"detect_n,omitempty"`
	Detected    int     `json:"detected,omitempty"`
	Masked      int     `json:"masked,omitempty"`
	SDC         int     `json:"sdc,omitempty"`
	Crash       int     `json:"crash,omitempty"`
	Hang        int     `json:"hang,omitempty"`
	Trap        int     `json:"trap,omitempty"`
	Detection   float64 `json:"detection,omitempty"`
}

func printSummary(res *harpocrates.LoopResult, st harpocrates.Structure, o *harpocrates.LoopOptions, detect int, stats *harpocrates.DetectionStats) {
	s := runSummary{
		Structure:   st.String(),
		Seed:        o.Seed,
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		Evaluated:   res.History.EvaluatedPrograms,
		CacheHits:   res.History.CacheHits,
		BestFitness: res.Best.Fitness,
		BestHash:    fmt.Sprintf("%016x", res.Best.G.Hash()),
	}
	if stats != nil {
		s.DetectN = detect
		s.Detected = stats.Detected()
		s.Masked = stats.Masked
		s.SDC = stats.SDC
		s.Crash = stats.Crash
		s.Hang = stats.Hang
		s.Trap = stats.Trap
		s.Detection = stats.Detection()
	}
	out, err := json.Marshal(&s)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// reEvaluate grades a loaded program: coverage on the core model, an
// optional disassembly dump and an optional SFI campaign.
func reEvaluate(p *harpocrates.Program, st harpocrates.Structure, detect, dump int, seed uint64, ob *obs.Observer) {
	res := harpocrates.Simulate(p, st)
	if !res.Clean() {
		fmt.Fprintf(os.Stderr, "warning: program does not run cleanly\n")
	}
	ipc := 0.0
	if res.Cycles > 0 {
		ipc = float64(res.Instructions) / float64(res.Cycles)
	}
	fmt.Printf("program %s: %d instructions, %d cycles, IPC %.2f\n",
		p.Name, len(p.Insts), res.Cycles, ipc)
	fmt.Printf("%v coverage: %.2f%%\n", st, 100*res.Snapshot.Value(st))
	if dump > 0 {
		lines := strings.Split(p.Disassemble(), "\n")
		n := min(dump, len(lines))
		fmt.Printf("program (first %d of %d instructions):\n%s\n",
			n, len(p.Insts), strings.Join(lines[:n], "\n"))
	}
	if detect > 0 {
		runDetection(p, st, detect, seed, ob)
	}
}

func runDetection(p *harpocrates.Program, st harpocrates.Structure, injections int, seed uint64, ob *obs.Observer) *harpocrates.DetectionStats {
	fmt.Printf("running %v SFI campaign (%d injections, %s faults)...\n",
		st, injections, faultName(st))
	c := harpocrates.NewDetectionCampaign(p, st, injections, seed)
	c.Obs = ob
	stats, err := c.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  %v\n", stats)
	return stats
}

func faultName(st harpocrates.Structure) string {
	if st.IsFunctionalUnit() {
		return "permanent gate-level stuck-at"
	}
	return "transient bit-flip"
}
