// Command benchmark is the repository's benchmark of record (see
// BENCHMARK.json and benchmark/README.md). It measures every layer from
// outside, by timing calls into the packages' exported functions and by
// reading the counters the obs registry already exports.
//
//	go run ./benchmark --workload sfi-irf-transient --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload sfi-irf-transient --trace 1     # per-layer metrics + trace file
//	go run ./benchmark -runs 5 -set benchmark/out/A.json          # every workload, 5 seeds each
//	go run ./benchmark -compare benchmark/out/A.json benchmark/out/B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// metricDef and contract mirror BENCHMARK.json, the one place metric
// names, units, directions and bounds are written down.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// stampUnits gives every metric of the line its unit from the contract
// and refuses a line whose metric set is not exactly the contract's.
func stampUnits(line *resultLine, defs []metricDef) error {
	if len(line.Metrics) != len(defs) {
		return fmt.Errorf("run produced %d metrics, BENCHMARK.json lists %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := line.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("run did not produce %s, which BENCHMARK.json lists", d.Name)
		}
		v.Unit = d.Unit
		line.Metrics[d.Name] = v
	}
	return nil
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	threads  int
	smoke    bool
	outDir   string
	contract string
	runs     int
	set      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only (default: every workload, -runs seeds each, as child processes)")
	flag.Uint64Var(&o.seed, "seed", 1, "the only source of randomness: every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed region (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and benchmark/out/trace-<workload>.json")
	flag.IntVar(&o.threads, "threads", min(runtime.NumCPU(), 4), "GOMAXPROCS, campaign and loop workers, and in-process fleet workers")
	flag.BoolVar(&o.smoke, "smoke", false, "1/50-size inputs, to check the harness rather than to measure")
	flag.StringVar(&o.outDir, "out-dir", filepath.Join("benchmark", "out"), "result files, trace files and (removed on exit) daemon data directories")
	flag.StringVar(&o.contract, "benchmark-json", "BENCHMARK.json", "metric names, units and bounds")
	flag.IntVar(&o.runs, "runs", 3, "without -workload: untraced runs per workload, on seeds seed, seed+1, …")
	flag.StringVar(&o.set, "set", "", "without -workload: write the run set here (default <out-dir>/set.json)")
	compare := flag.Bool("compare", false, "compare two run sets: -compare A.json B.json")
	flag.Parse()

	ct, err := loadContract(o.contract)
	if err != nil {
		fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(ct.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two run-set files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), ct)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case o.workload == "":
		if err := runAll(&o, ct); err != nil {
			fatal(err)
		}
	default:
		rep, err := runOne(&o, ct)
		if err != nil {
			fatal(err)
		}
		printReport(rep)
		line, err := json.Marshal(&rep.Line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one workload in this process and writes its result (and
// trace) file.
func runOne(o *options, ct *contract) (*runReport, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.threads < 1 {
		return nil, fmt.Errorf("-threads must be at least 1")
	}
	runtime.GOMAXPROCS(o.threads)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	rc := &runCtx{seed: o.seed, threads: o.threads, sz: sizesFor(o.smoke), outDir: o.outDir}
	env := stampEnv(o.seed, o.threads, o.seconds, o.outDir, rc.sz)

	var rep *runReport
	var err error
	if o.trace == 0 {
		if rep, err = measure(w, rc, o.seconds); err == nil {
			err = stampUnits(&rep.Line, ct.EndToEnd)
		}
	} else {
		names := make([]string, len(ct.PerLayer))
		for i, d := range ct.PerLayer {
			names[i] = d.Name
		}
		var spans []span
		if rep, spans, err = traceRun(w, rc, o.seconds, names); err == nil {
			err = stampUnits(&rep.Line, ct.PerLayer)
		}
		if err == nil {
			err = writeJSON(filepath.Join(o.outDir, "trace-"+w.name+".json"),
				&traceFile{Env: env, Workload: w.name, SelfNs: selfTimes(spans), Spans: spans})
		}
	}
	if err != nil {
		return nil, err
	}
	rep.Env = env
	name := "result-" + w.name + ".json"
	if o.trace != 0 {
		name = "result-" + w.name + "-traced.json"
	}
	return rep, writeJSON(filepath.Join(o.outDir, name), rep)
}
