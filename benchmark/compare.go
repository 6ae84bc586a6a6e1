package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSet is what -compare reads: every run of one commit.
type runSet struct {
	Env  envStamp `json:"env"`
	Runs []setRun `json:"runs"`
}

type setRun struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Trace    int        `json:"trace"`
	Line     resultLine `json:"result"`
}

// runAll runs every workload, each run in a child process of its own
// (so host.peak_rss_mb is one workload's), -runs untraced runs on consecutive
// seeds and one traced run, prints the medians and writes the run set.
func runAll(o *options, ct *contract) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Env: stampEnv(o.seed, o.threads, o.seconds, o.outDir, sizesFor(o.smoke))}
	for _, w := range workloads {
		for r := 0; r <= o.runs; r++ {
			run := setRun{Workload: w.name, Seed: o.seed + uint64(r)}
			if r == o.runs {
				run.Seed, run.Trace = o.seed, 1
			}
			args := []string{
				"--workload", w.name, "--seed", strconv.FormatUint(run.Seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(run.Trace),
				"-threads", strconv.Itoa(o.threads), "-out-dir", o.outDir, "-benchmark-json", o.contract,
			}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", w.name, run.Seed, run.Trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &run.Line); err != nil {
				return fmt.Errorf("%s: result line: %w", w.name, err)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d trace %d: %d operations, %d failed\n", w.name, run.Seed, run.Trace, run.Line.Attempted, run.Line.Failed)
			set.Runs = append(set.Runs, run)
		}
	}
	printSet(os.Stdout, &set, ct)
	path := o.set
	if path == "" {
		path = filepath.Join(o.outDir, "set.json")
	}
	return writeJSON(path, &set)
}

// values collects one metric of one workload over a set's runs.
func (s *runSet) values(workload, metric string, trace int) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Line.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, v.Value)
		}
	}
	return out
}

func (s *runSet) failShare(workload string) (failed, attempted int, wrong bool) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed, attempted, wrong = failed+r.Line.Failed, attempted+r.Line.Attempted, wrong || !r.Line.Correct
		}
	}
	return
}

func printSet(w io.Writer, set *runSet, ct *contract) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, d := range ct.EndToEnd {
			s := summarize(set.values(wl.name, d.Name, 0))
			fmt.Fprintf(w, "  %-14s %-5s median %-10.5g quartiles [%.5g, %.5g]  n %d  spread %.1f%%\n",
				d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N, 100*s.spread())
		}
		failed, attempted, _ := set.failShare(wl.name)
		fmt.Fprintf(w, "  fail_share     %d/%d\n", failed, attempted)
		for _, d := range ct.PerLayer {
			if vs := set.values(wl.name, d.Name, 1); len(vs) > 0 {
				fmt.Fprintf(w, "    %-36s %14.6g %s\n", d.Name, median(vs), d.Unit)
			}
		}
	}
}

// verdict compares one end-to-end metric of one workload between two
// sets. worse/better mean the medians differ by more than the bound;
// where the run-to-run spread is wider than the bound the answer is
// unresolved, unless every run of one side beats every run of the other.
func verdict(a, b []float64, d metricDef) string {
	sa, sb := summarize(a), summarize(b)
	if sa.N == 0 || sb.N == 0 || sa.Median == 0 {
		return "missing"
	}
	// rel > 0: b is worse than a by that share of a's median.
	rel := (sb.Median - sa.Median) / sa.Median
	sortedA, sortedB := sortedCopy(a), sortedCopy(b)
	allWorse, allBetter := sortedB[0] > sortedA[len(a)-1], sortedB[len(b)-1] < sortedA[0]
	if d.Better == "higher" {
		rel, allWorse, allBetter = -rel, allBetter, allWorse
	}
	switch {
	case allWorse && rel > d.Bound:
		return "worse"
	case allBetter && rel < -d.Bound:
		return "better"
	case max(sa.spread(), sb.spread()) > d.Bound:
		return "unresolved"
	case rel > d.Bound:
		return "worse"
	case rel < -d.Bound:
		return "better"
	}
	return "same"
}

// exactMetrics are simulated statistics: for one seed, two commits must
// agree on them to the last digit.
var exactMetrics = []string{"host.result_digest", "uarch.golden_cycles", "core.iters_to_target", "core.final_coverage", "core.final_detection"}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func compareFiles(w io.Writer, pathA, pathB string, ct *contract) (worse bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(w, a, b, ct), nil
}

func compareSets(w io.Writer, a, b *runSet, ct *contract) (worse bool) {
	fmt.Fprintf(w, "A: %s %s, %d threads, %s on %s\nB: %s %s, %d threads, %s on %s\n",
		a.Env.GitSHA, a.Env.GoVersion, a.Env.Threads, a.Env.CPUModel, a.Env.DataDirFS,
		b.Env.GitSHA, b.Env.GoVersion, b.Env.Threads, b.Env.CPUModel, b.Env.DataDirFS)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, d := range ct.EndToEnd {
			va, vb := a.values(wl.name, d.Name, 0), b.values(wl.name, d.Name, 0)
			sa, sb := summarize(va), summarize(vb)
			v := verdict(va, vb, d)
			fmt.Fprintf(w, "  %-12s %-5s A %.5g [%.5g, %.5g] n=%d spread %.1f%%   B %.5g [%.5g, %.5g] n=%d spread %.1f%%   B/A %.3f of %.5g, %s is better, bound %.0f%%: %s\n",
				d.Name, d.Unit, sa.Median, sa.Q1, sa.Q3, sa.N, 100*sa.spread(), sb.Median, sb.Q1, sb.Q3, sb.N, 100*sb.spread(),
				ratio(sb.Median, sa.Median), sa.Median, d.Better, 100*d.Bound, v)
			worse = worse || v == "worse"
		}
		fa, na, wrongA := a.failShare(wl.name)
		fb, nb, wrongB := b.failShare(wl.name)
		fmt.Fprintf(w, "  fail_share   A %d/%d  B %d/%d\n", fa, na, fb, nb)
		if ratio(float64(fb), float64(nb)) > ratio(float64(fa), float64(na)) || (wrongB && !wrongA) {
			fmt.Fprintf(w, "  fail_share rose: worse\n")
			worse = true
		}
		for _, name := range exactMetrics {
			if ma, mb := perSeed(a, wl.name, name), perSeed(b, wl.name, name); len(ma) > 0 {
				for seed, x := range ma {
					if y, ok := mb[seed]; ok && x != y {
						fmt.Fprintf(w, "  %s differs on seed %d: A %v  B %v: worse\n", name, seed, x, y)
						worse = true
					}
				}
			}
		}
		for _, d := range ct.PerLayer {
			va, vb := a.values(wl.name, d.Name, 1), b.values(wl.name, d.Name, 1)
			if len(va) > 0 && len(vb) > 0 {
				fmt.Fprintf(w, "    %-36s %-6s A %-12.6g B %-12.6g B/A %.3f\n", d.Name, d.Unit, median(va), median(vb), ratio(median(vb), median(va)))
			}
		}
	}
	return worse
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perSeed maps seed to a traced run's value of one metric.
func perSeed(s *runSet, workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range s.Runs {
		if v, ok := r.Line.Metrics[metric]; ok && r.Workload == workload && r.Trace == 1 {
			out[r.Seed] = v.Value
		}
	}
	return out
}
