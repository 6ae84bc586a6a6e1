package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"harpocrates/internal/obs"
)

// Between setupRepeats and setupMax set-ups are made per untraced run,
// the extra ones while they all fit in a fifth of the run's length. They
// are the same work (same warm-up operation), so setup_s is the fastest
// of them, for the reason a slot's latency is its fastest pass's.
const (
	setupRepeats = 5
	setupMax     = 15
)

// The timed region of the untraced run is measurePasses passes over its
// slots; each third of the traced run is tracePasses.
const (
	measurePasses = 5
	tracePasses   = 3
)

// digestOps slots feed host.result_digest. Every run has at least this
// many, so the digest does not depend on the host's speed.
const digestOps = 2

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, in the acceptance
// driver's format.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runReport is the result file of one run: the line plus what a reader
// needs to trust and compare it.
type runReport struct {
	Env      envStamp           `json:"env"`
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Line     resultLine         `json:"result"`
	Timings  map[string]summary `json:"timings"`
	Failures []string           `json:"failures,omitempty"`
}

// loopResult is one timed region.
type loopResult struct {
	durs     []float64 // per slot, the fastest pass's latency, ms
	rates    []float64 // per slot, work units per second of the fastest pass
	all      []float64 // every operation's latency, ms, in the order run
	failures []string
}

// timedLoop runs operations one after another (closed loop, no think
// time) in passes. Pass 0 runs slots 0,1,2,… until its share of seconds
// has passed (and at least digestOps of them); every later pass runs
// the same slots again, in the same order. A slot's operations are the
// same job on every pass — identical where the system lets a job be
// repeated, the same program with fresh faults where its result cache
// would answer a repeat — so they differ only in what else the host was
// doing at that moment. Other tenants of a shared host only ever add
// time, and they add it in bursts of a second or two that one pass sits
// in and the next does not; a slot's fastest pass is therefore the
// estimate of its cost that repeats from run to run, and the run's
// metrics are medians of it over the slots.
func timedLoop(inst instance, seconds float64, passes int) loopResult {
	var lr loopResult
	var best []opSample // per slot; dur 0 until one pass succeeds
	budget := seconds / float64(passes)
	start := time.Now()
loop:
	for pass := 0; pass < passes; pass++ {
		for slot := 0; ; slot++ {
			if pass > 0 && slot >= len(best) {
				break
			}
			if pass == 0 && slot >= digestOps && time.Since(start).Seconds() >= budget {
				break
			}
			if pass == 0 {
				best = append(best, opSample{})
			}
			s, err := inst.op(slot, pass)
			if err != nil {
				lr.failures = append(lr.failures, fmt.Sprintf("slot %d pass %d: %v", slot, pass, err))
				if len(lr.failures) > 10 {
					break loop
				}
				continue
			}
			lr.all = append(lr.all, ms(s.dur))
			best[slot] = fastest(best[slot], s)
		}
	}
	for _, s := range best {
		if s.dur > 0 {
			lr.durs = append(lr.durs, ms(s.dur))
			lr.rates = append(lr.rates, s.work/s.dur.Seconds())
		}
	}
	return lr
}

// fastest merges two passes of one slot. An operation that reports its
// parts (consecutive steps that are the same work on every pass, covering
// the whole call) is merged step by step, so that an operation longer
// than the quiet spells between two bursts of interference still gets an
// undisturbed estimate; any other by its whole latency. The work count
// is the first pass's.
func fastest(a, b opSample) opSample {
	switch {
	case a.dur == 0:
		return b
	case len(a.parts) == 0 || len(a.parts) != len(b.parts):
		if b.dur < a.dur {
			a.dur = b.dur
		}
		return a
	}
	parts := make([]time.Duration, len(a.parts))
	a.dur = 0
	for k := range parts {
		parts[k] = min(a.parts[k], b.parts[k])
		a.dur += parts[k]
	}
	a.parts = parts
	return a
}

// start sets a workload up and runs its discarded warm-up operation.
func start(w *workload, rc *runCtx, warmup int) (instance, error) {
	inst, err := w.setup(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if _, err := inst.op(warmup, 0); err != nil {
		inst.close()
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	return inst, nil
}

// measure is the untraced run: the end-to-end metrics.
func measure(w *workload, rc *runCtx, seconds float64) (*runReport, error) {
	var setups []float64
	var inst instance
	begin := time.Now()
	for k := 0; k < setupRepeats || (k < setupMax && time.Since(begin).Seconds() < seconds/5); k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: shut-down: %w", w.name, err)
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = start(w, rc, -1); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	lr := timedLoop(inst, seconds, measurePasses)
	failures := append(lr.failures, inst.verify()...)
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s: shut-down: %w", w.name, err)
	}
	if len(lr.durs) == 0 {
		return nil, fmt.Errorf("%s: no operation completed: %v", w.name, failures)
	}
	rep := newReport(w, false, len(lr.all)+len(lr.failures), failures)
	rep.Timings["setup_s"] = summarize(setups)
	rep.Timings["op_ms"] = summarize(lr.durs)
	rep.Timings["op_ms_all"] = summarize(lr.all)
	rep.Line.Metrics = map[string]metricValue{
		"setup_s":    {Value: slices.Min(setups)},
		"op_p50_ms":  {Value: median(lr.durs)},
		"work_per_s": {Value: median(lr.rates)},
	}
	return rep, nil
}

func newReport(w *workload, trace bool, attempted int, failures []string) *runReport {
	return &runReport{Workload: w.name, Trace: trace, Failures: failures, Timings: map[string]summary{},
		Line: resultLine{Correct: len(failures) == 0, Attempted: attempted, Failed: min(len(failures), attempted)}}
}

// hostCounters reads the process-wide counters host.* metrics are
// differences of.
type hostCounters struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func readHost() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	h := hostCounters{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU, h.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return h
}

// traceRun is the traced run: the per-layer metrics. A third of the
// time goes to the workload untraced (the baseline tracing overhead is
// measured against, and the host.* numbers), a third to the same
// operations with spans and an obs registry attached, and a third to
// the layer probes.
func traceRun(w *workload, rc *runCtx, seconds float64, names []string) (*runReport, []span, error) {
	third := seconds / 3
	m := map[string]float64{}
	for _, n := range names {
		m[n] = 0
	}

	plain, err := start(w, rc, -1)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	h0 := readHost()
	base := timedLoop(plain, third, tracePasses)
	h1 := readHost()
	m["host.peak_rss_mb"] = peakRSSMB()
	if err := plain.close(); err != nil {
		return nil, nil, fmt.Errorf("%s: shut-down: %w", w.name, err)
	}
	if n := float64(len(base.all)); n > 0 {
		m["host.alloc_kb_per_op"] = float64(h1.allocBytes-h0.allocBytes) / 1024 / n
		m["host.allocs_per_op"] = float64(h1.allocs-h0.allocs) / n
	}
	if cpu := h1.totalCPU - h0.totalCPU; cpu > 0 {
		m["host.gc_cpu_share"] = (h1.gcCPU - h0.gcCPU) / cpu
	}
	m["host.op_p75_ms"] = reportable(base.all, 75)
	m["host.op_p90_ms"] = reportable(base.all, 90)

	reg := obs.NewRegistry()
	trc := *rc
	trc.ob, trc.tr = obs.New(reg, nil), newTracer()
	inst, err := start(w, &trc, -1)
	if err != nil {
		return nil, nil, err
	}
	before := injectCounters(reg)
	traced := timedLoop(inst, third, tracePasses)
	registryMetrics(before, injectCounters(reg), m)
	inst.insitu(m)
	var over []float64
	for i := 0; i < min(len(base.durs), len(traced.durs)); i++ {
		over = append(over, (traced.durs[i]-base.durs[i])/base.durs[i])
	}
	m["trace.overhead_share"] = median(over)
	m["host.result_digest"] = float64(inst.digest(digestOps) & (1<<31 - 1))

	failures := append(base.failures, traced.failures...)
	failures = append(failures, inst.verify()...)
	if err := probeLayers(&trc, inst.input(), time.Duration(third*float64(time.Second)), m); err != nil {
		failures = append(failures, err.Error())
	}
	if err := inst.close(); err != nil {
		return nil, nil, fmt.Errorf("%s: shut-down: %w", w.name, err)
	}

	attempted := len(base.all) + len(base.failures) + len(traced.all) + len(traced.failures)
	rep := newReport(w, true, max(attempted, 1), failures)
	rep.Timings["op_ms"] = summarize(base.durs)
	rep.Timings["op_ms_traced"] = summarize(traced.durs)
	rep.Timings["op_ms_traced_all"] = summarize(traced.all)
	rep.Line.Metrics = map[string]metricValue{}
	for name, v := range m {
		rep.Line.Metrics[name] = metricValue{Value: v}
	}
	return rep, trc.tr.snapshot(), nil
}

// injectCounters reads the inject.* counters every campaign (in process
// or on a fleet worker) reports into the registry.
func injectCounters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, n := range []string{
		"inject.run.wall_ns", "inject.phase.golden.wall_ns", "inject.phase.classify.wall_ns",
		"inject.phase.simulate.wall_ns", "inject.campaigns", "inject.simulated", "inject.premasked",
		"inject.resume.checkpoint", "inject.resume.reset", "inject.delta.converged",
		"inject.delta.diverged", "inject.delta.cycles_saved",
	} {
		out[n] = float64(reg.Counter(n).Load())
	}
	return out
}

func registryMetrics(before, after map[string]float64, m map[string]float64) {
	d := func(n string) float64 { return after[n] - before[n] }
	run := d("inject.run.wall_ns")
	m["inject.golden_share"] = ratio(d("inject.phase.golden.wall_ns"), run)
	m["inject.classify_share"] = ratio(d("inject.phase.classify.wall_ns"), run)
	m["inject.simulate_share"] = ratio(d("inject.phase.simulate.wall_ns"), run)
	specs := d("inject.simulated") + d("inject.premasked")
	m["inject.simulated_per_campaign"] = ratio(d("inject.simulated"), d("inject.campaigns"))
	m["inject.us_per_simulated_run"] = ratio(d("inject.phase.simulate.wall_ns")/1e3, d("inject.simulated"))
	m["inject.classify_us_per_injection"] = ratio(d("inject.phase.classify.wall_ns")/1e3, specs)
	m["ace.premask_rate"] = ratio(d("inject.premasked"), specs)
	m["inject.resume_checkpoint_rate"] = ratio(d("inject.resume.checkpoint"), d("inject.resume.checkpoint")+d("inject.resume.reset"))
	m["inject.delta_converged_rate"] = ratio(d("inject.delta.converged"), d("inject.delta.converged")+d("inject.delta.diverged"))
	m["inject.delta_cycles_saved"] = ratio(d("inject.delta.cycles_saved"), d("inject.campaigns"))
}

// traceFile is benchmark/out/trace-<workload>.json.
type traceFile struct {
	Env      envStamp         `json:"env"`
	Workload string           `json:"workload"`
	SelfNs   map[string]int64 `json:"self_ns"`
	Spans    []span           `json:"spans"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport lists every metric of the run by name with its unit, and
// the timings behind them as median, quartiles, minimum and count.
func printReport(rep *runReport) {
	fmt.Printf("workload %s  seed %d  threads %d  trace %v  attempted %d  failed %d\n",
		rep.Workload, rep.Env.Seed, rep.Env.Threads, rep.Trace, rep.Line.Attempted, rep.Line.Failed)
	names := make([]string, 0, len(rep.Line.Metrics))
	for n := range rep.Line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.Line.Metrics[n]
		fmt.Printf("  %-36s %16.6g %s\n", n, v.Value, v.Unit)
	}
	for _, n := range []string{"setup_s", "op_ms", "op_ms_all", "op_ms_traced", "op_ms_traced_all"} {
		if s, ok := rep.Timings[n]; ok {
			fmt.Printf("  %-14s median %.4g  quartiles [%.4g, %.4g]  min %.4g  n %d\n", n, s.Median, s.Q1, s.Q3, s.Min, s.N)
		}
	}
	for _, f := range rep.Failures {
		fmt.Println("  FAILED:", f)
	}
}
