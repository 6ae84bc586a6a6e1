package main

import (
	"bytes"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"harpocrates/internal/inject"
)

func TestQuartilesMatchPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("ten samples: got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Fatalf("five samples: got %v %v %v", q1, q2, q3)
	}
	s := summarize([]float64{30, 10, 20})
	if s.N != 3 || s.Median != 20 || s.Min != 10 || s.Q1 != 10 || s.Q3 != 30 || s.spread() != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.spread() != 0 {
		t.Fatalf("one sample: %+v", s)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true}, {99, 90, 90, false}, {40, 75, 30, true}, {39, 75, 30, false},
		{1000, 99, 990, true}, {12, 90, 11, false},
	} {
		got, ok := percentile(ramp(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%v of %d samples: got %v,%v want %v,%v", c.p, c.n, got, ok, c.want, c.ok)
		}
	}
	if v := reportable(ramp(99), 90); v != 0 {
		t.Errorf("an unreportable percentile must print as 0, got %v", v)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a: the union counts once
		{ID: 4, Parent: 1, Name: "b", StartNs: 90, EndNs: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "c", StartNs: 25, EndNs: 35},
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 50, "a": 20, "b": 20 + 30, "c": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s: got %d want %d", name, got[name], w)
		}
	}

	tr := newTracer()
	op := tr.start("op", 0, 7)
	kid := tr.start("kid", op, 7)
	tr.end(kid)
	tr.end(op)
	ss := tr.snapshot()
	if len(ss) != 2 || ss[1].Parent != ss[0].ID || ss[1].Op != 7 || ss[0].EndNs < ss[1].EndNs {
		t.Fatalf("recorded spans %+v", ss)
	}
	var off *tracer
	off.end(off.start("x", 0, 0)) // the untraced run records nothing and must not crash
}

// scripted is an instance whose operations take the time the script says.
type scripted struct {
	instance
	durs  map[[2]int]opSample // by (slot, pass)
	calls [][2]int
}

func (f *scripted) op(slot, pass int) (opSample, error) {
	f.calls = append(f.calls, [2]int{slot, pass})
	return f.durs[[2]int{slot, pass}], nil
}

func TestTimedLoopTakesEachSlotsFastestPass(t *testing.T) {
	msd := func(xs ...int) (out []time.Duration) {
		for _, x := range xs {
			out = append(out, time.Duration(x)*time.Millisecond)
		}
		return
	}
	f := &scripted{durs: map[[2]int]opSample{
		// whole operations: the fastest pass counts
		{0, 0}: {dur: 30 * time.Millisecond, work: 60}, {0, 1}: {dur: 10 * time.Millisecond, work: 60}, {0, 2}: {dur: 20 * time.Millisecond, work: 60},
		// an operation in steps: each step's fastest pass counts (4+1+2)
		{1, 0}: {dur: 16 * time.Millisecond, work: 7, parts: msd(4, 9, 3)},
		{1, 1}: {dur: 15 * time.Millisecond, work: 7, parts: msd(8, 1, 6)},
		{1, 2}: {dur: 16 * time.Millisecond, work: 7, parts: msd(7, 7, 2)},
	}}
	lr := timedLoop(f, 0, 3) // no time: pass 0 still runs digestOps slots
	want := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	if len(f.calls) != len(want) {
		t.Fatalf("ran %v, want %v", f.calls, want)
	}
	for i := range want {
		if f.calls[i] != want[i] {
			t.Fatalf("ran %v, want %v", f.calls, want)
		}
	}
	if len(lr.durs) != 2 || lr.durs[0] != 10 || lr.durs[1] != 7 || len(lr.all) != 6 {
		t.Fatalf("slot latencies %v over %d operations, want [10 7] over 6", lr.durs, len(lr.all))
	}
	if lr.rates[0] != 6000 || lr.rates[1] != 1000 {
		t.Fatalf("slot rates %v, want [6000 1000]", lr.rates)
	}
}

func set(workload string, failed int, vals ...float64) *runSet {
	s := &runSet{}
	for i, v := range vals {
		s.Runs = append(s.Runs, setRun{Workload: workload, Seed: uint64(i + 1), Line: resultLine{
			Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]metricValue{"op_p50_ms": {Value: v, Unit: "ms"}, "work_per_s": {Value: 1000 / v, Unit: "1/s"}},
		}})
	}
	return s
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"within the bound", base, []float64{104, 105, 103, 104, 106}, lower, "same"},
		{"slower by a fifth", base, []float64{120, 121, 119, 120, 122}, lower, "worse"},
		{"faster by a fifth", base, []float64{80, 81, 79, 80, 82}, lower, "better"},
		{"wide and overlapping", []float64{70, 100, 130, 90, 110}, []float64{80, 115, 150, 95, 125}, lower, "unresolved"},
		{"wide but every run slower", []float64{70, 100, 130, 90, 110}, []float64{140, 200, 260, 180, 220}, lower, "worse"},
		{"throughput down a fifth", base, []float64{80, 81, 79, 80, 82}, higher, "worse"},
		{"throughput up a fifth", base, []float64{120, 121, 119, 120, 122}, higher, "better"},
		{"nothing to compare", base, nil, lower, "missing"},
	} {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: got %s want %s", c.name, got, c.want)
		}
	}

	ct := &contract{EndToEnd: []metricDef{lower, higher}}
	var out bytes.Buffer
	if compareSets(&out, set("evolve-irf", 0, base...), set("evolve-irf", 0, 101, 100, 99, 102, 100), ct) {
		t.Fatalf("equal sets compared worse:\n%s", out.String())
	}
	if !compareSets(&out, set("evolve-irf", 0, base...), set("evolve-irf", 0, 130, 131, 129, 130, 132), ct) {
		t.Fatal("a 30% slowdown did not compare worse")
	}
	out.Reset()
	if !compareSets(&out, set("evolve-irf", 0, base...), set("evolve-irf", 1, base...), ct) || !strings.Contains(out.String(), "fail_share rose") {
		t.Fatalf("a rise in fail_share did not compare worse:\n%s", out.String())
	}
}

func smokeCtx(t *testing.T) *runCtx {
	return &runCtx{seed: 1, threads: 2, sz: smokeSizes, outDir: t.TempDir()}
}

// flip corrupts one recorded outcome the way a misclassifying
// optimisation would.
func flip(st *inject.Stats) {
	if st.Outcomes[0] == inject.Masked {
		st.Outcomes[0] = inject.SDC
	} else {
		st.Outcomes[0] = inject.Masked
	}
}

func TestOracleCatchesOneFlippedOutcome(t *testing.T) {
	for _, name := range []string{"sfi-irf-transient", "sfi-fu-permanent", "fleet-push", "fleet-queue-warm"} {
		inst, err := start(findWorkload(name), smokeCtx(t), -1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := inst.op(i, 0); err != nil {
				t.Fatal(err)
			}
		}
		if bad := inst.verify(); len(bad) != 0 {
			t.Fatalf("%s: clean run failed its oracle: %v", name, bad)
		}
		switch v := inst.(type) {
		case *sfiInst:
			flip(v.results[0][0])
		case *fleetInst:
			flip(v.results[0])
		}
		if bad := inst.verify(); len(bad) == 0 {
			t.Errorf("%s: oracle missed a flipped outcome", name)
		}
		if err := inst.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// settle waits for goroutines that end asynchronously (closed keep-alive
// connections) and returns the count left.
func settle(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

func TestSmokeEveryWorkload(t *testing.T) {
	ct, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(ct.Workloads), len(workloads))
	}
	names := make([]string, len(ct.PerLayer))
	for i, d := range ct.PerLayer {
		names[i] = d.Name
	}
	before := settle(runtime.NumGoroutine())
	for i := range workloads {
		w := &workloads[i]
		if ct.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, ct.Workloads[i].Name, w.name)
		}
		rc := smokeCtx(t)
		rep, err := measure(w, rc, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if err := stampUnits(&rep.Line, ct.EndToEnd); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Line.Correct || rep.Line.Failed != 0 || rep.Line.Attempted < 1 {
			t.Errorf("%s: %+v %v", w.name, rep.Line, rep.Failures)
		}
		for name, v := range rep.Line.Metrics {
			if v.Value <= 0 || v.Unit == "" {
				t.Errorf("%s: %s = %v %q", w.name, name, v.Value, v.Unit)
			}
		}
		if w.name == "evolve-irf" || w.name == "fleet-queue" {
			rep, spans, err := traceRun(w, rc, 0.15, names)
			if err != nil {
				t.Fatal(err)
			}
			if err := stampUnits(&rep.Line, ct.PerLayer); err != nil {
				t.Fatalf("%s traced: %v", w.name, err)
			}
			if !rep.Line.Correct || len(spans) == 0 {
				t.Errorf("%s traced: %v, %d spans", w.name, rep.Failures, len(spans))
			}
		}
		// Nothing may outlive a workload: no goroutine, no listener, no file.
		if after := settle(before); after > before {
			buf := make([]byte, 1<<16)
			t.Errorf("%s left %d goroutines behind:\n%s", w.name, after-before, buf[:runtime.Stack(buf, true)])
		}
		if left, _ := os.ReadDir(rc.outDir); len(left) != 0 {
			t.Errorf("%s left %d entries in its scratch directory", w.name, len(left))
		}
	}
}

func TestFleetStopsListening(t *testing.T) {
	for _, name := range []string{"fleet-queue", "fleet-push"} {
		inst, err := start(findWorkload(name), smokeCtx(t), -1)
		if err != nil {
			t.Fatal(err)
		}
		urls := inst.(*fleetInst).urls
		if len(urls) == 0 {
			t.Fatalf("%s: no daemon address recorded", name)
		}
		if err := inst.close(); err != nil {
			t.Fatal(err)
		}
		for _, u := range urls {
			if !strings.HasPrefix(u, "http://127.0.0.1:") {
				t.Errorf("%s: daemon bound to %s, not loopback", name, u)
			}
			if c, err := net.DialTimeout("tcp", strings.TrimPrefix(u, "http://"), time.Second); err == nil {
				c.Close()
				t.Errorf("%s: %s still accepts connections after close", name, u)
			}
		}
	}
}
