package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/coverage"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
)

func tinyParams() Params {
	return Params{
		Scale:       1,
		InjBitArray: 16,
		InjAdder:    12,
		InjMul:      6,
		InjFP:       8,
		Seed:        1,
	}
}

// tinySession is shared by the tests that evolve at tinyParams, so the
// IntAdder Fig. 10 run is made once per test binary. Tests do not run
// in parallel, so the session is never used concurrently.
var tinySession = sync.OnceValue(func() *Session { return NewSession(tinyParams()) })

func TestFig1Data(t *testing.T) {
	entries := Fig1DPPM()
	if len(entries) != 3 {
		t.Fatal("Fig. 1 must list the three hyperscaler disclosures")
	}
	if entries[2].DPPM != 361 {
		t.Fatalf("Alibaba DPPM = %v, want 361", entries[2].DPPM)
	}
	var buf bytes.Buffer
	FprintFig1(&buf)
	if !strings.Contains(buf.String(), "DPPM") {
		t.Fatal("Fig. 1 rendering empty")
	}
}

func TestMeasureBitArrayAndFU(t *testing.T) {
	s := NewSession(tinyParams())
	p := mibench.Basicmath(1)
	for _, st := range []coverage.Structure{coverage.IRF, coverage.IntAdder, coverage.IntMul} {
		m, err := s.Measure(p, st)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if m.Coverage < 0 || m.Coverage > 1 || m.Detection < 0 || m.Detection > 1 {
			t.Fatalf("%v: out-of-range measurement %+v", st, m)
		}
		if m.Cycles == 0 {
			t.Fatalf("%v: no cycles", st)
		}
	}
	// Basicmath is multiply-heavy: it must detect some multiplier faults.
	m, err := s.Measure(p, coverage.IntMul)
	if err != nil {
		t.Fatal(err)
	}
	if m.Detection == 0 {
		t.Fatal("multiply-heavy kernel detected no multiplier faults")
	}
}

func TestMeasureMemoized(t *testing.T) {
	s := NewSession(tinyParams())
	p := mibench.Bitcount(1)
	m1, err := s.Measure(p, coverage.IRF)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Measure(p, coverage.IRF)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("memoized measurement differs")
	}
	if len(s.meas) != 1 {
		t.Fatalf("session holds %d measurements after one (program, structure), want 1", len(s.meas))
	}
}

func TestFig8Scenario(t *testing.T) {
	r := Fig8Scenario(tinyParams())
	if r.ByteInvalidFrac < 0.3 {
		t.Fatalf("byte mutation invalid fraction %.2f implausibly low", r.ByteInvalidFrac)
	}
	if r.IsaValid != r.IsaMutants {
		t.Fatal("ISA-aware mutation produced invalid mutants")
	}
	if r.MutantAdderOpsMax == r.MutantAdderOpsMin {
		t.Fatal("mutation produced no fitness diversity")
	}
	var buf bytes.Buffer
	FprintFig8(&buf, r)
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

func TestTable1Breakdown(t *testing.T) {
	s, err := Table1(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.Evaluation <= 0 || s.Generation <= 0 || s.Mutation <= 0 || s.Compilation <= 0 {
		t.Fatalf("missing phases: %+v", s)
	}
	if s.InstrsPerSecond() <= 0 {
		t.Fatal("no throughput")
	}
	var buf bytes.Buffer
	FprintTable1(&buf, s)
	if !strings.Contains(buf.String(), "Evaluation") {
		t.Fatal("bad rendering")
	}
}

func TestSummarize(t *testing.T) {
	ms := []Measurement{
		{Framework: "A", Structure: coverage.IRF, Detection: 0.2, Coverage: 0.3},
		{Framework: "A", Structure: coverage.IRF, Detection: 0.6, Coverage: 0.1},
		{Framework: "B", Structure: coverage.IRF, Detection: 0.4, Coverage: 0.4},
	}
	ss := Summarize(ms)
	if len(ss) != 2 {
		t.Fatalf("summaries = %d, want 2", len(ss))
	}
	for _, s := range ss {
		if s.Framework == "A" {
			if s.MaxDet != 0.6 || s.AvgDet != 0.4 || s.Programs != 2 {
				t.Fatalf("bad A summary: %+v", s)
			}
		}
	}
}

func TestFig10SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Scale 1's preset for IntAdder is already the cheapest run.
	c, err := tinySession().Fig10(coverage.IntAdder)
	if err != nil {
		t.Fatal(err)
	}
	if c.Best == nil || c.Best.Name != "harpocrates/IntAdder" {
		t.Fatalf("final best program missing or misnamed: %+v", c.Best)
	}
	if len(c.Points) == 0 {
		t.Fatal("no convergence points")
	}
	first, last := c.Points[0].Coverage, c.Points[len(c.Points)-1].Coverage
	if last < first {
		t.Fatalf("coverage regressed: %f -> %f", first, last)
	}
	sampledDet := 0
	for _, p := range c.Points {
		if p.Detection >= 0 {
			sampledDet++
		}
	}
	if sampledDet < 2 {
		t.Fatal("too few detection checkpoints")
	}
	var buf bytes.Buffer
	FprintConvergence(&buf, c)
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

func TestScaleEnv(t *testing.T) {
	t.Setenv("HARPO_SCALE", "3")
	if Scale() != 3 {
		t.Fatal("HARPO_SCALE not honoured")
	}
	t.Setenv("HARPO_SCALE", "bogus")
	if Scale() != 1 {
		t.Fatal("bad HARPO_SCALE must default to 1")
	}
}

func TestInterplayOrdering(t *testing.T) {
	pp := tinyParams()
	reg := obs.NewRegistry()
	pp.Obs = obs.New(reg, nil)
	r, err := Interplay(coverage.IRF, pp)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Params.Obs reaches every campaign of the sweep.
	if n := reg.Counter("inject.campaigns").Load(); n != int64(len(r.Points)) {
		t.Fatalf("observer saw %d campaigns, want %d", n, len(r.Points))
	}
	// Whole-run stuck-at faults must detect at least as well as
	// single-cycle transients (Fig. 2 containment), modulo CI noise.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.Detection+0.10 < first.Detection {
		t.Fatalf("stuck-at detection %.2f below transient %.2f", last.Detection, first.Detection)
	}
	if _, err := Interplay(coverage.IntAdder, pp); err == nil {
		t.Fatal("interplay accepted a functional unit")
	}
}

func TestFprintInterplayVerdict(t *testing.T) {
	row := func(label string, lo, hi float64) InterplayPoint {
		return InterplayPoint{Label: label, Detection: (lo + hi) / 2, Lo: lo, Hi: hi}
	}
	for _, tc := range []struct {
		name        string
		first, last InterplayPoint
		resolved    bool
	}{
		{"separated upward", row("transient", 0.006, 0.073), row("stuck-at", 0.156, 0.323), true},
		{"overlapping", row("transient", 0.089, 0.230), row("stuck-at", 0.089, 0.230), false},
		{"touching", row("transient", 0.05, 0.10), row("stuck-at", 0.10, 0.20), false},
		{"separated downward", row("transient", 0.30, 0.40), row("stuck-at", 0.05, 0.10), false},
	} {
		var buf bytes.Buffer
		mid := row("intermittent", 0, 1)
		FprintInterplay(&buf, &InterplayResult{Structure: coverage.L1D, Program: "p",
			Points: []InterplayPoint{tc.first, mid, tc.last}})
		out := buf.String()
		claims := strings.Contains(out, "longer-lived faults are easier to detect")
		unresolved := strings.Contains(out, "unresolved")
		if claims != tc.resolved || unresolved == tc.resolved {
			t.Errorf("%s: claim=%v unresolved=%v, want claim=%v:\n%s", tc.name, claims, unresolved, tc.resolved, out)
		}
	}
}

// TestSessionsKeepTheirOwnParams runs two sessions that differ only in
// Seed in one process: each must get the Fig. 10 run and measurements
// of its own Params, never the other session's. The seed-1 session is
// TestFig10SmallRun's, so only the seed-2 run is new here.
func TestSessionsKeepTheirOwnParams(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sA, ppA, ppB := tinySession(), tinyParams(), tinyParams()
	ppB.Seed = 2
	sB := NewSession(ppB)
	cA, err := sA.Fig10(coverage.IntAdder)
	if err != nil {
		t.Fatal(err)
	}
	cB, err := sB.Fig10(coverage.IntAdder)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := sA.Fig10(coverage.IntAdder); again != cA {
		t.Fatal("a session repeated its own Fig. 10 run")
	}
	if cA == cB || bytes.Equal(cA.Best.Encode(), cB.Best.Encode()) {
		t.Fatal("the seed-2 session got the seed-1 session's Fig. 10 run")
	}
	// Bitcount's IRF detection differs between the two seeds, so a
	// measurement served across sessions cannot go unnoticed.
	bitcount := mibench.Bitcount(1)
	sessions := []struct {
		s  *Session
		pp Params
	}{{sA, ppA}, {sB, ppB}}
	for _, tc := range []struct {
		p  *prog.Program
		st coverage.Structure
	}{{cA.Best, coverage.IntAdder}, {cB.Best, coverage.IntAdder}, {bitcount, coverage.IRF}} {
		var got [2]Measurement
		for i, ss := range sessions {
			m, err := ss.s.Measure(tc.p, tc.st)
			if err != nil {
				t.Fatal(err)
			}
			want, err := measure(tc.p, tc.st, ss.pp)
			if err != nil {
				t.Fatal(err)
			}
			if m != want {
				t.Fatalf("seed-%d session measured %s on %v as %+v, its own Params give %+v", ss.pp.Seed, tc.p.Name, tc.st, m, want)
			}
			got[i] = m
		}
		if tc.p == bitcount && got[0] == got[1] {
			t.Fatalf("%s on %v measures the same under both seeds; pick a pair that differs", tc.p.Name, tc.st)
		}
	}
}
