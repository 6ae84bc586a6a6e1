package inject

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"strings"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/obs"
	"harpocrates/internal/uarch"
)

func testProgram(t testing.TB, n int, pool func(cfg *gen.Config)) *Campaign {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = n
	if pool != nil {
		pool(&cfg)
	}
	rng := rand.New(rand.NewPCG(99, 100))
	p := gen.Materialize(gen.NewRandom(&cfg, rng), &cfg)
	return &Campaign{
		Prog: p.Insts,
		Init: p.InitFunc(),
		Cfg:  uarch.DefaultConfig(),
		Seed: 7,
	}
}

func TestTransientIRFCampaign(t *testing.T) {
	c := testProgram(t, 400, nil)
	c.Target = coverage.IRF
	c.Type = Transient
	c.N = 48
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Masked+st.Detected() != st.N {
		t.Fatalf("outcome counts don't sum: %+v", st)
	}
	d := st.Detection()
	if d < 0 || d > 1 {
		t.Fatalf("detection %f out of range", d)
	}
	if st.Masked == 0 {
		t.Fatal("IRF transients with zero masking are implausible (most PRF entries are free)")
	}
	t.Log(st)
}

func TestTransientL1DCampaign(t *testing.T) {
	c := testProgram(t, 400, nil)
	c.Target = coverage.L1D
	c.Type = Transient
	c.N = 48
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Masked == 0 {
		t.Fatal("L1D transients with zero masking are implausible for a short program")
	}
	t.Log(st)
}

func TestPermanentIntAdderCampaign(t *testing.T) {
	c := testProgram(t, 300, nil)
	c.Target = coverage.IntAdder
	c.Type = Permanent
	c.N = 24
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Detected() == 0 {
		t.Fatal("no adder gate fault detected by a random ALU-heavy program")
	}
	t.Log(st)
}

func TestPermanentIntMulCampaign(t *testing.T) {
	c := testProgram(t, 200, nil)
	c.Target = coverage.IntMul
	c.Type = Permanent
	c.N = 12
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 12 {
		t.Fatal("wrong N")
	}
	t.Log(st)
}

func TestPermanentFPAddCampaign(t *testing.T) {
	c := testProgram(t, 300, nil)
	c.Target = coverage.FPAdd
	c.Type = Permanent
	c.N = 16
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(st)
}

func TestIntermittentIRFCampaign(t *testing.T) {
	c := testProgram(t, 300, nil)
	c.Target = coverage.IRF
	c.Type = Intermittent
	c.IntermittentLen = 100
	c.N = 24
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(st)
}

func TestCampaignDeterministic(t *testing.T) {
	run := func() *Stats {
		c := testProgram(t, 300, nil)
		c.Target = coverage.IRF
		c.Type = Transient
		c.N = 24
		c.Workers = 4
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Fatalf("campaigns with identical seeds diverged: %+v vs %+v", a, b)
	}
}

func TestGoldenMatchesNativeForIntUnits(t *testing.T) {
	// The golden config for integer-unit campaigns skips the netlist;
	// this is only sound if the netlist-routed run is bit-identical.
	c := testProgram(t, 300, nil)
	c.Target = coverage.IntAdder
	golden := c.Golden()

	cfg := c.goldenConfig()
	cfg.FU = targets[coverage.IntAdder].hooks(nil)
	viaNetlist := uarch.Run(c.Prog, c.Init(), cfg)
	if golden.Signature != viaNetlist.Signature {
		t.Fatal("fault-free netlist adder diverges from native semantics")
	}
}

func TestDefaultFaultType(t *testing.T) {
	if DefaultFaultType(coverage.IRF) != Transient || DefaultFaultType(coverage.L1D) != Transient {
		t.Fatal("bit arrays must default to transient faults")
	}
	for st := coverage.IntAdder; st <= coverage.FPMul; st++ {
		if DefaultFaultType(st) != Permanent {
			t.Fatal("functional units must default to permanent faults")
		}
	}
	for st := coverage.Decoder; st < coverage.NumStructures; st++ {
		if DefaultFaultType(st) != Transient {
			t.Fatalf("microarchitectural site %v must default to transient faults", st)
		}
	}
}

func TestCampaignRejectsZeroN(t *testing.T) {
	c := testProgram(t, 50, nil)
	c.N = 0
	if _, err := c.Run(); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestCampaignObservability(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	c := testProgram(t, 400, nil)
	c.Target = coverage.IRF
	c.Type = Transient
	c.N = 48
	c.Obs = obs.New(reg, obs.NewTracer(&buf))
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Outcome counters must agree with the returned stats.
	load := func(name string) int64 { return reg.Counter(name).Load() }
	if load("inject.outcome.masked") != int64(st.Masked) ||
		load("inject.outcome.sdc") != int64(st.SDC) ||
		load("inject.outcome.crash") != int64(st.Crash) ||
		load("inject.outcome.hang") != int64(st.Hang) {
		t.Fatalf("outcome counters disagree with stats %+v", st)
	}
	// Every injection is either pre-classified or simulated, and every
	// simulated one either resumed from a checkpoint or restarted.
	pre, sim := load("inject.premasked"), load("inject.simulated")
	if pre+sim != int64(st.N) {
		t.Fatalf("premasked %d + simulated %d != N %d", pre, sim, st.N)
	}
	if pre == 0 {
		t.Fatal("transient IRF campaign pre-classified nothing (recorder broken?)")
	}
	if got := load("inject.resume.checkpoint") + load("inject.resume.reset"); got != sim {
		t.Fatalf("resume counters %d != simulated %d", got, sim)
	}

	// The trace must parse and carry exactly one campaign span pair.
	type rec struct {
		Ev   string `json:"ev"`
		Name string `json:"name"`
	}
	begins, ends := 0, 0
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("trace line %d unparseable: %v\n%s", i, err, line)
		}
		if r.Name == "campaign" {
			switch r.Ev {
			case "begin":
				begins++
			case "end":
				ends++
			}
		}
	}
	if begins != 1 || ends != 1 {
		t.Fatalf("campaign spans: %d begins, %d ends (want 1/1)", begins, ends)
	}

	// Observation must not change the statistics.
	plain := testProgram(t, 400, nil)
	plain.Target = coverage.IRF
	plain.Type = Transient
	plain.N = 48
	pst, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !pst.Equal(st) {
		t.Fatalf("observation changed campaign statistics: %+v vs %+v", pst, st)
	}
}

func TestRunRangeMergeBitIdentical(t *testing.T) {
	c := testProgram(t, 400, nil)
	c.Target = coverage.IRF
	c.Type = Transient
	c.N = 48
	whole, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Any contiguous partition of [0, N) merged in shard order must be
	// bit-identical to the single-process run — this is the property the
	// distributed coordinator relies on.
	for _, cuts := range [][]int{{0, 48}, {0, 17, 48}, {0, 1, 2, 48}, {0, 16, 32, 48}} {
		var parts []*Stats
		for i := 0; i+1 < len(cuts); i++ {
			st, err := c.RunRange(cuts[i], cuts[i+1])
			if err != nil {
				t.Fatalf("RunRange(%d, %d): %v", cuts[i], cuts[i+1], err)
			}
			if st.N != cuts[i+1]-cuts[i] {
				t.Fatalf("shard N = %d, want %d", st.N, cuts[i+1]-cuts[i])
			}
			parts = append(parts, st)
		}
		merged, err := MergeStats(parts)
		if err != nil {
			t.Fatal(err)
		}
		if !merged.Equal(whole) {
			t.Fatalf("cuts %v: merged %+v != whole %+v", cuts, merged, whole)
		}
	}
}

func TestRunRangeBounds(t *testing.T) {
	c := testProgram(t, 100, nil)
	c.Target = coverage.IRF
	c.Type = Transient
	c.N = 8
	for _, bad := range [][2]int{{-1, 4}, {0, 9}, {4, 4}, {5, 3}} {
		if _, err := c.RunRange(bad[0], bad[1]); err == nil {
			t.Fatalf("RunRange(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

func TestMergeStatsRejectsDivergence(t *testing.T) {
	if _, err := MergeStats(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := MergeStats([]*Stats{{N: 1}, nil}); err == nil {
		t.Fatal("nil part accepted")
	}
	a := &Stats{N: 1, Masked: 1, GoldenCycles: 10, Outcomes: []Outcome{Masked}}
	b := &Stats{N: 1, Masked: 1, GoldenCycles: 11, Outcomes: []Outcome{Masked}}
	if _, err := MergeStats([]*Stats{a, b}); err == nil {
		t.Fatal("diverging golden runs accepted")
	}
}

func TestParseFaultType(t *testing.T) {
	for name, want := range map[string]FaultType{
		"transient": Transient, "intermittent": Intermittent, "permanent": Permanent,
		"Transient": Transient, "PERMANENT": Permanent, " Intermittent ": Intermittent,
	} {
		got, err := ParseFaultType(name)
		if err != nil || got != want {
			t.Fatalf("ParseFaultType(%q) = %v, %v", name, got, err)
		}
	}
	_, err := ParseFaultType("cosmic")
	if err == nil {
		t.Fatal("bad fault type accepted")
	}
	for _, ft := range []FaultType{Transient, Intermittent, Permanent} {
		if !strings.Contains(err.Error(), ft.String()) {
			t.Fatalf("error %q does not list valid name %q", err, ft)
		}
	}
}
