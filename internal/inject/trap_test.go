package inject

import (
	"strconv"
	"strings"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
	"harpocrates/internal/uarch"
)

// TestClassifyTrapPerException: every architectural exception kind a
// fault can raise must classify as Trap — never Crash (the trap IS the
// detection channel) and never SDC (the signature never gets compared
// on a crashed run).
func TestClassifyTrapPerException(t *testing.T) {
	golden := &uarch.Result{Signature: 0xfeed}
	for exc := isa.ExcDivide; exc <= isa.ExcAlignment; exc++ {
		res := &uarch.Result{
			Crash:     &arch.CrashError{Kind: arch.CrashDivide, Exc: exc},
			Trap:      exc,
			Signature: 0xdead, // divergent on purpose: Trap must win over SDC
		}
		if got := classify(res, golden); got != Trap {
			t.Fatalf("exception %v classified %v; want Trap", exc, got)
		}
	}
}

// TestClassifyPrecedence pins the documented outcome precedence:
// Reconverged > TimedOut > Crash(Trap/Crash) > signature > Masked.
func TestClassifyPrecedence(t *testing.T) {
	golden := &uarch.Result{Signature: 0xfeed}
	cases := []struct {
		name string
		res  *uarch.Result
		want Outcome
	}{
		{"reconverged", &uarch.Result{Reconverged: true}, Masked},
		// A timed-out run has a garbage (partial) signature; a divergent
		// signature must NOT turn the hang into an SDC.
		{"timeout-divergent-signature",
			&uarch.Result{TimedOut: true, Signature: 0xdead}, Hang},
		{"timeout-matching-signature",
			&uarch.Result{TimedOut: true, Signature: 0xfeed}, Hang},
		// A crash without trap semantics (wild branch) stays Crash.
		{"crash-no-trap",
			&uarch.Result{Crash: &arch.CrashError{Kind: arch.CrashBadBranch}}, Crash},
		{"sdc", &uarch.Result{Signature: 0xdead}, SDC},
		{"masked", &uarch.Result{Signature: 0xfeed}, Masked},
	}
	for _, tc := range cases {
		if got := classify(tc.res, golden); got != tc.want {
			t.Fatalf("%s: classified %v; want %v", tc.name, got, tc.want)
		}
	}
}

// TestGoldenNotCleanRefused: a campaign whose fault-free run crashes or
// hangs has no valid reference to grade against — RunRange must hard-
// error instead of silently producing garbage statistics.
func TestGoldenNotCleanRefused(t *testing.T) {
	// Golden crash: the loop's back-branch retargeted off the program.
	crash := loopCampaign(t, 300)
	crash.Prog[2].Ops[0] = isa.ImmOp(-100)
	crash.N = 4
	if _, err := crash.Run(); err == nil {
		t.Fatal("campaign with crashing golden run accepted")
	} else if !strings.Contains(err.Error(), "refusing to classify") {
		t.Fatalf("crashing golden error does not refuse classification: %v", err)
	}

	// Golden hang: the loop is longer than the cycle budget.
	hang := loopCampaign(t, 1_000_000)
	hang.Cfg.MaxCycles = 2000
	hang.N = 4
	if _, err := hang.Run(); err == nil {
		t.Fatal("campaign with timed-out golden run accepted")
	} else if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("hanging golden error does not name the timeout: %v", err)
	}
}

// TestDecoderCampaignTrap drives the new decoder target end to end: a
// campaign of fetch-path bit flips over a random program must surface
// the Trap outcome (undecodable bytes alone guarantee #UD events), keep
// the outcome counts summing to N, and count traps as detections.
func TestDecoderCampaignTrap(t *testing.T) {
	c := testProgram(t, 350, nil)
	c.Target = coverage.Decoder
	c.Type = Transient
	c.N = 64
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Masked+st.SDC+st.Crash+st.Hang+st.Trap != st.N {
		t.Fatalf("outcome counts don't sum: %+v", st)
	}
	if st.Trap == 0 {
		t.Fatalf("no trap among %d decoder flips: %+v", st.N, st)
	}
	if det := len(st.DetectedSet()); det != st.Detected() {
		t.Fatalf("DetectedSet has %d entries, Detected() = %d", det, st.Detected())
	}
	t.Log(st)
}

// TestNewSitesDifferential is the soundness gate for the post-paper
// fault sites: for each new target, campaign statistics must be
// bit-identical with and without each of the three acceleration paths
// (event-driven cycle skipping, checkpointed fast-forward, delta-
// resimulation termination). A divergence means an acceleration path
// mis-simulates the fault.
func TestNewSitesDifferential(t *testing.T) {
	targets := []struct {
		target coverage.Structure
		n      int
	}{
		{coverage.Decoder, 32},
		{coverage.LSQ, 32},
	}
	knobs := []struct {
		name string
		set  func(c *Campaign)
	}{
		{"NoCycleSkip", func(c *Campaign) { c.Cfg.NoCycleSkip = true }},
		{"NoFastForward", func(c *Campaign) { c.NoFastForward = true }},
		{"NoDeltaTermination", func(c *Campaign) { c.NoDeltaTermination = true }},
	}
	for _, tc := range targets {
		tc := tc
		t.Run(tc.target.String(), func(t *testing.T) {
			t.Parallel()
			run := func(set func(c *Campaign)) *Stats {
				c := testProgram(t, 350, nil)
				c.Target = tc.target
				c.Type = Transient
				c.N = tc.n
				c.Seed = 13
				if set != nil {
					set(c)
				}
				st, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			base := run(nil)
			for _, k := range knobs {
				if got := run(k.set); !got.Equal(base) {
					t.Fatalf("%s changed campaign statistics:\nbase: %+v\nknob: %+v",
						k.name, base, got)
				}
			}
		})
	}
}

// TestBurstDifferential pins the multi-bit-upset semantics: BurstLen<=1
// is bit-identical to the pre-burst campaigns (the parameter consumes no
// RNG draws), and a BurstLen=3 campaign is itself bit-identical across
// all three acceleration paths.
func TestBurstDifferential(t *testing.T) {
	run := func(burst int, set func(c *Campaign)) *Stats {
		c := testProgram(t, 350, nil)
		c.Target = coverage.IRF
		c.Type = Transient
		c.N = 32
		c.Seed = 17
		c.BurstLen = burst
		if set != nil {
			set(c)
		}
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	zero, one := run(0, nil), run(1, nil)
	if !zero.Equal(one) {
		t.Fatalf("BurstLen=1 diverges from the single-bit default:\n0: %+v\n1: %+v", zero, one)
	}
	base := run(3, nil)
	for _, k := range []struct {
		name string
		set  func(c *Campaign)
	}{
		{"NoCycleSkip", func(c *Campaign) { c.Cfg.NoCycleSkip = true }},
		{"NoFastForward", func(c *Campaign) { c.NoFastForward = true }},
		{"NoDeltaTermination", func(c *Campaign) { c.NoDeltaTermination = true }},
	} {
		if got := run(3, k.set); !got.Equal(base) {
			t.Fatalf("BurstLen=3 %s changed statistics:\nbase: %+v\nknob: %+v", k.name, base, got)
		}
	}
}

// TestNewSitesRejectNonTransient: over every structure x fault type x
// burst length in {-1, 0, 1, entry width, width+1}, exactly the fault
// models deriveSpec and cfgFor implement run; the rest — a transient
// functional-unit fault (it ran as the permanent one), a permanent
// bit-array fault (it ran as the windowed one), anything but single
// upsets on the microarchitectural sites, a burst that is negative,
// wider than its entry or aimed at a site without a burst model, any
// model of a structure that is not a fault target — is refused by name
// instead of running as something else.
func TestNewSitesRejectNonTransient(t *testing.T) {
	line := uarch.DefaultConfig().L1D.LineBytes * 8
	widths := map[coverage.Structure]int{coverage.IRF: 64, coverage.FPRF: 128, coverage.L1D: line}
	for target := coverage.Structure(0); target < coverage.NumStructures; target++ {
		width := max(widths[target], 1)
		for _, typ := range []FaultType{Transient, Intermittent, Permanent} {
			var modelled bool
			switch {
			case len(targets[target].models.types) == 0:
				modelled = false
			case target.IsFunctionalUnit():
				modelled = typ != Transient
			case widths[target] != 0:
				modelled = typ != Permanent
			default:
				modelled = typ == Transient
			}
			for _, burst := range []int{-1, 0, 1, width, width + 1} {
				c := testProgram(t, 60, nil)
				c.Target, c.Type, c.BurstLen, c.N = target, typ, burst, 2
				c.IntermittentLen = 8
				_, err := c.Run()
				if want := modelled && burst >= 0 && burst <= width; want {
					if err != nil {
						t.Errorf("%v/%v burst %d refused: %v", target, typ, burst, err)
					}
					continue
				}
				if err == nil {
					t.Errorf("%v/%v burst %d ran", target, typ, burst)
					continue
				}
				named := []string{target.String(), typ.String()}
				if modelled {
					named = []string{target.String(), "burst", strconv.Itoa(burst)}
				}
				for _, n := range named {
					if !strings.Contains(err.Error(), n) {
						t.Errorf("%v/%v burst %d: refusal does not name %q: %v", target, typ, burst, n, err)
					}
				}
			}
		}
	}
}

// TestStatsStringIncludesTrap: the human-readable summary must surface
// the trap channel (the dist smoke test diffs these lines).
func TestStatsStringIncludesTrap(t *testing.T) {
	st := &Stats{N: 5, Masked: 1, SDC: 1, Crash: 1, Hang: 1, Trap: 1}
	if s := st.String(); !strings.Contains(s, "trap") {
		t.Fatalf("Stats.String() omits traps: %q", s)
	}
}

// TestCampaignRefusesUnbuildableCore: a campaign on a core the simulator
// cannot build is refused by Validate with the offending field named,
// instead of panicking mid-run.
func TestCampaignRefusesUnbuildableCore(t *testing.T) {
	c := testProgram(t, 60, nil)
	c.Target, c.Type, c.N = coverage.IRF, Transient, 2
	c.Cfg.IntPRF = 0
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "IntPRF") {
		t.Fatalf("IntPRF = 0 campaign: %v; want a refusal naming IntPRF", err)
	}
}
