package uarch

import (
	"math/rand/v2"
	"testing"

	"harpocrates/internal/isa"
)

// resultsIdentical compares every observable field of two results — cycle
// counts, signature, coverage snapshot, IBR, branch/cache/flush stats and
// the ACE interval logs — the bit-identity oracle of the naive-vs-skip
// differential tests.
func resultsIdentical(t testing.TB, label string, a, b *Result) {
	t.Helper()
	if a.Snapshot != b.Snapshot {
		t.Errorf("%s: snapshot diverged:\n naive %+v\n skip  %+v", label, a.Snapshot, b.Snapshot)
	}
	if a.Signature != b.Signature {
		t.Errorf("%s: signature diverged: %#x vs %#x", label, a.Signature, b.Signature)
	}
	if a.TimedOut != b.TimedOut {
		t.Errorf("%s: TimedOut diverged: %v vs %v", label, a.TimedOut, b.TimedOut)
	}
	switch {
	case (a.Crash == nil) != (b.Crash == nil):
		t.Errorf("%s: crash diverged: %v vs %v", label, a.Crash, b.Crash)
	case a.Crash != nil && *a.Crash != *b.Crash:
		t.Errorf("%s: crash diverged: %v vs %v", label, a.Crash, b.Crash)
	}
	if a.Branches != b.Branches || a.Mispredicts != b.Mispredicts || a.Flushes != b.Flushes {
		t.Errorf("%s: branch stats diverged: %d/%d/%d vs %d/%d/%d", label,
			a.Branches, a.Mispredicts, a.Flushes, b.Branches, b.Mispredicts, b.Flushes)
	}
	if a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses || a.Writebacks != b.Writebacks {
		t.Errorf("%s: cache stats diverged: %d/%d/%d vs %d/%d/%d", label,
			a.CacheHits, a.CacheMisses, a.Writebacks, b.CacheHits, b.CacheMisses, b.Writebacks)
	}
	if a.L2Hits != b.L2Hits || a.L2Misses != b.L2Misses || a.Prefetches != b.Prefetches {
		t.Errorf("%s: L2 stats diverged: %d/%d/%d vs %d/%d/%d", label,
			a.L2Hits, a.L2Misses, a.Prefetches, b.L2Hits, b.L2Misses, b.Prefetches)
	}
	if !a.IRFIntervals.Equal(b.IRFIntervals) {
		t.Errorf("%s: IRF interval log diverged", label)
	}
	if !a.FPRFIntervals.Equal(b.FPRFIntervals) {
		t.Errorf("%s: FPRF interval log diverged", label)
	}
	if !a.L1DIntervals.Equal(b.L1DIntervals) {
		t.Errorf("%s: L1D interval log diverged", label)
	}
}

// addMemVariant finds add r64, m64 — the fused load-ALU instruction the
// miss-heavy chain programs serialize on.
func addMemVariant(t testing.TB) isa.VariantID {
	t.Helper()
	for _, id := range isa.ByOp(isa.OpADD) {
		v := isa.Lookup(id)
		if v.Width == isa.W64 && len(v.Ops) == 2 &&
			v.Ops[0].Kind == isa.KReg && v.Ops[1].Kind == isa.KMem {
			return id
		}
	}
	t.Fatal("no add r64, m64 variant")
	return 0
}

// missChainProgram builds n copies of add rax, [rsi+disp] with the
// displacement striding whole cache lines across the data region. Every
// instruction depends on the previous one through RAX, so execution is a
// serial chain of load-use latencies — under a small L1D almost every
// link is a miss, and almost every cycle of the run is a stall the
// event-driven loop can skip.
func missChainProgram(t testing.TB, n int) []isa.Inst {
	id := addMemVariant(t)
	prog := make([]isa.Inst, 0, n)
	for i := 0; i < n; i++ {
		disp := int32((i * 64 * 7) % (dataSize - 64))
		disp &^= 15
		in := isa.Inst{V: id, NOps: 2}
		in.Ops[0] = isa.RegOp(isa.RAX)
		in.Ops[1] = isa.MemOp(isa.RSI, disp)
		prog = append(prog, in)
	}
	return prog
}

// smallL1Config returns the default core with the L1D shrunk to 1 KB so
// the 32 KB test data region thrashes it (L2 disabled: every miss pays
// the full MissLatency).
func smallL1Config() Config {
	cfg := DefaultConfig()
	cfg.L1D.SizeBytes = 1024
	cfg.L1D.Ways = 2
	cfg.L2 = CacheConfig{}
	cfg.EnablePrefetch = false
	return cfg
}

// runDifferential executes prog under cfg twice — reference naive loop vs
// event-driven skipping — and requires bit-identical results. It returns
// the skipping run's skipped-cycle count.
func runDifferential(t *testing.T, label string, prog []isa.Inst, seed uint64, cfg Config) uint64 {
	t.Helper()
	naiveCfg := cfg
	naiveCfg.NoCycleSkip = true
	naive := NewCore(prog, newInitState(t, seed), naiveCfg)
	rn := naive.Run()
	if naive.SkippedCycles() != 0 {
		t.Fatalf("%s: naive loop skipped %d cycles", label, naive.SkippedCycles())
	}

	skip := NewCore(prog, newInitState(t, seed), cfg)
	rs := skip.Run()
	resultsIdentical(t, label, rn, rs)
	return skip.SkippedCycles()
}

func fullTracking(cfg Config) Config {
	cfg.TrackIRF = true
	cfg.TrackFPRF = true
	cfg.TrackL1D = true
	cfg.TrackIBR = true
	cfg.RecordIRFIntervals = true
	cfg.RecordFPRFIntervals = true
	cfg.RecordL1DIntervals = true
	return cfg
}

// TestSkipDifferentialRandomPrograms is the correctness backbone of the
// event-driven run loop: for random programs with full coverage
// instrumentation, the skipping loop must reproduce the naive loop
// bit-for-bit — fault-free and under scheduled transient flips and
// intermittent stuck-at windows on each bit array.
func TestSkipDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewPCG(7001, 7002))
	for trial := 0; trial < 8; trial++ {
		seed := rng.Uint64()
		prog := randomProgram(rng, 60+rng.IntN(120), false)
		cfg := fullTracking(DefaultConfig())

		// Fault-free baseline, and the golden cycle count that places the
		// faults below inside the run.
		base := NewCore(prog, newInitState(t, seed), cfg)
		cycles := base.Run().Cycles
		runDifferential(t, "fault-free", prog, seed, cfg)
		if cycles < 9 {
			continue
		}

		reg := rng.IntN(cfg.IntPRF)
		bit := rng.IntN(64)
		fpreg := rng.IntN(cfg.FPPRF)
		fpbit := rng.IntN(128)
		cbit := rng.IntN(cfg.L1D.SizeBytes * 8)
		at := 1 + rng.Uint64N(cycles)
		wstart := 1 + rng.Uint64N(cycles)
		wend := wstart + 1 + rng.Uint64N(64)
		val := rng.IntN(2) == 1

		cases := []struct {
			name string
			ev   CycleEvent
		}{
			{"irf-transient", CycleEvent{Start: at,
				Fire: func(c *Core, _ uint64) { c.FlipIntPRFBit(reg, bit) }}},
			{"fprf-transient", CycleEvent{Start: at,
				Fire: func(c *Core, _ uint64) { c.FlipFPPRFBit(fpreg, fpbit) }}},
			{"l1d-transient", CycleEvent{Start: at,
				Fire: func(c *Core, _ uint64) { c.FlipCacheBit(cbit) }}},
			{"irf-intermittent", CycleEvent{Start: wstart, End: wend,
				Fire: func(c *Core, _ uint64) { c.ForceIntPRFBit(reg, bit, val) }}},
			{"fprf-intermittent", CycleEvent{Start: wstart, End: wend,
				Fire: func(c *Core, _ uint64) { c.ForceFPPRFBit(fpreg, fpbit, val) }}},
			{"l1d-intermittent", CycleEvent{Start: wstart, End: wend,
				Fire: func(c *Core, _ uint64) { c.ForceCacheBit(cbit, val) }}},
		}
		for _, tc := range cases {
			fcfg := cfg
			fcfg.Events = []CycleEvent{tc.ev}
			fcfg.MaxCycles = cycles*4 + 100_000
			runDifferential(t, tc.name, prog, seed, fcfg)
		}
	}
}

// TestSkipDifferentialMissChain checks the case skipping exists for: a
// serialized miss chain where nearly every cycle is a stall. The skip
// loop must jump most of the run and still match the naive loop exactly.
func TestSkipDifferentialMissChain(t *testing.T) {
	prog := missChainProgram(t, 200)
	cfg := fullTracking(smallL1Config())
	skipped := runDifferential(t, "miss-chain", prog, 41, cfg)
	// The deterministic form of "the event-driven loop is worth having
	// here": at least half of the run's cycles are never stepped.
	cycles := Run(prog, newInitState(t, 41), cfg).Cycles
	if 2*skipped < cycles {
		t.Fatalf("miss chain run skipped %d of %d cycles, want at least half", skipped, cycles)
	}
}

// TestSkipDifferentialL2Prefetch exercises fill timing through the full
// hierarchy — L1 miss, L2 hit/miss, next-line prefetches — under
// skipping: a jump must never land past a fill-ready cycle, or hit/miss
// counts and latencies would shift.
func TestSkipDifferentialL2Prefetch(t *testing.T) {
	prog := missChainProgram(t, 300)
	cfg := fullTracking(DefaultConfig())
	cfg.L1D.SizeBytes = 1024
	cfg.L1D.Ways = 2
	// Default config keeps the 256 KB L2 and the next-line prefetcher.
	skipped := runDifferential(t, "l2-prefetch", prog, 43, cfg)
	if skipped == 0 {
		t.Fatal("L2 miss chain skipped no cycles")
	}
	r := Run(prog, newInitState(t, 43), cfg)
	if r.L2Hits == 0 || r.Prefetches == 0 {
		t.Fatalf("workload does not exercise the L2 (hits=%d prefetches=%d)", r.L2Hits, r.Prefetches)
	}
}

// TestOnCycleForcesNaive: an opaque OnCycle hook must disable skipping
// entirely — the hook observes every cycle number contiguously and the
// core reports zero skipped cycles.
func TestOnCycleForcesNaive(t *testing.T) {
	prog := missChainProgram(t, 50)
	cfg := smallL1Config()
	var seen []uint64
	cfg.OnCycle = func(_ *Core, cyc uint64) { seen = append(seen, cyc) }
	c := NewCore(prog, newInitState(t, 45), cfg)
	r := c.Run()
	if c.SkippedCycles() != 0 {
		t.Fatalf("OnCycle run skipped %d cycles", c.SkippedCycles())
	}
	if uint64(len(seen)) != r.Cycles {
		t.Fatalf("OnCycle fired %d times over %d cycles", len(seen), r.Cycles)
	}
	for i, cyc := range seen {
		if cyc != uint64(i) {
			t.Fatalf("OnCycle cycle %d observed as %d: not contiguous", i, cyc)
		}
	}
}

// TestWatchdogBoundary pins the documented MaxCycles semantics: a run
// simulates cycles 0..MaxCycles-1 and times out with Result.Cycles ==
// MaxCycles — exactly, under both loops, and when resuming from a
// checkpoint.
func TestWatchdogBoundary(t *testing.T) {
	prog := missChainProgram(t, 100)
	cfg := smallL1Config()
	seed := uint64(47)

	natural := Run(prog, newInitState(t, seed), cfg)
	if !natural.Clean() {
		t.Fatalf("baseline run not clean: %v %v", natural.Crash, natural.TimedOut)
	}

	for _, noSkip := range []bool{false, true} {
		cut := cfg
		cut.NoCycleSkip = noSkip
		cut.MaxCycles = natural.Cycles - 1
		r := Run(prog, newInitState(t, seed), cut)
		if !r.TimedOut || r.Cycles != cut.MaxCycles {
			t.Fatalf("noSkip=%v: MaxCycles=%d gave TimedOut=%v Cycles=%d; want timeout at exactly MaxCycles",
				noSkip, cut.MaxCycles, r.TimedOut, r.Cycles)
		}
		// At exactly the natural length the run finishes: the termination
		// check precedes the watchdog.
		exact := cfg
		exact.NoCycleSkip = noSkip
		exact.MaxCycles = natural.Cycles
		r = Run(prog, newInitState(t, seed), exact)
		if r.TimedOut || r.Cycles != natural.Cycles {
			t.Fatalf("noSkip=%v: MaxCycles==natural(%d) gave TimedOut=%v Cycles=%d",
				noSkip, natural.Cycles, r.TimedOut, r.Cycles)
		}
	}
}

// TestWatchdogBoundaryCheckpointResume: the >= watchdog semantics must
// survive checkpointed fast-forward — a run resumed mid-flight still
// times out at exactly the overridden MaxCycles, under both loops.
func TestWatchdogBoundaryCheckpointResume(t *testing.T) {
	prog := missChainProgram(t, 100)
	cfg := smallL1Config()
	seed := uint64(49)

	natural := Run(prog, newInitState(t, seed), cfg)
	ckAt := natural.Cycles / 2
	var ck *Checkpoint
	capCfg := cfg
	capCfg.OnCycle = func(core *Core, cyc uint64) {
		if cyc == ckAt && ck == nil {
			ck = core.Checkpoint()
		}
	}
	Run(prog, newInitState(t, seed), capCfg)
	if ck == nil {
		t.Fatalf("no checkpoint captured at cycle %d", ckAt)
	}

	for _, noSkip := range []bool{false, true} {
		over := Config{MaxCycles: natural.Cycles - 1, NoCycleSkip: noSkip}
		r := RunFromCheckpoint(ck, over)
		if !r.TimedOut || r.Cycles != over.MaxCycles {
			t.Fatalf("noSkip=%v: resumed run gave TimedOut=%v Cycles=%d; want timeout at %d",
				noSkip, r.TimedOut, r.Cycles, over.MaxCycles)
		}
		full := Config{MaxCycles: natural.Cycles, NoCycleSkip: noSkip}
		r = RunFromCheckpoint(ck, full)
		if r.TimedOut || r.Cycles != natural.Cycles || r.Signature != natural.Signature {
			t.Fatalf("noSkip=%v: resumed full run gave TimedOut=%v Cycles=%d sig=%#x; want clean %d/%#x",
				noSkip, r.TimedOut, r.Cycles, r.Signature, natural.Cycles, natural.Signature)
		}
	}
}

// TestSkipDifferentialCheckpointResume: events and skipping must compose
// with checkpoint restore — a faulty run resumed from mid-flight state is
// bit-identical between the two loops.
func TestSkipDifferentialCheckpointResume(t *testing.T) {
	rng := rand.New(rand.NewPCG(9101, 9102))
	prog := randomProgram(rng, 150, false)
	seed := uint64(51)
	cfg := fullTracking(DefaultConfig())

	natural := NewCore(prog, newInitState(t, seed), cfg).Run()
	if natural.Cycles < 16 {
		t.Skip("program too short")
	}
	ckAt := natural.Cycles / 3
	var ck *Checkpoint
	capCfg := cfg
	capCfg.OnCycle = func(core *Core, cyc uint64) {
		if cyc == ckAt && ck == nil {
			ck = core.Checkpoint()
		}
	}
	NewCore(prog, newInitState(t, seed), capCfg).Run()
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}

	reg, bit := rng.IntN(DefaultConfig().IntPRF), rng.IntN(64)
	at := ckAt + 1 + rng.Uint64N(natural.Cycles-ckAt)
	ev := []CycleEvent{{Start: at, Fire: func(c *Core, _ uint64) { c.FlipIntPRFBit(reg, bit) }}}

	run := func(noSkip bool) (*Result, uint64) {
		c := getPooledCore()
		defer putPooledCore(c)
		c.RestoreFrom(ck, Config{Events: ev, NoCycleSkip: noSkip,
			MaxCycles: natural.Cycles*4 + 100_000})
		return c.Run(), c.SkippedCycles()
	}
	rn, sn := run(true)
	rs, _ := run(false)
	if sn != 0 {
		t.Fatalf("naive resumed run skipped %d cycles", sn)
	}
	resultsIdentical(t, "checkpoint-resume", rn, rs)
}

// BenchmarkCoreRun measures the run loop on the miss-heavy serial chain —
// the workload class the event-driven loop targets — after checking that
// the two loops it compares produce the same result.
func BenchmarkCoreRun(b *testing.B) {
	prog := missChainProgram(b, 500)
	naiveCfg := smallL1Config()
	naiveCfg.NoCycleSkip = true
	resultsIdentical(b, "miss-chain",
		Run(prog, newInitState(b, 53), naiveCfg), Run(prog, newInitState(b, 53), smallL1Config()))
	if b.Failed() {
		b.FailNow()
	}
	for _, bench := range []struct {
		name   string
		noSkip bool
	}{{"naive", true}, {"skip", false}} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := smallL1Config()
			cfg.NoCycleSkip = bench.noSkip
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := Run(prog, newInitState(b, 53), cfg)
				if !r.Clean() {
					b.Fatal("run not clean")
				}
			}
		})
	}
}
