package uarch

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"

	"harpocrates/internal/coverage"
)

// resultsEqual compares every scalar field of two results (the interval
// recorder pointers are per-run instrumentation and excluded).
func resultsEqual(a, b *Result) bool {
	return a.Signature == b.Signature &&
		a.TimedOut == b.TimedOut &&
		(a.Crash == nil) == (b.Crash == nil) &&
		a.Cycles == b.Cycles &&
		a.Instructions == b.Instructions &&
		a.Branches == b.Branches &&
		a.Mispredicts == b.Mispredicts &&
		a.CacheHits == b.CacheHits &&
		a.CacheMisses == b.CacheMisses &&
		a.Writebacks == b.Writebacks &&
		a.L2Hits == b.L2Hits &&
		a.L2Misses == b.L2Misses &&
		a.Prefetches == b.Prefetches &&
		a.IRFVuln == b.IRFVuln &&
		a.L1DVuln == b.L1DVuln &&
		a.FPRFVuln == b.FPRFVuln &&
		a.IBR == b.IBR &&
		a.UnitUses == b.UnitUses
}

// withoutCoverage returns r with its coverage cleared: what a run resumed
// from a checkpoint reports, since a checkpoint carries no coverage state.
func withoutCoverage(r *Result) *Result {
	c := *r
	c.Snapshot = coverage.Snapshot{Cycles: r.Cycles, Instructions: r.Instructions}
	return &c
}

// TestCheckpointResumeBitIdentical runs a tracked program once, then again
// taking checkpoints mid-run, resumes from each checkpoint, and requires
// every observable result field but coverage — signature, cycle and
// instruction counts, cache/predictor statistics — to be bit-identical to
// the straight-through run. Taking the checkpoints must not move the
// coverage; a resumed run reports none.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	prog := randomProgram(rng, 400, false)
	cfg := DefaultConfig()
	cfg.TrackIRF = true
	cfg.TrackL1D = true
	cfg.TrackFPRF = true
	cfg.TrackIBR = true

	ref := Run(prog, newInitState(t, 3), cfg)
	if ref.Crash != nil || ref.TimedOut {
		t.Fatalf("reference run not clean: %v timedOut=%v", ref.Crash, ref.TimedOut)
	}
	if ref.Cycles < 40 {
		t.Fatalf("program too short for checkpointing: %d cycles", ref.Cycles)
	}

	ckCfg := cfg
	var cks []*Checkpoint
	interval := ref.Cycles / 5
	ckCfg.OnCycle = func(c *Core, cyc uint64) {
		if cyc > 0 && cyc%interval == 0 {
			cks = append(cks, c.Checkpoint())
		}
	}
	instrumented := Run(prog, newInitState(t, 3), ckCfg)
	if !resultsEqual(ref, instrumented) {
		t.Fatalf("taking checkpoints perturbed the run:\nref:  %+v\ninst: %+v", ref.Snapshot, instrumented.Snapshot)
	}
	if len(cks) < 3 {
		t.Fatalf("expected >=3 checkpoints, got %d", len(cks))
	}

	for i, ck := range cks {
		if ck.Cycle() != uint64(i+1)*interval {
			t.Fatalf("checkpoint %d at cycle %d, want %d", i, ck.Cycle(), uint64(i+1)*interval)
		}
		resumeCfg := cfg
		resumeCfg.OnCycle = nil
		got := RunFromCheckpoint(ck, resumeCfg)
		if !resultsEqual(withoutCoverage(ref), got) {
			t.Errorf("resume from checkpoint %d (cycle %d) diverged:\nref: sig=%#x cyc=%d instr=%d vuln=%v/%v/%v\ngot: sig=%#x cyc=%d instr=%d vuln=%v/%v/%v",
				i, ck.Cycle(),
				ref.Signature, ref.Cycles, ref.Instructions, ref.IRFVuln, ref.L1DVuln, ref.FPRFVuln,
				got.Signature, got.Cycles, got.Instructions, got.IRFVuln, got.L1DVuln, got.FPRFVuln)
		}
	}

	// A checkpoint stays reusable: a second restore from the same
	// snapshot must agree with the first.
	again := RunFromCheckpoint(cks[0], cfg)
	if !resultsEqual(withoutCoverage(ref), again) {
		t.Fatal("second restore from the same checkpoint diverged")
	}

	// A core that ran tracked keeps none of its coverage state through a
	// restore (HXGA encodes the IBR counters of a restored core).
	c := NewCore(prog, newInitState(t, 3), cfg)
	c.Run()
	c.RestoreFrom(cks[0], cfg)
	if c.ibrC != ([coverage.NumStructures]coverage.IBRCounter{}) || c.recIRF != nil || c.cache.rec != nil {
		t.Fatal("a restored core kept the coverage state of its previous run")
	}
}

// TestCheckpointResumeWithInjection checks the fast-forward contract the
// injector relies on: a flip applied at cycle T >= ck.Cycle() through a
// resumed run gives the same outcome as applying it to a run from cycle
// 0 — including a flip at exactly the checkpoint cycle (OnCycle re-fires
// for the re-entered cycle).
func TestCheckpointResumeWithInjection(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	prog := randomProgram(rng, 300, false)
	cfg := DefaultConfig()

	ref := Run(prog, newInitState(t, 5), cfg)
	if ref.Crash != nil || ref.TimedOut {
		t.Fatalf("reference run not clean: %v", ref.Crash)
	}

	ckCfg := cfg
	var ck *Checkpoint
	ckCycle := ref.Cycles / 2
	ckCfg.OnCycle = func(c *Core, cyc uint64) {
		if cyc == ckCycle && ck == nil {
			ck = c.Checkpoint()
		}
	}
	Run(prog, newInitState(t, 5), ckCfg)
	if ck == nil {
		t.Fatal("no checkpoint taken")
	}

	for _, flipCycle := range []uint64{ckCycle, ckCycle + 1, ckCycle + ref.Cycles/4} {
		for reg := 0; reg < 16; reg += 5 {
			for _, bit := range []int{0, 17, 63} {
				inj := cfg
				fc, fr, fb := flipCycle, reg, bit
				inj.OnCycle = func(c *Core, cyc uint64) {
					if cyc == fc {
						c.FlipIntPRFBit(fr, fb)
					}
				}
				full := Run(prog, newInitState(t, 5), inj)
				fast := RunFromCheckpoint(ck, inj)
				if !resultsEqual(full, fast) {
					t.Fatalf("flip (reg=%d bit=%d cycle=%d): full sig=%#x crash=%v cyc=%d; resumed sig=%#x crash=%v cyc=%d",
						fr, fb, fc, full.Signature, full.Crash, full.Cycles,
						fast.Signature, fast.Crash, fast.Cycles)
				}
			}
		}
	}
}

// TestPooledRunDeterministic re-runs the same program many times through
// the pooled Run path (forcing pool reuse) and requires bit-identical
// results, tracking enabled and disabled.
func TestPooledRunDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	prog := randomProgram(rng, 350, false)
	for _, track := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.TrackIRF = track
		cfg.TrackL1D = track
		cfg.TrackFPRF = track
		cfg.TrackIBR = track
		ref := Run(prog, newInitState(t, 9), cfg)
		for i := 0; i < 8; i++ {
			got := Run(prog, newInitState(t, 9), cfg)
			if !resultsEqual(ref, got) {
				t.Fatalf("track=%v: pooled run %d diverged (sig %#x vs %#x, cycles %d vs %d)",
					track, i, ref.Signature, got.Signature, ref.Cycles, got.Cycles)
			}
		}
		// Alternating a different program through the pool must not leak
		// state into the next run of the original.
		other := randomProgram(rng, 120, false)
		Run(other, newInitState(t, 77), cfg)
		got := Run(prog, newInitState(t, 9), cfg)
		if !resultsEqual(ref, got) {
			t.Fatalf("track=%v: run after pool cross-use diverged", track)
		}
	}
}

// TestCheckpointSharedPagesConcurrent is the aliasing test for the
// copy-on-write memory (run it under -race): one checkpoint — taken
// live, then its HXGA-decoded twin — is restored into two pooled cores
// on two goroutines that run to completion under different injected
// faults (both store through pages the checkpoint shares with them),
// while a third goroutine encodes the same checkpoint. A checkpoint
// owns no page, so all three only read it: each faulty run must equal
// its from-cycle-0 reference, and afterwards the checkpoint must still
// restore to the golden result.
func TestCheckpointSharedPagesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	prog := randomProgram(rng, 400, false)
	cfg := DefaultConfig()
	ref := Run(prog, newInitState(t, 7), cfg)
	if ref.Crash != nil || ref.TimedOut || ref.Writebacks == 0 {
		t.Fatalf("reference run unusable: crash=%v timedOut=%v writebacks=%d", ref.Crash, ref.TimedOut, ref.Writebacks)
	}
	ga := &GoldenArtifacts{Result: ref}
	defer ga.Release()
	ckCfg := cfg
	ckCfg.OnCycle = func(c *Core, cyc uint64) {
		if cyc == ref.Cycles/3 {
			ga.Checkpoints = append(ga.Checkpoints, c.Checkpoint())
		}
	}
	Run(prog, newInitState(t, 7), ckCfg)
	data, err := EncodeGoldenArtifacts(ga)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := DecodeGoldenArtifacts(data, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Release()

	flip := func(reg int) Config {
		inj := cfg
		inj.OnCycle = func(c *Core, cyc uint64) {
			if cyc == ref.Cycles/3+5 {
				c.FlipIntPRFBit(reg, 3)
			}
		}
		return inj
	}
	regs := []int{2, 9}
	var want [2]*Result
	for i, reg := range regs {
		want[i] = Run(prog, newInitState(t, 7), flip(reg))
	}
	for name, bundle := range map[string]*GoldenArtifacts{"live": ga, "decoded": twin} {
		ck := bundle.Checkpoints[0]
		var wg sync.WaitGroup
		for i, reg := range regs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					if got := RunFromCheckpoint(ck, flip(reg)); !resultsEqual(want[i], got) {
						t.Errorf("%s checkpoint, flip r%d: resumed sig=%#x cyc=%d, from-zero sig=%#x cyc=%d",
							name, reg, got.Signature, got.Cycles, want[i].Signature, want[i].Cycles)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				if again, err := EncodeGoldenArtifacts(bundle); err != nil || !bytes.Equal(again, data) {
					t.Errorf("%s checkpoint: concurrent encode differs (err=%v)", name, err)
				}
			}
		}()
		wg.Wait()
		if got := RunFromCheckpoint(ck, cfg); !resultsEqual(ref, got) {
			t.Fatalf("%s checkpoint no longer restores to the golden result: sig=%#x cyc=%d, want sig=%#x cyc=%d",
				name, got.Signature, got.Cycles, ref.Signature, ref.Cycles)
		}
	}
}
