package uarch

import (
	"math/rand/v2"
	"testing"
)

// TestDeltaRecordingObservational: recording a trajectory must not
// change the run (the instrumentation only reads state), must be
// deterministic, and must sample exactly at interval multiples in
// ascending order.
func TestDeltaRecordingObservational(t *testing.T) {
	prog := missChainProgram(t, 200)
	cfg := fullTracking(smallL1Config())
	seed := uint64(61)

	plain := Run(prog, newInitState(t, seed), cfg)
	if !plain.Clean() {
		t.Fatalf("baseline not clean: %v %v", plain.Crash, plain.TimedOut)
	}

	record := func() (*Result, *DeltaTrajectory) {
		traj := GetDeltaTrajectory(64)
		rcfg := cfg
		rcfg.DeltaRecord = traj
		return Run(prog, newInitState(t, seed), rcfg), traj
	}
	r1, t1 := record()
	r2, t2 := record()
	defer ReleaseDeltaTrajectory(t1)
	defer ReleaseDeltaTrajectory(t2)

	resultsIdentical(t, "recorded-vs-plain", plain, r1)
	resultsIdentical(t, "recorded-deterministic", r1, r2)
	if r1.Cycles != plain.Cycles {
		t.Fatalf("recording changed cycle count: %d vs %d", r1.Cycles, plain.Cycles)
	}
	want := int(plain.Cycles / 64)
	if len(t1.Points) != want {
		t.Fatalf("trajectory has %d points over %d cycles at interval 64, want %d",
			len(t1.Points), plain.Cycles, want)
	}
	if len(t1.Points) != len(t2.Points) {
		t.Fatalf("recordings disagree on length: %d vs %d", len(t1.Points), len(t2.Points))
	}
	for i := range t1.Points {
		if t1.Points[i] != t2.Points[i] {
			t.Fatalf("point %d diverges across identical recordings: %+v vs %+v",
				i, t1.Points[i], t2.Points[i])
		}
		if wantCyc := uint64(i+1) * 64; t1.Points[i].Cycle != wantCyc {
			t.Fatalf("point %d at cycle %d, want %d", i, t1.Points[i].Cycle, wantCyc)
		}
	}
}

// TestDeltaRecordingLoopsAgree: the naive and skipping loops must record
// identical trajectories — the compare points are wake candidates, so
// the skipping loop lands on every one exactly.
func TestDeltaRecordingLoopsAgree(t *testing.T) {
	prog := missChainProgram(t, 200)
	cfg := smallL1Config()
	seed := uint64(63)

	record := func(noSkip bool) *DeltaTrajectory {
		traj := GetDeltaTrajectory(64)
		rcfg := cfg
		rcfg.NoCycleSkip = noSkip
		rcfg.DeltaRecord = traj
		Run(prog, newInitState(t, seed), rcfg)
		return traj
	}
	tn, ts := record(true), record(false)
	defer ReleaseDeltaTrajectory(tn)
	defer ReleaseDeltaTrajectory(ts)
	if len(tn.Points) != len(ts.Points) {
		t.Fatalf("naive recorded %d points, skip %d", len(tn.Points), len(ts.Points))
	}
	for i := range tn.Points {
		if tn.Points[i] != ts.Points[i] {
			t.Fatalf("point %d: naive %+v vs skip %+v", i, tn.Points[i], ts.Points[i])
		}
	}
}

// TestDeltaReconvergeNoFault: a comparing run that never diverged (no
// fault at all) must reconverge at the very first armed compare point —
// the cheapest possible exercise of the full state hash on both loops.
func TestDeltaReconvergeNoFault(t *testing.T) {
	prog := missChainProgram(t, 200)
	cfg := smallL1Config()
	seed := uint64(65)

	traj := GetDeltaTrajectory(64)
	defer ReleaseDeltaTrajectory(traj)
	rcfg := cfg
	rcfg.DeltaRecord = traj
	golden := Run(prog, newInitState(t, seed), rcfg)
	if !golden.Clean() || len(traj.Points) == 0 {
		t.Fatalf("golden run unusable: clean=%v points=%d", golden.Clean(), len(traj.Points))
	}

	for _, noSkip := range []bool{true, false} {
		ccfg := cfg
		ccfg.NoCycleSkip = noSkip
		ccfg.DeltaCompare = traj
		ccfg.DeltaQuiesce = 1
		r := Run(prog, newInitState(t, seed), ccfg)
		if !r.Reconverged {
			t.Fatalf("noSkip=%v: identical run did not reconverge", noSkip)
		}
		if r.Detected(golden) {
			t.Fatalf("noSkip=%v: reconverged run classifies as detected", noSkip)
		}
		if r.Cycles != traj.Points[0].Cycle {
			t.Fatalf("noSkip=%v: reconverged at cycle %d, want first point %d",
				noSkip, r.Cycles, traj.Points[0].Cycle)
		}
	}
}

// TestDeltaQuiesceGate: compare points strictly before DeltaQuiesce must
// be skipped. With quiesce pushed past the whole trajectory, even an
// identical run must run to completion (and report the golden
// signature) instead of reconverging.
func TestDeltaQuiesceGate(t *testing.T) {
	prog := missChainProgram(t, 200)
	cfg := smallL1Config()
	seed := uint64(67)

	traj := GetDeltaTrajectory(64)
	defer ReleaseDeltaTrajectory(traj)
	rcfg := cfg
	rcfg.DeltaRecord = traj
	golden := Run(prog, newInitState(t, seed), rcfg)

	ccfg := cfg
	ccfg.DeltaCompare = traj
	ccfg.DeltaQuiesce = golden.Cycles + 1
	r := Run(prog, newInitState(t, seed), ccfg)
	if r.Reconverged {
		t.Fatal("run reconverged at a point before its quiesce cycle")
	}
	if r.Cycles != golden.Cycles || r.Signature != golden.Signature {
		t.Fatalf("gated run diverged from golden: %d/%#x vs %d/%#x",
			r.Cycles, r.Signature, golden.Cycles, golden.Signature)
	}
}

// TestDeltaFaultDifferential is the loop-level correctness backbone of
// delta termination: for random programs with random transient flips and
// intermittent windows, a comparing run must behave bit-identically
// under the naive and skipping loops — same reconvergence decision, same
// stop cycle, same outcome-relevant results — and across enough trials
// both reconvergence and divergence must actually occur.
func TestDeltaFaultDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(7301, 7302))
	reconverged, diverged := 0, 0
	for trial := 0; trial < 12; trial++ {
		seed := rng.Uint64()
		prog := randomProgram(rng, 80+rng.IntN(80), false)
		cfg := DefaultConfig()

		traj := GetDeltaTrajectory(32)
		rcfg := cfg
		rcfg.DeltaRecord = traj
		golden := Run(prog, newInitState(t, seed), rcfg)
		if !golden.Clean() || golden.Cycles < 8 {
			ReleaseDeltaTrajectory(traj)
			continue
		}

		reg, bit := rng.IntN(cfg.IntPRF), rng.IntN(64)
		at := 1 + rng.Uint64N(golden.Cycles)
		fire := func(c *Core, _ uint64) { c.FlipIntPRFBit(reg, bit) }
		if trial%3 == 2 {
			// Every third trial clobbers the whole integer PRF — live
			// registers included — so the diverged path is exercised too.
			fire = func(c *Core, _ uint64) {
				for r := 0; r < cfg.IntPRF; r++ {
					c.FlipIntPRFBit(r, bit)
				}
			}
		}
		ev := []CycleEvent{{Start: at, Fire: fire}}

		run := func(noSkip bool) *Result {
			ccfg := cfg
			ccfg.NoCycleSkip = noSkip
			ccfg.Events = ev
			ccfg.DeltaCompare = traj
			ccfg.DeltaQuiesce = at + 1
			ccfg.MaxCycles = golden.Cycles*4 + 100_000
			return Run(prog, newInitState(t, seed), ccfg)
		}
		rn, rs := run(true), run(false)
		if rn.Reconverged != rs.Reconverged || rn.Cycles != rs.Cycles ||
			rn.Signature != rs.Signature || rn.TimedOut != rs.TimedOut ||
			(rn.Crash == nil) != (rs.Crash == nil) {
			t.Fatalf("trial %d: loops disagree: naive {rec=%v cyc=%d sig=%#x} vs skip {rec=%v cyc=%d sig=%#x}",
				trial, rn.Reconverged, rn.Cycles, rn.Signature,
				rs.Reconverged, rs.Cycles, rs.Signature)
		}
		if rs.Reconverged {
			reconverged++
			if rs.Cycles >= golden.Cycles {
				t.Fatalf("trial %d: reconverged at cycle %d, not before golden end %d",
					trial, rs.Cycles, golden.Cycles)
			}
		} else {
			diverged++
			// A run that did not reconverge must classify exactly as a
			// delta-free run would: full-length simulation is untouched.
			pcfg := cfg
			pcfg.Events = ev
			pcfg.MaxCycles = golden.Cycles*4 + 100_000
			plain := Run(prog, newInitState(t, seed), pcfg)
			if plain.Signature != rs.Signature || plain.Cycles != rs.Cycles {
				t.Fatalf("trial %d: comparing changed a diverged run: %d/%#x vs %d/%#x",
					trial, rs.Cycles, rs.Signature, plain.Cycles, plain.Signature)
			}
		}
		ReleaseDeltaTrajectory(traj)
	}
	if reconverged == 0 {
		t.Fatal("no trial reconverged: delta termination never fired")
	}
	if diverged == 0 {
		t.Fatal("every trial reconverged: fault visibility implausible")
	}
	t.Logf("%d reconverged, %d diverged", reconverged, diverged)
}

// TestDeltaCheckpointResume: the committed-stream digest must travel
// with checkpoints — a run resumed mid-flight with a trajectory armed
// reconverges exactly as a from-reset comparing run does. The checkpoint
// is captured during the recording run itself, exactly as the injector
// does it (a checkpoint from a non-recording run carries a stale digest
// and would never match).
func TestDeltaCheckpointResume(t *testing.T) {
	prog := missChainProgram(t, 200)
	cfg := smallL1Config()
	seed := uint64(69)

	plain := Run(prog, newInitState(t, seed), cfg)
	if plain.Cycles < 200 {
		t.Fatalf("run too short (%d cycles)", plain.Cycles)
	}
	ckAt := plain.Cycles / 2

	traj := GetDeltaTrajectory(64)
	defer ReleaseDeltaTrajectory(traj)
	var ck *Checkpoint
	rcfg := cfg
	rcfg.DeltaRecord = traj
	rcfg.OnCycle = func(core *Core, cyc uint64) {
		if cyc == ckAt && ck == nil {
			ck = core.Checkpoint()
		}
	}
	golden := Run(prog, newInitState(t, seed), rcfg)
	if golden.Cycles != plain.Cycles {
		t.Fatalf("instrumented golden diverged: %d vs %d cycles", golden.Cycles, plain.Cycles)
	}
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}
	defer ck.Release()

	for _, noSkip := range []bool{true, false} {
		r := RunFromCheckpoint(ck, Config{
			NoCycleSkip:  noSkip,
			DeltaCompare: traj,
			DeltaQuiesce: ckAt + 1,
			MaxCycles:    golden.Cycles*4 + 100_000,
		})
		if !r.Reconverged {
			t.Fatalf("noSkip=%v: resumed fault-free run did not reconverge", noSkip)
		}
		// First point at or after the quiesce cycle.
		want := uint64(0)
		for _, p := range traj.Points {
			if p.Cycle >= ckAt+1 {
				want = p.Cycle
				break
			}
		}
		if want == 0 || r.Cycles != want {
			t.Fatalf("noSkip=%v: reconverged at cycle %d, want %d", noSkip, r.Cycles, want)
		}
	}
}

// TestDeltaPoolHygiene: trajectory Get/Release must balance and reuse
// pooled storage; Checkpoint/Release likewise.
func TestDeltaPoolHygiene(t *testing.T) {
	base := LiveDeltaTrajectories()
	tr := GetDeltaTrajectory(0)
	if tr.Interval != DefaultDeltaInterval {
		t.Fatalf("zero interval not defaulted: %d", tr.Interval)
	}
	if LiveDeltaTrajectories() != base+1 {
		t.Fatalf("live count %d after Get, want %d", LiveDeltaTrajectories(), base+1)
	}
	tr.Points = append(tr.Points, DeltaPoint{Cycle: 1})
	ReleaseDeltaTrajectory(tr)
	ReleaseDeltaTrajectory(nil) // no-op
	if LiveDeltaTrajectories() != base {
		t.Fatalf("live count %d after Release, want %d", LiveDeltaTrajectories(), base)
	}
	tr2 := GetDeltaTrajectory(128)
	if len(tr2.Points) != 0 {
		t.Fatal("pooled trajectory not reset")
	}
	ReleaseDeltaTrajectory(tr2)

	ckBase := LiveCheckpoints()
	c := NewCore(missChainProgram(t, 10), newInitState(t, 71), smallL1Config())
	ck := c.Checkpoint()
	if LiveCheckpoints() != ckBase+1 {
		t.Fatalf("live checkpoints %d after Checkpoint, want %d", LiveCheckpoints(), ckBase+1)
	}
	ck.Release()
	ck.Release() // idempotent
	var nilCk *Checkpoint
	nilCk.Release() // nil-safe
	if LiveCheckpoints() != ckBase {
		t.Fatalf("live checkpoints %d after Release, want %d", LiveCheckpoints(), ckBase)
	}
}

// TestDeltaFoldEqualBitFlips: flipping the same bit, anywhere in 56-63,
// of k ∈ {1, 2, 3, 4} hashed words must move the state hash and the
// committed-stream digest. An unfinished multiply fold carries a
// difference only upward, so two bit-63 differences cancel exactly and
// higher-bit pairs often do — and a false match is a false
// reconvergence: a live fault graded Masked.
func TestDeltaFoldEqualBitFlips(t *testing.T) {
	src := stateSource(t)
	rng := rand.New(rand.NewPCG(611, 612))

	// Live register values: words stateHash folds.
	c := new(Core)
	c.copyFrom(src)
	var state []*uint64
	for r := range archRegs[clsInt] {
		state = append(state, &c.intPRF[c.rat[ratSlot(clsInt, uint8(r))]])
	}
	for x := range archRegs[clsFP] {
		p := c.rat[ratSlot(clsFP, uint8(x))]
		state = append(state, &c.fpPRF[p][0], &c.fpPRF[p][1])
	}

	// Two committed µops, one writing four integer registers and storing
	// twice, one writing two FP registers: every word foldCommit folds
	// but their PCs.
	u := &uop{pc: 17, actualNext: 18, nDsts: 4, nWrites: 2}
	for i := range 4 {
		u.dsts[i] = rdst{cls: clsInt, phys: c.rat[ratSlot(clsInt, uint8(i))]}
	}
	fp := &uop{pc: 18, actualNext: 19, nDsts: 2}
	for i := range 2 {
		fp.dsts[i] = rdst{cls: clsFP, phys: c.rat[ratSlot(clsFP, uint8(i))]}
	}
	u.writes = [maxWrites]storeWrite{{addr: 0x1000, data: rng.Uint64(), size: 8}, {addr: 0x2000, data: rng.Uint64(), size: 8}}
	stream := []*uint64{&u.writes[0].addr, &u.writes[0].data, &u.writes[1].addr, &u.writes[1].data}
	for i := range 4 {
		stream = append(stream, &c.intPRF[c.rat[ratSlot(clsInt, uint8(i))]])
	}
	for i := range 2 {
		stream = append(stream, &c.fpPRF[c.rat[ratSlot(clsFP, uint8(i))]][0], &c.fpPRF[c.rat[ratSlot(clsFP, uint8(i))]][1])
	}
	digest := func() uint64 {
		c.streamDigest = deltaOffset
		c.foldCommit(u)
		c.foldCommit(fp)
		return c.streamDigest
	}

	for _, tc := range []struct {
		name  string
		words []*uint64
		hash  func() uint64
	}{{"stateHash", state, c.stateHash}, {"stream digest", stream, digest}} {
		base := tc.hash()
		for bit := 56; bit < 64; bit++ {
			for k := 1; k <= 4; k++ {
				for trial := 0; trial < 24; trial++ {
					picked := rng.Perm(len(tc.words))[:k]
					for _, w := range picked {
						*tc.words[w] ^= 1 << bit
					}
					moved := tc.hash() != base
					for _, w := range picked {
						*tc.words[w] ^= 1 << bit
					}
					if !moved {
						t.Fatalf("%s: flipping bit %d of words %v leaves it unchanged", tc.name, bit, picked)
					}
				}
			}
		}
		if tc.hash() != base {
			t.Fatalf("%s: not restored", tc.name)
		}
	}
}
