package uarch

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
)

const (
	dataBase  = 0x10000
	dataSize  = 32 * 1024
	stackBase = 0x60000
	stackSize = 8 * 1024
)

func newInitState(t testing.TB, seed uint64) *arch.State {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	mem := arch.NewMemory()
	data := make([]byte, dataSize)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	if err := mem.AddRegion(arch.Region{Name: "data", Base: dataBase, Size: dataSize, Writable: true}); err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteBytes(dataBase, data); err != nil {
		t.Fatal(err)
	}
	if err := mem.AddRegion(arch.Region{Name: "stack", Base: stackBase, Size: stackSize, Writable: true}); err != nil {
		t.Fatal(err)
	}
	s := arch.NewState(mem)
	for i := range s.GPR {
		s.GPR[i] = rng.Uint64()
	}
	s.GPR[isa.RSP] = stackBase + stackSize/2
	s.GPR[isa.RSI] = dataBase
	s.GPR[isa.RDI] = dataBase + 16384
	for i := range s.XMM {
		s.XMM[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	return s
}

// randomProgram builds a plausible random program: deterministic
// variants, memory operands resolved inside the data region via RSI,
// branches with small forward offsets. With wild=true, a fraction of
// memory operands and branches are wild (crash-equivalence testing).
func randomProgram(rng *rand.Rand, n int, wild bool) []isa.Inst {
	det := isa.Deterministic()
	var prog []isa.Inst
	for len(prog) < n {
		id := det[rng.IntN(len(det))]
		v := isa.Lookup(id)
		if !wild && (v.Op == isa.OpDIV || v.Op == isa.OpIDIV) {
			// Wide division traps on random operands almost surely; keep
			// it for the crash-equivalence trials only.
			continue
		}
		// Keep RSP and the region base registers stable so the program
		// doesn't immediately wander off; allow everything else.
		in := isa.Inst{V: id, NOps: uint8(len(v.Ops))}
		ok := true
		for i, spec := range v.Ops {
			switch spec.Kind {
			case isa.KReg:
				r := isa.Reg(rng.IntN(isa.NumGPR))
				for spec.Acc&isa.AccW != 0 && (r == isa.RSP || r == isa.RSI || r == isa.RDI) {
					r = isa.Reg(rng.IntN(isa.NumGPR))
				}
				in.Ops[i] = isa.RegOp(r)
			case isa.KXmm:
				in.Ops[i] = isa.XmmOp(isa.XReg(rng.IntN(isa.NumXMM)))
			case isa.KImm:
				if v.IsBranch {
					in.Ops[i] = isa.ImmOp(int64(rng.IntN(4)))
					if wild && rng.IntN(50) == 0 {
						in.Ops[i] = isa.ImmOp(int64(rng.IntN(100000)))
					}
				} else {
					w := spec.Width
					if w > isa.W64 {
						w = isa.W64
					}
					sh := 64 - 8*uint(w)
					in.Ops[i] = isa.ImmOp(int64(rng.Uint64()<<sh) >> sh)
				}
			case isa.KMem:
				disp := int32(rng.IntN(dataSize - 64))
				disp &^= 15 // aligned so movapd works
				in.Ops[i] = isa.MemOp(isa.RSI, disp)
				if wild && rng.IntN(40) == 0 {
					in.Ops[i] = isa.MemOp(isa.Reg(rng.IntN(isa.NumGPR)), disp)
				}
			}
		}
		// Avoid clobbering base registers through implicit outputs.
		for _, r := range v.ImplicitOut {
			if r == isa.RSP || r == isa.RSI || r == isa.RDI {
				_ = r
			}
		}
		// MUL/DIV clobber RAX/RDX: fine, they are not base registers here.
		if ok {
			prog = append(prog, in)
		}
	}
	return prog
}

func runBoth(t *testing.T, prog []isa.Inst, seed uint64, cfg Config) (*Result, *arch.State, *arch.CrashError) {
	t.Helper()
	goldenState := newInitState(t, seed)
	_, goldenErr := arch.Run(prog, goldenState, 10_000_000)

	initState := newInitState(t, seed)
	cfg.DebugScrub = true
	res := Run(prog, initState, cfg)
	return res, goldenState, goldenErr
}

// TestEquivalenceWithEmulator is the core validation of the timing model:
// for random deterministic programs, the out-of-order core must produce
// bit-identical architectural outcomes (signature, or crash kind and PC)
// to the in-order functional emulator.
func TestEquivalenceWithEmulator(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	for trial := 0; trial < 150; trial++ {
		seed := rng.Uint64()
		prog := randomProgram(rng, 200, trial%3 == 2)
		res, golden, goldenErr := runBoth(t, prog, seed, DefaultConfig())
		if res.TimedOut {
			t.Fatalf("trial %d: core timed out", trial)
		}
		if goldenErr != nil {
			if res.Crash == nil {
				t.Fatalf("trial %d: emulator crashed (%v) but core ran clean", trial, goldenErr)
			}
			if res.Crash.Kind != goldenErr.Kind || res.Crash.PC != goldenErr.PC {
				t.Fatalf("trial %d: crash mismatch: core %v, emulator %v", trial, res.Crash, goldenErr)
			}
			continue
		}
		if res.Crash != nil {
			t.Fatalf("trial %d: core crashed (%v) but emulator ran clean", trial, res.Crash)
		}
		if res.Signature != golden.Signature() {
			t.Fatalf("trial %d: signature mismatch: core %#x, emulator %#x",
				trial, res.Signature, golden.Signature())
		}
	}
}

// TestEquivalenceLoopHeavy exercises branch prediction, misprediction
// recovery, and store-to-load forwarding with a loop program.
func TestEquivalenceLoopHeavy(t *testing.T) {
	// for i = 100..1: mem[i%64] += i; i--
	find := func(op isa.Op, w isa.Width, kinds ...isa.OpKind) isa.VariantID {
		for _, id := range isa.ByOp(op) {
			v := isa.Lookup(id)
			if v.Width != w || len(v.Ops) != len(kinds) {
				continue
			}
			ok := true
			for i, k := range kinds {
				if v.Ops[i].Kind != k {
					ok = false
				}
			}
			if ok {
				return id
			}
		}
		t.Fatalf("variant not found")
		return 0
	}
	findCond := func(op isa.Op, c isa.Cond) isa.VariantID {
		for _, id := range isa.ByOp(op) {
			if isa.Lookup(id).Cond == c {
				return id
			}
		}
		t.Fatal("cond variant not found")
		return 0
	}
	movRI := find(isa.OpMOV, isa.W64, isa.KReg, isa.KImm)
	addMR := find(isa.OpADD, isa.W64, isa.KMem, isa.KReg)
	andRI := find(isa.OpAND, isa.W64, isa.KReg, isa.KImm)
	movRR := find(isa.OpMOV, isa.W64, isa.KReg, isa.KReg)
	shlRI := find(isa.OpSHL, isa.W64, isa.KReg, isa.KImm)
	addRR := find(isa.OpADD, isa.W64, isa.KReg, isa.KReg)
	decR := find(isa.OpDEC, isa.W64, isa.KReg)
	jne := findCond(isa.OpJcc, isa.CondNE)
	movLoad := find(isa.OpMOV, isa.W64, isa.KReg, isa.KMem)

	prog := []isa.Inst{
		isa.MakeInst(movRI, isa.RegOp(isa.RCX), isa.ImmOp(100)), // i = 100
		// loop:
		isa.MakeInst(movRR, isa.RegOp(isa.RBX), isa.RegOp(isa.RCX)),
		isa.MakeInst(andRI, isa.RegOp(isa.RBX), isa.ImmOp(63)),
		isa.MakeInst(shlRI, isa.RegOp(isa.RBX), isa.ImmOp(3)),
		isa.MakeInst(addRR, isa.RegOp(isa.RBX), isa.RegOp(isa.RSI)),
		isa.MakeInst(addMR, isa.MemOp(isa.RBX, 0), isa.RegOp(isa.RCX)), // mem[rbx] += i
		isa.MakeInst(movLoad, isa.RegOp(isa.RAX), isa.MemOp(isa.RBX, 0)),
		isa.MakeInst(decR, isa.RegOp(isa.RCX)),
		isa.MakeInst(jne, isa.ImmOp(-8)), // back to loop head
	}
	// Fix the base register usage: the program uses RBX as a computed
	// address, which randomProgram-style init already points into data
	// via RSI.
	res, golden, goldenErr := runBoth(t, prog, 7, DefaultConfig())
	if goldenErr != nil {
		t.Fatalf("emulator crashed: %v", goldenErr)
	}
	if res.Crash != nil || res.TimedOut {
		t.Fatalf("core failed: crash=%v timeout=%v", res.Crash, res.TimedOut)
	}
	if res.Signature != golden.Signature() {
		t.Fatal("loop program signature mismatch")
	}
	if res.Branches == 0 {
		t.Fatal("no branches committed")
	}
	if res.Instructions != 1+8*100 {
		t.Fatalf("retired %d instructions, want %d", res.Instructions, 1+8*100)
	}
}

func TestMispredictsHappenAndRecover(t *testing.T) {
	// Alternating taken/not-taken data-dependent branches defeat gshare
	// at first; correctness must be unaffected.
	rng := rand.New(rand.NewPCG(201, 202))
	for trial := 0; trial < 30; trial++ {
		prog := randomProgram(rng, 300, false)
		res, golden, goldenErr := runBoth(t, prog, uint64(trial), DefaultConfig())
		if goldenErr != nil {
			continue
		}
		if res.Crash != nil {
			t.Fatalf("trial %d: unexpected crash %v", trial, res.Crash)
		}
		if res.Signature != golden.Signature() {
			t.Fatalf("trial %d: signature mismatch with mispredicts=%d", trial, res.Mispredicts)
		}
	}
}

func TestIPCWithinPhysicalBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(203, 204))
	prog := randomProgram(rng, 2000, false)
	cfg := DefaultConfig()
	res := Run(prog, newInitState(t, 11), cfg)
	if !res.Clean() {
		t.Skipf("random program crashed: %v", res.Crash)
	}
	ipc := float64(res.Instructions) / float64(res.Cycles)
	if ipc <= 0 || ipc > float64(cfg.CommitWidth) {
		t.Fatalf("IPC %.2f outside (0, %d]", ipc, cfg.CommitWidth)
	}
	t.Logf("random program IPC: %.2f over %d cycles", ipc, res.Cycles)
}

func TestCacheStatsPlausible(t *testing.T) {
	rng := rand.New(rand.NewPCG(205, 206))
	prog := randomProgram(rng, 1000, false)
	res := Run(prog, newInitState(t, 12), DefaultConfig())
	if !res.Clean() {
		t.Skip("program crashed")
	}
	if res.CacheHits+res.CacheMisses == 0 {
		t.Fatal("no cache accesses despite memory operands")
	}
	t.Logf("L1D: %d hits, %d misses, %d writebacks", res.CacheHits, res.CacheMisses, res.Writebacks)
}

func TestIRFACETrackingSane(t *testing.T) {
	rng := rand.New(rand.NewPCG(207, 208))
	prog := randomProgram(rng, 2000, false)
	cfg := DefaultConfig()
	cfg.TrackIRF = true
	res := Run(prog, newInitState(t, 13), cfg)
	if !res.Clean() {
		t.Skip("program crashed")
	}
	if res.IRFVuln < 0 || res.IRFVuln > 1 {
		t.Fatalf("IRF vulnerability %f outside [0,1]", res.IRFVuln)
	}
	if res.IRFVuln == 0 {
		t.Fatal("IRF vulnerability is zero for a register-heavy program")
	}
	t.Logf("IRF ACE vulnerability: %.4f", res.IRFVuln)
}

func TestL1DACETrackingSane(t *testing.T) {
	rng := rand.New(rand.NewPCG(209, 210))
	prog := randomProgram(rng, 2000, false)
	cfg := DefaultConfig()
	cfg.TrackL1D = true
	res := Run(prog, newInitState(t, 14), cfg)
	if !res.Clean() {
		t.Skip("program crashed")
	}
	if res.L1DVuln < 0 || res.L1DVuln > 1 {
		t.Fatalf("L1D vulnerability %f outside [0,1]", res.L1DVuln)
	}
	if res.L1DVuln == 0 {
		t.Fatal("L1D vulnerability is zero for a memory-touching program")
	}
	t.Logf("L1D ACE vulnerability: %.4f", res.L1DVuln)
}

func TestIBRTrackingSane(t *testing.T) {
	rng := rand.New(rand.NewPCG(211, 212))
	prog := randomProgram(rng, 2000, false)
	cfg := DefaultConfig()
	cfg.TrackIBR = true
	res := Run(prog, newInitState(t, 15), cfg)
	if !res.Clean() {
		t.Skip("program crashed")
	}
	if res.UnitUses[coverage.IntAdder] == 0 {
		t.Fatal("no integer adder uses in a random program")
	}
	for s := coverage.IntAdder; s < coverage.NumStructures; s++ {
		if res.IBR[s] < 0 || res.IBR[s] > 1 {
			t.Fatalf("%v IBR %f outside [0,1]", s, res.IBR[s])
		}
	}
	t.Logf("IBR: adder=%.4f mul=%.4f fpadd=%.4f fpmul=%.4f",
		res.IBR[coverage.IntAdder], res.IBR[coverage.IntMul],
		res.IBR[coverage.FPAdd], res.IBR[coverage.FPMul])
}

func TestPRFInjectionChangesOutcome(t *testing.T) {
	// Flipping a bit of an architecturally-live physical register early
	// in the run must change the outcome for at least some (reg, bit)
	// choices, and flipping a free physical register must be masked.
	rng := rand.New(rand.NewPCG(213, 214))
	prog := randomProgram(rng, 500, false)
	cfg := DefaultConfig()
	goldenRes := Run(prog, newInitState(t, 16), cfg)
	if !goldenRes.Clean() {
		t.Skip("program crashed")
	}
	detected := 0
	for bit := 0; bit < 16; bit++ {
		cfg2 := cfg
		cfg2.OnCycle = func(c *Core, cycle uint64) {
			if cycle == 50 {
				c.FlipIntPRFBit(bit, bit*3%64)
			}
		}
		res := Run(prog, newInitState(t, 16), cfg2)
		if res.Detected(goldenRes) {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no PRF bit flip was ever detected")
	}
	t.Logf("PRF flips detected: %d/16", detected)
}

func TestCacheInjectionChangesOutcome(t *testing.T) {
	rng := rand.New(rand.NewPCG(215, 216))
	prog := randomProgram(rng, 800, false)
	cfg := DefaultConfig()
	goldenRes := Run(prog, newInitState(t, 17), cfg)
	if !goldenRes.Clean() {
		t.Skip("program crashed")
	}
	detected := 0
	trials := 200
	injRng := rand.New(rand.NewPCG(1, 1))
	nbits := cfg.L1D.SizeBytes * 8
	for i := 0; i < trials; i++ {
		bit := injRng.IntN(nbits)
		cyc := uint64(10 + injRng.IntN(200))
		cfg2 := cfg
		cfg2.OnCycle = func(c *Core, cycle uint64) {
			if cycle == cyc {
				c.FlipCacheBit(bit)
			}
		}
		res := Run(prog, newInitState(t, 17), cfg2)
		if res.Detected(goldenRes) {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no cache bit flip was ever detected")
	}
	if detected == trials {
		t.Fatal("every cache flip detected: masking is implausibly absent")
	}
	t.Logf("cache flips detected: %d/%d", detected, trials)
}

func TestDeterministicRepeatability(t *testing.T) {
	rng := rand.New(rand.NewPCG(217, 218))
	prog := randomProgram(rng, 500, false)
	cfg := DefaultConfig()
	cfg.TrackIRF = true
	cfg.TrackL1D = true
	cfg.TrackIBR = true
	r1 := Run(prog, newInitState(t, 18), cfg)
	r2 := Run(prog, newInitState(t, 18), cfg)
	if r1.Signature != r2.Signature || r1.Cycles != r2.Cycles ||
		r1.IRFVuln != r2.IRFVuln || r1.L1DVuln != r2.L1DVuln {
		t.Fatal("identical runs diverged")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// store then immediately load the same address: the load must see the
	// store's value even though the store has not committed.
	var movMR, movRM, movRI isa.VariantID
	for _, id := range isa.ByOp(isa.OpMOV) {
		v := isa.Lookup(id)
		if v.Width != isa.W64 || len(v.Ops) != 2 {
			continue
		}
		switch {
		case v.Ops[0].Kind == isa.KMem && v.Ops[1].Kind == isa.KReg:
			movMR = id
		case v.Ops[0].Kind == isa.KReg && v.Ops[1].Kind == isa.KMem:
			movRM = id
		case v.Ops[0].Kind == isa.KReg && v.Ops[1].Kind == isa.KImm && v.Ops[1].Width == isa.W32:
			movRI = id
		}
	}
	prog := []isa.Inst{
		isa.MakeInst(movRI, isa.RegOp(isa.RBX), isa.ImmOp(0x1234)),
		isa.MakeInst(movMR, isa.MemOp(isa.RSI, 128), isa.RegOp(isa.RBX)),
		isa.MakeInst(movRM, isa.RegOp(isa.RCX), isa.MemOp(isa.RSI, 128)),
	}
	init := newInitState(t, 19)
	res, golden, goldenErr := runBoth(t, prog, 19, DefaultConfig())
	if goldenErr != nil || res.Crash != nil {
		t.Fatalf("unexpected crash: %v / %v", goldenErr, res.Crash)
	}
	if res.Signature != golden.Signature() {
		t.Fatal("forwarding produced wrong architectural state")
	}
	_ = init
}

func TestWatchdogOnInfiniteLoop(t *testing.T) {
	jmp := isa.ByOp(isa.OpJMP)[0]
	prog := []isa.Inst{isa.MakeInst(jmp, isa.ImmOp(-1))}
	cfg := DefaultConfig()
	cfg.MaxCycles = 10000
	res := Run(prog, newInitState(t, 20), cfg)
	if !res.TimedOut {
		t.Fatal("infinite loop did not trip the watchdog")
	}
}

func BenchmarkCoreALUProgram(b *testing.B) {
	rng := rand.New(rand.NewPCG(301, 302))
	prog := randomProgram(rng, 5000, false)
	cfg := DefaultConfig()
	cfg.TrackIRF = true
	cfg.TrackIBR = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(prog, newInitState(b, 21), cfg)
		if res.TimedOut {
			b.Fatal("timeout")
		}
	}
}

func TestL2AndPrefetcher(t *testing.T) {
	// Find a seed whose random program runs cleanly.
	var prog []isa.Inst
	var res *Result
	var seed uint64
	with := DefaultConfig()
	for seed = 30; seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(219, seed))
		prog = randomProgram(rng, 2000, false)
		res = Run(prog, newInitState(t, seed), with)
		if res.Clean() {
			break
		}
	}
	if !res.Clean() {
		t.Fatal("no clean random program found")
	}
	if res.L2Hits+res.L2Misses == 0 {
		t.Fatal("no L2 activity despite L1 misses")
	}
	if res.Prefetches == 0 {
		t.Fatal("next-line prefetcher never fired")
	}
	// Disabling the L2 must not change architectural results, only
	// timing.
	without := DefaultConfig()
	without.L2.SizeBytes = 0
	without.EnablePrefetch = false
	res2 := Run(prog, newInitState(t, seed), without)
	if res2.Signature != res.Signature {
		t.Fatal("L2 changed architectural results")
	}
	if res2.L2Hits != 0 {
		t.Fatal("disabled L2 recorded hits")
	}
	t.Logf("L2: %d hits, %d misses, %d prefetches; cycles %d (with) vs %d (without)",
		res.L2Hits, res.L2Misses, res.Prefetches, res.Cycles, res2.Cycles)
}

func TestFPRFTrackingAndInjection(t *testing.T) {
	rng := rand.New(rand.NewPCG(221, 222))
	prog := randomProgram(rng, 1500, false)
	cfg := DefaultConfig()
	cfg.TrackFPRF = true
	res := Run(prog, newInitState(t, 31), cfg)
	if !res.Clean() {
		t.Skip("program crashed")
	}
	if res.FPRFVuln <= 0 || res.FPRFVuln > 1 {
		t.Fatalf("FPRF vulnerability %f out of range", res.FPRFVuln)
	}
	t.Logf("FPRF ACE vulnerability: %.4f", res.FPRFVuln)

	// Injection into a mapped architectural XMM register early on must be
	// detectable for some bits.
	golden := Run(prog, newInitState(t, 31), DefaultConfig())
	detected := 0
	for bit := 0; bit < 32; bit++ {
		cfg2 := DefaultConfig()
		bit := bit
		cfg2.OnCycle = func(c *Core, cycle uint64) {
			if cycle == 20 {
				c.FlipFPPRFBit(bit%16, bit*4%128)
			}
		}
		r := Run(prog, newInitState(t, 31), cfg2)
		if r.Detected(golden) {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no FP PRF flip was ever detected")
	}
	t.Logf("FPRF flips detected: %d/32", detected)
}

func TestCommitTrace(t *testing.T) {
	rng := rand.New(rand.NewPCG(223, 224))
	prog := randomProgram(rng, 50, false)
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Trace = &buf
	res := Run(prog, newInitState(t, 33), cfg)
	if !res.Clean() {
		t.Skip("program crashed")
	}
	lines := strings.Count(buf.String(), "\n")
	if uint64(lines) != res.Instructions {
		t.Fatalf("trace has %d lines, want %d", lines, res.Instructions)
	}
	if !strings.Contains(buf.String(), "pc=0") {
		t.Fatal("trace missing first instruction")
	}
}
