package inject

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// flushPrograms are the programs the flush grader is checked on: a
// generated program of every preset (the L1D one is 8,000 instructions,
// the benchmark's sfi-l1d-transient size) and two suite kernels.
var flushPrograms = []struct {
	name     string
	campaign func(t *testing.T) *Campaign
}{
	{"irf-preset", func(t *testing.T) *Campaign { return presetCampaign(t, coverage.IRF) }},
	{"fprf-preset", func(t *testing.T) *Campaign { return presetCampaign(t, coverage.FPRF) }},
	{"l1d-preset", func(t *testing.T) *Campaign { return presetCampaign(t, coverage.L1D) }},
	{"fu-preset", func(t *testing.T) *Campaign { return presetCampaign(t, coverage.IntMul) }},
	{"mibench/susan", func(*testing.T) *Campaign { return kernelCampaign(mibench.Susan(1)) }},
	{"mibench/fft", func(*testing.T) *Campaign { return kernelCampaign(mibench.FFT(1)) }},
}

func kernelCampaign(p *prog.Program) *Campaign {
	return &Campaign{Prog: p.Insts, Init: p.InitFunc(), Cfg: uarch.DefaultConfig(), Seed: 7}
}

// l1dCampaign sets c up as a transient L1D campaign of n injections.
func l1dCampaign(c *Campaign, n, burst int, seed uint64) *Campaign {
	c.Target, c.Type, c.N, c.BurstLen, c.Seed = coverage.L1D, Transient, n, burst, seed
	return c
}

// TestFlushGradedBitIdentical: transient L1D campaigns that grade the
// flips only the final flush reads from the golden output give
// statistics equal to the from-reset NoFastForward reference — on every
// preset's generated program for single-bit flips, 3-bit bursts and
// line-wide bursts (which wrap into the next line), on two suite kernels
// for line-wide bursts, and with a bundle shared through a GoldenCache,
// where under ValidateAll every graded flip re-simulates to the graded
// outcome and signature at the golden run's final cycle. Every injection
// is counted once: pre-masked, graded from the flush or simulated. The
// naive and the skipping loop record the same flush log.
func TestFlushGradedBitIdentical(t *testing.T) {
	lineBits := uarch.DefaultConfig().L1D.LineBytes * 8
	graded := map[string]int64{}
	for _, p := range flushPrograms {
		n, bursts := 16, []int{1, 3, lineBits}
		switch {
		case p.name == "l1d-preset":
			n = 12 // 13k cycles, three times the other presets'
		case strings.Contains(p.name, "/"):
			// The kernels run two to three times longer and touch a few
			// lines only: a flip lands in one of them in a line-wide burst.
			n, bursts = 12, bursts[2:]
		}
		for _, burst := range bursts {
			label := fmt.Sprintf("%s/burst %d", p.name, burst)
			campaign := func() *Campaign { return l1dCampaign(p.campaign(t), n, burst, 21) }
			reg := fastForward(t, label, campaign)
			pre, fl, sim := reg.Counter("inject.premasked").Load(), reg.Counter("inject.flushgraded").Load(),
				reg.Counter("inject.simulated").Load()
			if pre+fl+sim != int64(n) {
				t.Fatalf("%s: premasked %d + flushgraded %d + simulated %d != N %d", label, pre, fl, sim, n)
			}
			graded[p.name] += fl
		}
	}
	for _, p := range flushPrograms {
		if graded[p.name] == 0 {
			t.Errorf("%s: no flip graded from the flush", p.name)
		}
	}

	// A bundle shared through a GoldenCache, first computed for an IRF
	// campaign, carries the flush log into the L1D campaigns after it,
	// one of which validates every graded flip by simulation.
	cache := NewGoldenCache(0)
	shared := func(target coverage.Structure) *Campaign {
		c := l1dCampaign(presetCampaign(t, coverage.L1D), 16, 3, 21)
		c.Target = target
		c.GoldenCache, c.ProgramHash = cache, testProgramHash(c)
		return c
	}
	if _, err := shared(coverage.IRF).Run(); err != nil {
		t.Fatal(err)
	}
	reg := fastForward(t, "l1d-preset/shared bundle", func() *Campaign { return shared(coverage.L1D) })
	if reg.Counter("inject.golden.cache.hits").Load() != 1 || reg.Counter("inject.flushgraded").Load() == 0 {
		t.Fatalf("shared bundle: %d cache hits, %d flips graded from the flush; want 1 and > 0",
			reg.Counter("inject.golden.cache.hits").Load(), reg.Counter("inject.flushgraded").Load())
	}
	val := shared(coverage.L1D)
	val.ValidateAll = true
	if _, err := val.Run(); err != nil {
		t.Fatal(err)
	}

	for _, st := range []coverage.Structure{coverage.IRF, coverage.L1D} {
		record := func(noSkip bool) *uarch.GoldenArtifacts {
			c := l1dCampaign(presetCampaign(t, st), 8, 1, 21)
			c.Cfg.NoCycleSkip = noSkip
			return c.buildGolden(true)
		}
		naive, skip := record(true), record(false)
		if naive.Result.L1DFlush == nil || len(naive.Result.L1DFlush.Lines) == 0 {
			t.Fatalf("%v preset: the golden run recorded no flushed line", st)
		}
		if !reflect.DeepEqual(naive.Result.L1DFlush, skip.Result.L1DFlush) {
			t.Errorf("%v preset: flush logs differ between the loops", st)
		}
		naive.Release()
		skip.Release()
	}
}

// TestFlushGradedWindowEdges grades flips of the first byte of every
// window run of every flushed line, in the golden runs of IRF- and
// L1D-preset programs, at the run's window start and one cycle later. At
// the start, a byte whose last event is a read is read by it, so the flip
// must be simulated; one cycle later every flip must be graded, and a
// sample re-simulates to the graded signature at the golden final cycle.
func TestFlushGradedWindowEdges(t *testing.T) {
	for _, st := range []coverage.Structure{coverage.IRF, coverage.L1D} {
		c := l1dCampaign(presetCampaign(t, st), 1, 1, 21)
		ga := c.buildGolden(false)
		golden := ga.Result
		rec, fl := golden.L1DIntervals, golden.L1DFlush
		refused, checked := 0, 0
		for li, l := range fl.Lines {
			end := len(fl.Runs)
			if li+1 < len(fl.Lines) {
				end = fl.Lines[li+1].Runs
			}
			for _, r := range fl.Runs[l.Runs:end] {
				b := l.Line*fl.LineBytes + r.Off
				if r.Start+1 >= golden.Cycles {
					continue
				}
				at := faultSpec{idx: b, start: r.Start, bit: 8 * b}
				if r.Start > 0 && rec.Consumed(b, r.Start) {
					if _, ok := c.flushGraded(at, rec, golden); ok {
						t.Fatalf("%v preset, byte %d: a flip at its window start %d, which a read consumes, was graded",
							st, b, r.Start)
					}
					refused++
				}
				after := at
				after.start++
				g, ok := c.flushGraded(after, rec, golden)
				if !ok {
					t.Fatalf("%v preset, byte %d: a flip at cycle %d, after its window start, was not graded",
						st, b, after.start)
				}
				if li%32 == 0 {
					if err := c.check(after, g, golden); err != nil {
						t.Fatalf("%v preset: %v", st, err)
					}
					checked++
				}
			}
		}
		if refused == 0 || checked == 0 {
			t.Fatalf("%v preset: %d flips at a read's cycle refused, %d graded flips re-simulated; want both > 0",
				st, refused, checked)
		}
		ga.Release()
	}
}

// TestFlushGradedValidateAllCatchesBrokenLog: ValidateAll must refuse a
// campaign whose flush grading is wrong, naming the injection, the cache
// byte, its flushed address and its window start. The bundle is tampered
// in place in a GoldenCache: with every window starting at cycle 0,
// flips that a load reads are graded as if only the flush did; with
// every flushed address one word off, the graded signature is not the
// one the flip produces.
func TestFlushGradedValidateAllCatchesBrokenLog(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(fl *uarch.FlushLog)
	}{
		{"windows from cycle 0", func(fl *uarch.FlushLog) {
			for i := range fl.Runs {
				fl.Runs[i].Start = 0
			}
		}},
		{"addresses a word off", func(fl *uarch.FlushLog) {
			for i := range fl.Lines {
				fl.Lines[i].Addr ^= 8
			}
		}},
	} {
		c := l1dCampaign(presetCampaign(t, coverage.L1D), 24, 1, 21)
		c.ValidateAll = true
		c.GoldenCache = NewGoldenCache(0)
		c.ProgramHash = testProgramHash(c)
		_, release := c.GoldenCache.Acquire(c.goldenKey(), nil, func() *uarch.GoldenArtifacts {
			ga := c.computeGoldenArtifacts()
			tc.tamper(ga.Result.L1DFlush)
			return ga
		})
		_, err := c.Run()
		release()
		if err == nil {
			t.Fatalf("%s: ValidateAll accepted a broken flush log", tc.name)
		}
		for _, part := range []string{"flush grader unsound", "injection ", "cache byte ", "flushed to ", "window start "} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%s: error %q does not name %q", tc.name, err, part)
			}
		}
	}
}

// TestFlushGradedWrongPathRead: a load on a mispredicted path that reads
// a byte after its last store is the byte's last reader before the final
// flush, so the byte's flush-only window starts at that load and a flip
// between the store and the load is simulated. The program stores two
// words into one line, the first store filling it from the middle, and
// 48 instructions later a branch predicted not-taken waits on two
// divisions and is taken, over a load of the line's first word:
//
//	mov  $0x10000, %rbx
//	mov  $0x1111, %rax
//	mov  %rax, 8(%rbx)
//	mov  %rax, 0(%rbx)
//	mov  $0, %rcx; mov $1, %rcx; … mov $47, %rcx
//	mov  $3, %r8; mov $0, %rdx; mov $1000, %rax
//	div  %r8; mov $0, %rdx; div %r8
//	dec  %rax
//	jne  1f
//	mov  0(%rbx), %rsi      # wrong path only
//	1: mov $5, %rcx
func TestFlushGradedWrongPathRead(t *testing.T) {
	movImm := findVariant(t, isa.OpMOV, isa.W64, condAny, isa.KReg, isa.KImm)
	store := findVariant(t, isa.OpMOV, isa.W64, condAny, isa.KMem, isa.KReg)
	load := findVariant(t, isa.OpMOV, isa.W64, condAny, isa.KReg, isa.KMem)
	div := findVariant(t, isa.OpDIV, isa.W64, condAny, isa.KReg)
	dec := findVariant(t, isa.OpDEC, isa.W64, condAny, isa.KReg)
	jne := findVariant(t, isa.OpJcc, isa.W32, isa.CondNE, isa.KImm)
	const base = 0x10000
	prog := []isa.Inst{
		isa.MakeInst(movImm, isa.RegOp(isa.RBX), isa.ImmOp(base)),
		isa.MakeInst(movImm, isa.RegOp(isa.RAX), isa.ImmOp(0x1111)),
		isa.MakeInst(store, isa.MemOp(isa.RBX, 8), isa.RegOp(isa.RAX)),
		isa.MakeInst(store, isa.MemOp(isa.RBX, 0), isa.RegOp(isa.RAX)),
	}
	for i := range 48 { // fetched while the stores commit
		prog = append(prog, isa.MakeInst(movImm, isa.RegOp(isa.RCX), isa.ImmOp(int64(i))))
	}
	c := l1dCampaign(&Campaign{
		Prog: append(prog,
			isa.MakeInst(movImm, isa.RegOp(isa.R8), isa.ImmOp(3)),
			isa.MakeInst(movImm, isa.RegOp(isa.RDX), isa.ImmOp(0)),
			isa.MakeInst(movImm, isa.RegOp(isa.RAX), isa.ImmOp(1000)),
			isa.MakeInst(div, isa.RegOp(isa.R8)),
			isa.MakeInst(movImm, isa.RegOp(isa.RDX), isa.ImmOp(0)),
			isa.MakeInst(div, isa.RegOp(isa.R8)),
			isa.MakeInst(dec, isa.RegOp(isa.RAX)),
			isa.MakeInst(jne, isa.ImmOp(1)),
			isa.MakeInst(load, isa.RegOp(isa.RSI), isa.MemOp(isa.RBX, 0)),
			isa.MakeInst(movImm, isa.RegOp(isa.RCX), isa.ImmOp(5)),
		),
		Init: func() *arch.State {
			m := arch.NewMemory()
			if err := m.AddRegion(arch.Region{Name: "data", Base: base, Size: 4096, Writable: true}); err != nil {
				t.Fatal(err)
			}
			return arch.NewState(m)
		},
		Cfg: uarch.DefaultConfig(),
	}, 1, 1, 1)
	ga := c.buildGolden(false)
	defer ga.Release()
	golden := ga.Result
	if golden.Mispredicts == 0 {
		t.Fatal("the branch was predicted correctly: no wrong path")
	}
	fl := golden.L1DFlush
	if len(fl.Lines) != 1 {
		t.Fatalf("%d lines flushed, want 1", len(fl.Lines))
	}
	b := fl.Lines[0].Line * fl.LineBytes
	addr, loaded, _ := fl.Window(b)
	_, stored, _ := fl.Window(b + 8)
	if addr != base || loaded <= stored {
		t.Fatalf("the loaded word flushed to %#x with its window from cycle %d, the stored-only word's from cycle %d; want %#x and a later start for the loaded word",
			addr, loaded, stored, base)
	}
	if _, ok := c.flushGraded(faultSpec{start: loaded, bit: 8 * b}, golden.L1DIntervals, golden); ok {
		t.Fatalf("a flip at cycle %d, which the wrong-path load reads, was graded from the flush", loaded)
	}
}

// TestFlushGradedConcurrentCampaigns: campaigns running at once on one
// GoldenCache bundle grade flips from its shared flush log (each copies
// the final state it writes) and agree with a campaign of their own.
func TestFlushGradedConcurrentCampaigns(t *testing.T) {
	cache := NewGoldenCache(0)
	reg := obs.NewRegistry()
	campaign := func(gc *GoldenCache) *Campaign {
		c := l1dCampaign(presetCampaign(t, coverage.L1D), 16, 3, 5)
		c.Workers = 2
		if gc != nil {
			c.GoldenCache, c.ProgramHash, c.Obs = gc, testProgramHash(c), obs.New(reg, nil)
		}
		return c
	}
	want, err := campaign(nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := campaign(cache).Run()
			if err != nil {
				t.Error(err)
			} else if !st.Equal(want) {
				t.Errorf("a concurrent campaign on the shared bundle diverged: %+v vs %+v", st, want)
			}
		}()
	}
	wg.Wait()
	if reg.Counter("inject.flushgraded").Load() == 0 {
		t.Fatal("no flip graded from the shared flush log")
	}
}
