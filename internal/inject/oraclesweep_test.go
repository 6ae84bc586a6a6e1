package inject

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/uarch"
)

// sweepCampaign is generated program s of the oracle sweep — a
// 400-instruction gen.DefaultConfig program drawn from PCG (s, 100+s) —
// with campaign seed 7s.
func sweepCampaign(s uint64) *Campaign {
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 400
	p := gen.Materialize(gen.NewRandom(&cfg, rand.New(rand.NewPCG(s, 100+s))), &cfg)
	return &Campaign{Prog: p.Insts, Init: p.InitFunc(), Cfg: uarch.DefaultConfig(), Seed: 7 * s}
}

// sweepCase is one campaign of the sweep: its program and fault model.
type sweepCase struct {
	name     string
	campaign func() *Campaign
	target   coverage.Structure
	typ      FaultType
	burst    int
	window   uint64
	n        int
}

func (sc sweepCase) build(noFF bool) *Campaign {
	c := sc.campaign()
	c.Target, c.Type, c.BurstLen, c.IntermittentLen, c.N = sc.target, sc.typ, sc.burst, sc.window, sc.n
	c.NoFastForward = noFF
	return c
}

// TestOracleSweepBitIdentical is the breadth gate of every grading
// shortcut: each campaign below must give statistics equal, outcome by
// outcome, to the NoFastForward reference, which simulates every
// injection from reset with nothing pre-classified, resumed or cut
// short. The rows:
//
//   - 24 generated programs × IRF, FPRF, L1D × transient, intermittent
//     (80 cycles), N = 200 — single-bit faults;
//   - every third program × the same targets and types with 3-bit and
//     entry-wide bursts, N = 100;
//   - IntAdder, IntMul and FPAdd × permanent, intermittent (300 cycles)
//     on the first eight programs, N = 60, which must detect some fault
//     of every unit;
//   - one suite kernel per target, N = 16.
//
// -short keeps a third of the programs and the kernel rows.
func TestOracleSweepBitIdentical(t *testing.T) {
	short := testing.Short()
	units := []coverage.Structure{coverage.IntAdder, coverage.IntMul, coverage.FPAdd}
	var mu sync.Mutex
	detected := map[coverage.Structure]int{}
	t.Cleanup(func() {
		for _, u := range units {
			if detected[u] == 0 {
				t.Errorf("no %v fault detected: the rows do not exercise the unit", u)
			}
		}
	})
	var cases []sweepCase
	arrays := []coverage.Structure{coverage.IRF, coverage.FPRF, coverage.L1D}
	models := []struct {
		typ    FaultType
		window uint64
	}{{Transient, 0}, {Intermittent, 80}}
	for s := uint64(1); s <= 24; s++ {
		if short && s%3 != 0 {
			continue
		}
		prog := func() *Campaign { return sweepCampaign(s) }
		for _, target := range arrays {
			for _, m := range models {
				bursts := []int{1}
				if s%3 == 0 {
					bursts = append(bursts, 3, (&Campaign{Target: target, Cfg: uarch.DefaultConfig()}).burstWidth())
				}
				for _, burst := range bursts {
					n := 200
					if burst > 1 {
						n = 100
					}
					cases = append(cases, sweepCase{fmt.Sprintf("prog%d/%v/%v/burst%d", s, target, m.typ, burst),
						prog, target, m.typ, burst, m.window, n})
				}
			}
		}
		if s <= 8 {
			for _, target := range units {
				for _, typ := range []FaultType{Permanent, Intermittent} {
					cases = append(cases, sweepCase{fmt.Sprintf("prog%d/%v/%v", s, target, typ),
						prog, target, typ, 0, 300, 60})
				}
			}
		}
	}
	kernels := []struct {
		target coverage.Structure
		typ    FaultType
		name   string
		kernel func() *Campaign
	}{
		{coverage.IRF, Transient, "sha", func() *Campaign { return kernelCampaign(mibench.SHA(1)) }},
		{coverage.FPRF, Transient, "fft", func() *Campaign { return kernelCampaign(mibench.FFT(1)) }},
		{coverage.L1D, Transient, "adpcm", func() *Campaign { return kernelCampaign(mibench.ADPCM(1)) }},
		{coverage.IntAdder, Permanent, "sha", func() *Campaign { return kernelCampaign(mibench.SHA(1)) }},
		{coverage.IntMul, Permanent, "fft", func() *Campaign { return kernelCampaign(mibench.FFT(1)) }},
		{coverage.FPAdd, Permanent, "fft", func() *Campaign { return kernelCampaign(mibench.FFT(1)) }},
	}
	for _, k := range kernels {
		cases = append(cases, sweepCase{fmt.Sprintf("mibench/%s/%v/%v", k.name, k.target, k.typ),
			k.kernel, k.target, k.typ, 0, 0, 16})
	}

	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			want, err := sc.build(true).Run()
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			detected[sc.target] += want.Detected()
			mu.Unlock()
			got, err := sc.build(false).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				for i := range want.Outcomes {
					if got.Outcomes[i] != want.Outcomes[i] {
						t.Errorf("injection %d: %v, NoFastForward %v", i, got.Outcomes[i], want.Outcomes[i])
					}
				}
				t.Fatalf("statistics differ from NoFastForward:\nfast: %v\nref:  %v", got, want)
			}
		})
	}
}

// TestOracleSweepPinnedDefects replays, one injection each under
// ValidateAll, the sweep's first mismatches, minimized to (program seed,
// injection): each must pass ValidateAll's self-checks and give the
// NoFastForward outcome. Two defects called live faults Masked:
//
//   - the FPRF pre-classifier missed the upper lane a scalar XMM
//     read-modify-write (ADDSD's destination) carries into its new
//     register — ValidateAll said "pre-classifier unsound";
//   - two equal high-bit differences cancelled in the unfinished delta
//     fold, so a diverged run "reconverged" — ValidateAll said "delta
//     termination unsound".
func TestOracleSweepPinnedDefects(t *testing.T) {
	for _, tc := range []struct {
		prog   uint64
		target coverage.Structure
		typ    FaultType
		inj    int
		defect string
	}{
		{1, coverage.FPRF, Transient, 16, "scalar XMM read-modify-write"},
		{5, coverage.FPRF, Transient, 154, "delta fold"},
		{9, coverage.IRF, Intermittent, 79, "delta fold"},
	} {
		sc := sweepCase{target: tc.target, typ: tc.typ, burst: 1, window: 80, n: 200,
			campaign: func() *Campaign { return sweepCampaign(tc.prog) }}
		ref, err := sc.build(true).RunRange(tc.inj, tc.inj+1)
		if err != nil {
			t.Fatal(err)
		}
		c := sc.build(false)
		c.ValidateAll = true
		got, err := c.RunRange(tc.inj, tc.inj+1)
		if err != nil {
			t.Errorf("prog%d %v %v injection %d (%s): %v", tc.prog, tc.target, tc.typ, tc.inj, tc.defect, err)
		} else if !got.Equal(ref) {
			t.Errorf("prog%d %v %v injection %d (%s): %v, NoFastForward %v", tc.prog, tc.target, tc.typ, tc.inj, tc.defect, got.Outcomes[0], ref.Outcomes[0])
		}
	}
}
