package inject

import (
	"testing"

	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/coverage"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// TestFaultTargetFloor: every fault model Validate accepts can fail —
// for each (target, type) pair of the targets table, at least one of a
// generated program and two suite kernels detects some of 32 injections
// (100-cycle intermittent windows, faultsim's default). A pair that
// detects nothing on all of them has become unreachable, as the ROB
// next-PC site was, and a campaign on it could not tell two programs
// apart. The programs are tried in order and the first that detects is
// logged.
func TestFaultTargetFloor(t *testing.T) {
	const n = 32
	type program struct {
		name string
		mk   func(t testing.TB) *Campaign
	}
	programs := []program{{"a generated 400-instruction program", func(t testing.TB) *Campaign { return testProgram(t, 400, nil) }}}
	for _, p := range []*prog.Program{mibench.FFT(1), dcdiag.Memtest(1)} {
		programs = append(programs, program{p.Name, func(testing.TB) *Campaign {
			return &Campaign{Prog: p.Insts, Init: p.InitFunc(), Cfg: uarch.DefaultConfig(), Seed: 7}
		}})
	}
	for st := coverage.Structure(0); st < coverage.NumStructures; st++ {
		for _, typ := range targets[st].models.types {
			t.Run(st.String()+"/"+typ.String(), func(t *testing.T) {
				t.Parallel()
				for _, p := range programs {
					c := p.mk(t)
					c.Target, c.Type, c.N, c.IntermittentLen = st, typ, n, 100
					s, err := c.Run()
					if err != nil {
						t.Fatal(err)
					}
					if s.Detected() > 0 {
						t.Logf("%v/%v: %s detects %d of %d", st, typ, p.name, s.Detected(), n)
						return
					}
				}
				t.Errorf("no program detects any of %d injections", n)
			})
		}
	}
}
