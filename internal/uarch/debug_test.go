package uarch

import (
	"math/rand/v2"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/isa"
)

// TestDebugDivergence bisects the first diverging instruction of the
// equivalence failure (debug helper, cheap, kept as a regression net).
func TestDebugDivergence(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	for trial := 0; trial <= 36; trial++ {
		seed := rng.Uint64()
		prog := randomProgram(rng, 200, trial%3 == 2)
		if trial != 36 {
			continue
		}
		// Find earliest prefix with divergence.
		for n := 1; n <= len(prog); n++ {
			p := prog[:n]
			gs := newInitState(t, seed)
			_, gerr := arch.Run(p, gs, 10_000_000)
			is := newInitState(t, seed)
			cfg := DefaultConfig()
			cfg.DebugScrub = true
			res := Run(p, is, cfg)
			gsig := gs.Signature()
			ok := true
			if gerr != nil || res.Crash != nil {
				ok = (gerr != nil) == (res.Crash != nil) && (gerr == nil || (gerr.Kind == res.Crash.Kind && gerr.PC == res.Crash.PC))
			} else if res.Signature != gsig {
				ok = false
			}
			if !ok {
				t.Logf("first divergence at prefix %d; instruction %d: %v", n, n-1, prog[n-1])
				for i := max(0, n-5); i < n; i++ {
					t.Logf("  [%3d] %v", i, prog[i])
				}
				// Compare architectural registers.
				is2 := newInitState(t, seed)
				cfg2 := DefaultConfig()
				cfg2.DebugScrub = true
				c := NewCore(p, is2, cfg2)
				c.Run()
				for r := 0; r < isa.NumGPR; r++ {
					cv := c.intPRF[c.rat[ratSlot(clsInt, uint8(r))]]
					if cv != gs.GPR[r] {
						t.Logf("  GPR %v: core %#x emu %#x", isa.Reg(r), cv, gs.GPR[r])
					}
				}
				for x := 0; x < isa.NumXMM; x++ {
					cv := c.fpPRF[c.rat[ratSlot(clsFP, uint8(x))]]
					if cv != gs.XMM[x] {
						t.Logf("  XMM%d: core %#x emu %#x", x, cv, gs.XMM[x])
					}
				}
				cf := c.flagPRF[c.rat[ratSlot(clsFlag, 0)]]
				if cf != gs.Flags {
					t.Logf("  FLAGS: core %v emu %v", cf, gs.Flags)
				}
				t.FailNow()
			}
		}
		t.Log("no divergence found on any prefix")
	}
}
