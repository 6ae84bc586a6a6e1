package uarch

import (
	"testing"

	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/gen"
	"harpocrates/internal/prog"
	"harpocrates/internal/stats"
)

// TestTimingOnlySitesMasked: the gshare counters and the L2 tags steer
// only timing — which path fetch guesses, whether a line hits in the L2
// — never what the program computes, which is why neither is a fault
// target. On a generated program of every preset and on every suite
// kernel, a run that flips one bit of every counter (or of every tag)
// at four spread cycles ends as the fault-free run does: same signature,
// same instruction count, no crash and no hang. The flips are not dead:
// they change most programs' mispredict and L2 miss counts.
func TestTimingOnlySitesMasked(t *testing.T) {
	cfg := DefaultConfig()
	var progs []*prog.Program
	for _, g := range presetGens() {
		p := gen.Materialize(gen.NewRandom(&g.cfg, stats.Derive(1, 7)), &g.cfg)
		p.Name = "gen/" + g.name
		progs = append(progs, p)
	}
	progs = append(progs, mibench.Programs(1)...)
	progs = append(progs, dcdiag.Programs(1)...)

	sites := []struct {
		name string
		flip func(c *Core, bit int)
		// moved reads the statistic the flips perturb.
		moved func(r *Result) uint64
	}{
		{"gshare", func(c *Core, bit int) {
			for i := range c.bp.table {
				c.bp.table[i] ^= 1 << (bit % 2)
			}
		}, func(r *Result) uint64 { return r.Mispredicts }},
		{"l2tag", func(c *Core, bit int) {
			l2 := c.cache.l2
			for i := range l2.tag {
				l2.touch(i / l2.ways)
				l2.tag[i] ^= 1 << (bit % 64)
			}
		}, func(r *Result) uint64 { return r.L2Misses }},
	}
	moved := map[string]int{}
	for _, p := range progs {
		golden := Run(p.Insts, p.NewState(), cfg)
		if !golden.Clean() {
			t.Fatalf("%s: fault-free run did not end clean", p.Name)
		}
		for _, s := range sites {
			fcfg := cfg
			fcfg.MaxCycles = 4*golden.Cycles + 10_000
			for k := range uint64(4) {
				bit := int(k*17 + 1)
				fcfg.Events = append(fcfg.Events, CycleEvent{
					Start: 1 + golden.Cycles*(2*k+1)/8,
					Fire:  func(c *Core, _ uint64) { s.flip(c, bit) },
				})
			}
			got := Run(p.Insts, p.NewState(), fcfg)
			if got.Signature != golden.Signature || got.Instructions != golden.Instructions || !got.Clean() {
				t.Errorf("%s/%s: flips changed the program's outcome: signature %#x, %d instructions, crash %v, timed out %v; fault-free %#x, %d, clean",
					p.Name, s.name, got.Signature, got.Instructions, got.Crash, got.TimedOut, golden.Signature, golden.Instructions)
			}
			if s.moved(got) != s.moved(golden) {
				moved[s.name]++
			}
		}
	}
	for _, s := range sites {
		t.Logf("%s flips changed the timing statistic of %d of %d programs", s.name, moved[s.name], len(progs))
		if moved[s.name] == 0 {
			t.Errorf("%s flips never changed timing: the check sees nothing", s.name)
		}
	}
}
