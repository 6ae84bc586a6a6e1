package gen_test

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/mutate"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// samePrograms fails unless a and b have equal instructions, initial
// registers and regions, region bytes included.
func samePrograms(t *testing.T, what string, a, b *prog.Program) {
	t.Helper()
	if len(a.Insts) != len(b.Insts) {
		t.Fatalf("%s: %d instructions, want %d", what, len(a.Insts), len(b.Insts))
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("%s: instruction %d is %v, want %v", what, i, a.Insts[i], b.Insts[i])
		}
	}
	if a.InitGPR != b.InitGPR || a.InitXMM != b.InitXMM || a.InitFlags != b.InitFlags {
		t.Fatalf("%s: initial registers differ", what)
	}
	if len(a.Regions) != len(b.Regions) {
		t.Fatalf("%s: %d regions, want %d", what, len(a.Regions), len(b.Regions))
	}
	for i, r := range a.Regions {
		o := b.Regions[i]
		if r.Name != o.Name || r.Base != o.Base || r.Size != o.Size || r.Writable != o.Writable || !bytes.Equal(r.Data, o.Data) {
			t.Fatalf("%s: region %q differs", what, r.Name)
		}
	}
}

// sameStates fails unless a and b hold equal registers, memory bytes and
// memory digest.
func sameStates(t *testing.T, what string, a, b *arch.State) {
	t.Helper()
	ma, mb := a.Mem.(*arch.Memory), b.Mem.(*arch.Memory)
	if a.GPR != b.GPR || a.XMM != b.XMM || a.Flags != b.Flags {
		t.Fatalf("%s: registers differ", what)
	}
	if ma.Digest() != mb.Digest() {
		t.Fatalf("%s: memory digest %#x, want %#x", what, ma.Digest(), mb.Digest())
	}
	for _, r := range mb.Regions() {
		if !bytes.Equal(ma.RegionBytes(r.Name), mb.RegionBytes(r.Name)) {
			t.Fatalf("%s: region %q bytes differ", what, r.Name)
		}
	}
}

// TestRegionCacheBitIdentical: a program materialized through a region
// cache — on a miss, on a hit, after its seed aged out — equals a cold
// Materialize, and so does its initial state; states started from one
// image never see each other's writes, and the image never changes.
// Every preset, 20 random seeds each plus crossover-derived and
// mutation-kept ones.
func TestRegionCacheBitIdentical(t *testing.T) {
	for _, st := range []coverage.Structure{coverage.IRF, coverage.FPRF, coverage.L1D, coverage.IntAdder} {
		o := core.PresetFor(st, 1)
		o.Gen.NumInstrs = min(o.Gen.NumInstrs, 2000)
		cfg := &o.Gen
		rng := rand.New(rand.NewPCG(uint64(st), 41))
		var gs []*gen.Genotype
		for range 20 {
			gs = append(gs, gen.NewRandom(cfg, rng))
		}
		for i := range 4 {
			gs = append(gs, mutate.CrossoverK(gs[i], gs[i+1], 3, rng), mutate.ReplaceAll(gs[i], cfg, rng))
		}

		rc := gen.NewRegionCache()
		for i, g := range gs {
			cold := gen.Materialize(g, cfg)
			for _, leg := range []string{"miss", "hit"} {
				p := rc.Materialize(g, cfg)
				samePrograms(t, st.String()+" "+leg, p, cold)
				sameStates(t, st.String()+" "+leg+" state", p.NewState(), cold.NewState())
			}
			if i == 10 {
				rc.Age()
			}
		}
		// Two generations later every seed above has aged out and is drawn
		// again.
		rc.Age()
		rc.Age()
		samePrograms(t, st.String()+" after aging", rc.Materialize(gs[0], cfg), gen.Materialize(gs[0], cfg))

		// Concurrent states from one image: each sees only its own writes,
		// and runs on them match a cold run.
		p, cold := rc.Materialize(gs[3], cfg), gen.Materialize(gs[3], cfg)
		want := uarch.Run(cold.Insts, cold.NewState(), uarch.DefaultConfig())
		var wg sync.WaitGroup
		errs := make([]string, 4)
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := p.NewState()
				if w%2 == 0 {
					if r := uarch.Run(p.Insts, s, uarch.DefaultConfig()); r.Signature != want.Signature || r.Cycles != want.Cycles {
						errs[w] = "run from the image differs from a cold run"
					}
					return
				}
				mem := s.Mem.(*arch.Memory)
				pattern := bytes.Repeat([]byte{byte(w)}, 3*arch.PageSize)
				_ = mem.WriteBytes(prog.DataBase+100, pattern)
				got := make([]byte, len(pattern))
				_ = mem.ReadBytes(prog.DataBase+100, got)
				if !bytes.Equal(got, pattern) {
					errs[w] = "a state lost its own write"
				}
			}()
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Fatalf("%v: %s", st, e)
			}
		}
		sameStates(t, st.String()+" image after concurrent writes", p.NewState(), cold.NewState())
	}
}
