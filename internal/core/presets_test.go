package core

import (
	"math/rand/v2"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
)

// TestWeightedPresetGenotypesPinned pins the genotypes the weighted
// presets (FPRF, L1D) draw, three per seed, so a change to how
// gen.NewRandom spends its weights cannot go unnoticed.
func TestWeightedPresetGenotypesPinned(t *testing.T) {
	for _, tc := range []struct {
		st   coverage.Structure
		seed uint64
		want uint64
	}{
		{coverage.FPRF, 1, 0x43d556a10a27151f},
		{coverage.FPRF, 2, 0x7016482c3f7815ff},
		{coverage.L1D, 1, 0x25522071a31c7d77},
		{coverage.L1D, 2, 0xba6ad50042c7ab25},
	} {
		o := PresetFor(tc.st, 1)
		rng := rand.New(rand.NewPCG(tc.seed, tc.seed))
		h := uint64(0)
		for range 3 {
			h = h*31 + gen.NewRandom(&o.Gen, rng).Hash()
		}
		if h != tc.want {
			t.Errorf("%v seed %d: genotype hash %#x, want %#x", tc.st, tc.seed, h, tc.want)
		}
	}
}
