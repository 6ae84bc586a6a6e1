// Package mutate implements MuSeqGen's program mutation engine (paper
// §V-B1). The engine operates on genotypes (variant sequences);
// re-materialization by the generator guarantees every mutant is valid
// assembly, because mutations "comply with ISA constraints" by
// construction.
//
// The paper's production strategy is ReplaceAll: replace every
// occurrence of one randomly selected instruction variant with another
// uniformly random variant. Point mutation and k-point crossover are
// provided for the mutation-strategy ablation.
package mutate

import (
	"math/rand/v2"

	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
)

// ReplaceAll returns a mutant in which all occurrences of one randomly
// chosen variant present in the sequence are replaced by a uniformly
// random *other* variant from the pool ("the same mnemonics with
// different operand types are handled as distinct instructions"). The
// paper replaces a variant with another variant (§V-B1), so the
// replacement is resampled until it differs from the target — a draw of
// repl == target would produce a no-op mutant that burns an evaluation
// slot without exploring anything. When the pool holds no variant
// distinct from the target (single-variant pools), the clone is
// returned unchanged rather than looping forever.
func ReplaceAll(g *gen.Genotype, cfg *gen.Config, rng *rand.Rand) *gen.Genotype {
	m := g.Clone()
	if len(m.Variants) == 0 {
		return m
	}
	target := m.Variants[rng.IntN(len(m.Variants))]
	repl := cfg.Allowed[rng.IntN(len(cfg.Allowed))]
	for repl == target {
		if !poolHasDistinct(cfg.Allowed, target) {
			return m
		}
		repl = cfg.Allowed[rng.IntN(len(cfg.Allowed))]
	}
	for i, v := range m.Variants {
		if v == target {
			m.Variants[i] = repl
		}
	}
	return m
}

// poolHasDistinct reports whether the pool offers any variant other
// than target (checked lazily, only after a colliding draw).
func poolHasDistinct(pool []isa.VariantID, target isa.VariantID) bool {
	for _, v := range pool {
		if v != target {
			return true
		}
	}
	return false
}

// Point returns a mutant with a single position replaced by a random
// pool variant.
func Point(g *gen.Genotype, cfg *gen.Config, rng *rand.Rand) *gen.Genotype {
	m := g.Clone()
	if len(m.Variants) == 0 {
		return m
	}
	m.Variants[rng.IntN(len(m.Variants))] = cfg.Allowed[rng.IntN(len(cfg.Allowed))]
	return m
}

// CrossoverK performs k-point crossover between two parents of equal
// length, returning one child (segments alternate between parents). The
// k cut points are distinct, so k < n always yields exactly k segment
// boundaries; k is clamped to the sequence length.
func CrossoverK(a, b *gen.Genotype, k int, rng *rand.Rand) *gen.Genotype {
	n := len(a.Variants)
	if len(b.Variants) != n {
		panic("mutate: crossover requires equal-length genotypes")
	}
	child := a.Clone()
	if n == 0 || k <= 0 {
		return child
	}
	if k > n {
		k = n
	}
	// Sample k *distinct* cut points (partial Fisher-Yates over the
	// index space). Sampling with replacement would let duplicate cuts
	// cancel — two toggles at the same index — silently degrading
	// k-point crossover to fewer cuts.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	isCut := make([]bool, n)
	for i := 0; i < k; i++ {
		j := i + rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		isCut[idx[i]] = true
	}
	// Walk the sequence, toggling the source parent at each cut.
	useB := false
	for i := 0; i < n; i++ {
		if isCut[i] {
			useB = !useB
		}
		if useB {
			child.Variants[i] = b.Variants[i]
		}
	}
	// The child inherits a fresh operand seed derived from both parents.
	child.Seed = a.Seed*0x9e3779b97f4a7c15 ^ b.Seed
	return child
}
