package mutate

import (
	"math/rand/v2"
	"testing"

	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
)

func cfg() gen.Config {
	c := gen.DefaultConfig()
	c.NumInstrs = 400
	return c
}

func TestReplaceAllReplacesEveryOccurrence(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		g := gen.NewRandom(&c, rng)
		m := ReplaceAll(g, &c, rng)
		if len(m.Variants) != len(g.Variants) {
			t.Fatal("mutation changed program length")
		}
		// Find which variant was replaced (positions that differ).
		var removed, added int32 = -1, -1
		for i := range g.Variants {
			if g.Variants[i] != m.Variants[i] {
				if removed == -1 {
					removed = int32(g.Variants[i])
					added = int32(m.Variants[i])
				}
				if int32(g.Variants[i]) != removed || int32(m.Variants[i]) != added {
					t.Fatal("more than one variant class changed")
				}
			}
		}
		if removed == -1 {
			// The replacement is resampled until distinct from the
			// target, so every draw must change at least one position.
			t.Fatal("ReplaceAll produced a no-op mutant")
		}
		// Every original occurrence must be gone.
		for i, v := range m.Variants {
			if int32(v) == removed && int32(g.Variants[i]) == removed && removed != added {
				t.Fatal("an occurrence survived ReplaceAll")
			}
		}
	}
}

func TestReplaceAllProducesValidMutants(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewPCG(3, 4))
	g := gen.NewRandom(&c, rng)
	for i := 0; i < 30; i++ {
		g = ReplaceAll(g, &c, rng)
		p := gen.Materialize(g, &c)
		if _, _, err := p.GoldenRun(10 * c.NumInstrs); err != nil {
			t.Fatalf("mutant %d crashed: %v", i, err)
		}
	}
}

func TestReplaceAllDoesNotMutateParent(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewPCG(5, 6))
	g := gen.NewRandom(&c, rng)
	orig := g.Clone()
	_ = ReplaceAll(g, &c, rng)
	for i := range g.Variants {
		if g.Variants[i] != orig.Variants[i] {
			t.Fatal("parent genotype mutated in place")
		}
	}
}

func TestPointChangesAtMostOnePosition(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewPCG(7, 8))
	g := gen.NewRandom(&c, rng)
	m := Point(g, &c, rng)
	diff := 0
	for i := range g.Variants {
		if g.Variants[i] != m.Variants[i] {
			diff++
		}
	}
	if diff > 1 {
		t.Fatalf("point mutation changed %d positions", diff)
	}
}

func TestCrossoverChildMixesParents(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewPCG(9, 10))
	a := gen.NewRandom(&c, rng)
	b := gen.NewRandom(&c, rng)
	child := CrossoverK(a, b, 3, rng)
	fromA, fromB := 0, 0
	for i := range child.Variants {
		switch child.Variants[i] {
		case a.Variants[i]:
			fromA++
		case b.Variants[i]:
			fromB++
		default:
			t.Fatal("child position matches neither parent")
		}
	}
	if fromA == 0 || fromB == 0 {
		t.Skip("degenerate cut placement") // rare, acceptable
	}
}

func TestCrossoverMutantsValid(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewPCG(11, 12))
	a := gen.NewRandom(&c, rng)
	b := gen.NewRandom(&c, rng)
	for i := 0; i < 10; i++ {
		child := CrossoverK(a, b, 1+i%5, rng)
		p := gen.Materialize(child, &c)
		if _, _, err := p.GoldenRun(10 * c.NumInstrs); err != nil {
			t.Fatalf("crossover child crashed: %v", err)
		}
	}
}

func TestReplaceAllNeverNoOp(t *testing.T) {
	// Regression: the replacement used to be drawn uniformly from the
	// whole pool, so repl == target produced a no-op mutant that burned
	// an evaluation slot. With a 2-variant pool the collision rate was
	// ~50% per draw, so the pre-fix code fails this immediately.
	c := cfg()
	c.Allowed = c.Allowed[:2]
	c.NumInstrs = 50
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 500; trial++ {
		g := gen.NewRandom(&c, rng)
		m := ReplaceAll(g, &c, rng)
		same := true
		for i := range g.Variants {
			if g.Variants[i] != m.Variants[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("trial %d: ReplaceAll returned a no-op mutant", trial)
		}
	}
}

func TestReplaceAllSingleVariantPool(t *testing.T) {
	// A pool with one variant cannot offer a distinct replacement: the
	// mutant is the parent's clone, and the call must terminate.
	c := cfg()
	c.Allowed = c.Allowed[:1]
	c.NumInstrs = 20
	rng := rand.New(rand.NewPCG(15, 16))
	g := gen.NewRandom(&c, rng)
	m := ReplaceAll(g, &c, rng)
	for i := range g.Variants {
		if m.Variants[i] != g.Variants[i] {
			t.Fatal("single-variant pool produced a changed mutant")
		}
	}
}

func TestCrossoverKDistinctCuts(t *testing.T) {
	// Regression: cut points used to be sampled with replacement, so
	// duplicate cuts cancelled (two toggles at the same index) and
	// k-point crossover silently degraded to fewer cuts. With distinct
	// cuts, k < n must always produce exactly k segment boundaries.
	c := cfg()
	rng := rand.New(rand.NewPCG(17, 18))
	n := 8
	a := &gen.Genotype{Variants: make([]isa.VariantID, n), Seed: 1}
	b := &gen.Genotype{Variants: make([]isa.VariantID, n), Seed: 2}
	for i := 0; i < n; i++ {
		a.Variants[i] = c.Allowed[0]
		b.Variants[i] = c.Allowed[1]
	}
	for trial := 0; trial < 200; trial++ {
		k := 1 + trial%(n-1) // k in [1, n)
		child := CrossoverK(a, b, k, rng)
		// Count segment boundaries: positions where the source parent
		// changes, with the implicit source before position 0 being A.
		boundaries := 0
		prevB := false
		for i := 0; i < n; i++ {
			curB := child.Variants[i] == b.Variants[i]
			if curB != prevB {
				boundaries++
			}
			prevB = curB
		}
		if boundaries != k {
			t.Fatalf("trial %d: k=%d cuts produced %d segment boundaries", trial, k, boundaries)
		}
	}
}

func TestCrossoverKClampsToLength(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewPCG(19, 20))
	n := 4
	a := &gen.Genotype{Variants: make([]isa.VariantID, n), Seed: 1}
	b := &gen.Genotype{Variants: make([]isa.VariantID, n), Seed: 2}
	for i := 0; i < n; i++ {
		a.Variants[i] = c.Allowed[0]
		b.Variants[i] = c.Allowed[1]
	}
	child := CrossoverK(a, b, 100, rng) // k > n: every index is a cut
	for i := 0; i < n; i++ {
		want := b.Variants[i]
		if i%2 == 1 {
			want = a.Variants[i]
		}
		if child.Variants[i] != want {
			t.Fatalf("k=n crossover: position %d from wrong parent", i)
		}
	}
}
