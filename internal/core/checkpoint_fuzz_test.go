package core

import (
	"bytes"
	"testing"

	"harpocrates/internal/binfmt"
	"harpocrates/internal/binfmt/binfmttest"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
)

func encodeSnapshot(t testing.TB, s *snapshot) []byte {
	t.Helper()
	c := binfmt.NewEncoder(nil)
	if err := s.codec(c); err != nil {
		t.Fatal(err)
	}
	return c.Encoded()
}

// TestReadSnapshotRejectsUnbackedCounts: a valid prefix followed by a
// count at its ceiling and no body — the history series used to
// make([]float64, 1<<24), the variant list 32 MiB — must be refused
// without allocating for it.
func TestReadSnapshotRejectsUnbackedCounts(t *testing.T) {
	empty := encodeSnapshot(t, &snapshot{hist: &History{}})
	// header 8, optsHash 8, nextIt 4, rng count 4 | Best count at 24,
	// MeanTopK count 4, three u64 counters 24, pop count 4 | memo count at 60.
	claims := map[string][]byte{
		"history series": append(append([]byte{}, empty[:24]...), 0, 0, 0, 1), // 1<<24
		"memo":           append(append([]byte{}, empty[:60]...), 0, 0, 0, 4), // 1<<26
	}
	pop := encodeSnapshot(t, &snapshot{hist: &History{}, pop: []*Individual{{G: &gen.Genotype{}}}})
	variantCount := 60 + individualBytes - 4
	claims["variants"] = append(append([]byte{}, pop[:variantCount]...), 0, 0, 0, 1) // 1<<24
	for name, claim := range claims {
		var err error
		if got := binfmttest.AllocatedBy(func() { _, err = readSnapshot(bytes.NewReader(claim)) }); got > 1<<16 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(claim), got)
		}
		if err == nil {
			t.Errorf("%s: unbacked count accepted", name)
		}
	}
}

// FuzzReadSnapshot: arbitrary bytes never panic or allocate beyond a
// small multiple of the input, and whatever decodes re-encodes to
// exactly the input. The version-2 seeds keep the refusal of a removed
// mode's file on the fuzzed path.
func FuzzReadSnapshot(f *testing.F) {
	cov := coverage.Snapshot{Cycles: 3, IRFVuln: 0.5}
	s := &snapshot{
		optsHash: 1, nextIt: 2, rng: []byte{1, 2, 3, 4},
		hist: &History{Best: []float64{0.1, 0.2}, MeanTopK: []float64{0.05, 0.1}, EvaluatedPrograms: 4},
		pop:  []*Individual{{Fitness: 0.2, Snapshot: cov, G: &gen.Genotype{Seed: 9, Variants: []isa.VariantID{1, 2, 3}}}},
		memo: evalCache{7: {Fitness: 0.2, Snapshot: cov}, 3: {}},
	}
	v1 := encodeSnapshot(f, s)
	v2 := append(append([]byte{}, v1...), 0, 0, 0, 0, 0, 0, 0, 0) // no arms, empty archive
	v2[4] = snapVersionRemoved
	f.Add(v1)
	f.Add(v2)
	f.Add(v1[:len(v1)/2])
	f.Add(append(append([]byte{}, v2[:24]...), 0xff, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got *snapshot
		var err error
		// Memo entries live in a map, population members behind pointers.
		if n := binfmttest.AllocatedBy(func() { got, err = readSnapshot(bytes.NewReader(data)) }); n > 1<<16+16*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if out := encodeSnapshot(t, got); !bytes.Equal(out, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, out)
		}
	})
}
