package corpus

import (
	"bytes"
	"testing"

	"harpocrates/internal/binfmt/binfmttest"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
)

// TestDecodeGenotypeRejectsUnbackedCount: a valid header claiming the
// maximal variant count with no body used to allocate 32 MiB up front.
func TestDecodeGenotypeRejectsUnbackedCount(t *testing.T) {
	claim := EncodeGenotype(&gen.Genotype{})
	claim[len(claim)-1] = 0x01 // variant count 1<<24
	var err error
	if got := binfmttest.AllocatedBy(func() { _, err = DecodeGenotype(claim) }); got > 1<<16 {
		t.Errorf("decoding %d bytes allocated %d", len(claim), got)
	}
	if err == nil {
		t.Error("unbacked variant count accepted")
	}
}

// FuzzDecodeGenotype: arbitrary bytes never panic or allocate beyond a
// small multiple of the input, and whatever decodes re-encodes to
// exactly the input.
func FuzzDecodeGenotype(f *testing.F) {
	good := EncodeGenotype(&gen.Genotype{Seed: 7, Variants: []isa.VariantID{3, 1, 4, 1, 5}})
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(EncodeGenotype(&gen.Genotype{}))
	f.Add([]byte("TGXH"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g *gen.Genotype
		var err error
		if got := binfmttest.AllocatedBy(func() { g, err = DecodeGenotype(data) }); got > 1<<16+4*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if out := EncodeGenotype(g); !bytes.Equal(out, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, out)
		}
	})
}
