package corpus

import (
	"bytes"
	"reflect"
	"testing"

	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
)

// TestGenotypeFormatPinned hand-builds an HXGT container from the
// documented layout and checks both directions against it.
func TestGenotypeFormatPinned(t *testing.T) {
	g := &gen.Genotype{Seed: 0x0102030405060708, Variants: []isa.VariantID{1, 0x0203, 0xffff}}
	want := []byte{
		0x54, 0x47, 0x58, 0x48, // magic 0x48584754
		1, 0, 0, 0, // version
		8, 7, 6, 5, 4, 3, 2, 1, // seed
		3, 0, 0, 0, // variant count
		1, 0, 3, 2, 0xff, 0xff,
	}
	if got := EncodeGenotype(g); !bytes.Equal(got, want) {
		t.Fatalf("encode:\n got %x\nwant %x", got, want)
	}
	got, err := DecodeGenotype(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, g) {
		t.Fatalf("decode: got %+v, want %+v", got, g)
	}
}
