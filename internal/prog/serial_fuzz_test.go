package prog

import (
	"bytes"
	"encoding/binary"
	"testing"

	"harpocrates/internal/binfmt/binfmttest"
	"harpocrates/internal/isa"
)

// TestReadRejectsHugeRegionSize is the regression test for the
// unbounded-allocation fix: a handcrafted container whose region claims
// a ~4 GiB size must be rejected by the length check, not answered with
// an allocation.
func TestReadRejectsHugeRegionSize(t *testing.T) {
	var buf bytes.Buffer
	le := binary.LittleEndian
	put := func(v any) { _ = binary.Write(&buf, le, v) }

	put(uint32(serialMagic))
	put(uint32(serialVersion))
	put(uint32(0)) // empty name
	for i := 0; i < isa.NumGPR; i++ {
		put(uint64(0))
	}
	for i := 0; i < 2*isa.NumXMM; i++ {
		put(uint64(0))
	}
	put(uint8(0)) // flags

	put(uint32(1)) // one region
	put(uint32(0)) // empty region name
	put(uint64(0x10000))
	put(uint32(0xffffffff)) // hostile size claim
	put(uint8(2))           // data present

	_, err := ReadProgram(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("4 GiB region size accepted")
	}
	t.Log(err)
}

// TestReadRejectsOverlappingRegions is the regression test for the
// worker panic: a container whose regions overlap, or whose base + size
// wraps the address space, decoded fine and then panicked NewState on
// whichever fleet worker received it. Both are refused at the door now.
func TestReadRejectsOverlappingRegions(t *testing.T) {
	for name, regions := range map[string][]RegionSpec{
		"overlap": {{Name: "a", Base: 0x1000, Size: 0x1000}, {Name: "b", Base: 0x1800, Size: 0x1000}},
		"wrap":    {{Name: "a", Base: ^uint64(0) - 0xfff, Size: 0x2000}},
	} {
		var buf bytes.Buffer
		if _, err := (&Program{Regions: regions}).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadProgram(&buf); err == nil {
			t.Errorf("%s: container accepted", name)
		}
	}
}

// TestZeroFillRegionsCostNothing: a 30-odd-byte-per-region container
// claiming 64 × 1 GiB of zero-fill is legal, and neither decoding it nor
// building and digesting a state from it may allocate for the claim — a
// region nobody wrote has no pages.
func TestZeroFillRegionsCostNothing(t *testing.T) {
	p := &Program{}
	for i := 0; i < maxSerialRegions; i++ {
		p.Regions = append(p.Regions, RegionSpec{Name: "z", Base: uint64(i) << 32, Size: maxSerialField, Writable: true})
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var err error
	got := binfmttest.AllocatedBy(func() {
		var q *Program
		if q, err = ReadProgram(bytes.NewReader(buf.Bytes())); err == nil {
			q.NewState().Signature()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got > 1<<18 {
		t.Errorf("a %d-byte container claiming 64 GiB of zero-fill allocated %d bytes", buf.Len(), got)
	}
}

// FuzzReadProgram exercises the decoder with arbitrary bytes: it must
// never panic or over-allocate, anything it accepts must build a state
// (at a cost bounded by the bytes present, whatever its zero-fill
// regions claim) and must re-encode and re-decode to the same program
// (the decoder's round-trip property).
func FuzzReadProgram(f *testing.F) {
	// Seed with well-formed containers so the fuzzer starts from valid
	// structure and mutates length fields, region flags and opcodes.
	for seed := uint64(1); seed < 4; seed++ {
		p := randomSerialProgram(f, seed)
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("HXPG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProgram(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := binfmttest.AllocatedBy(func() { p.NewState().Signature() }); got > 1<<16+4*uint64(len(data)) {
			t.Fatalf("a state for a %d-byte container allocated %d bytes", len(data), got)
		}
		// Accepted input: serialization must be stable.
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatalf("accepted program fails to serialize: %v", err)
		}
		q, err := ReadProgram(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded program fails to decode: %v", err)
		}
		var out2 bytes.Buffer
		if _, err := q.WriteTo(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("decode/encode is not a fixpoint")
		}
	})
}
