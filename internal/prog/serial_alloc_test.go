package prog

import (
	"bytes"
	"testing"

	"harpocrates/internal/binfmt/binfmttest"
)

// TestReadRejectsUnbackedRegion: a data region claiming exactly the
// 1 GiB ceiling — so only the bytes-remaining rule can refuse it — with
// no body behind it must cost no more than the bytes present.
func TestReadRejectsUnbackedRegion(t *testing.T) {
	p := &Program{Regions: []RegionSpec{{Name: "r", Base: 0x10000, Data: make([]byte, 64)}}}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The region's u32 size sits 5 bytes (size + flag byte) before its data.
	claim := buf.Bytes()[:buf.Len()-8-64]
	sz := len(claim) - 5
	if claim[sz] != 64 {
		t.Fatalf("size field not where the layout puts it: %x", claim[sz:])
	}
	copy(claim[sz:], []byte{0, 0, 0, 0x40}) // 1<<30
	var err error
	if got := binfmttest.AllocatedBy(func() { _, err = ReadProgram(bytes.NewReader(claim)) }); got > 1<<16 {
		t.Errorf("decoding %d bytes allocated %d", len(claim), got)
	}
	if err == nil {
		t.Error("unbacked region accepted")
	}
}

// TestSerializeAllocatesOnce: Serialize sizes its buffer up front, so
// a program costs one allocation, and its bytes are WriteTo's.
func TestSerializeAllocatesOnce(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		p := randomSerialProgram(t, seed)
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), p.Serialize()) {
			t.Fatalf("seed %d: WriteTo differs from Serialize (%v)", seed, err)
		}
		if n := testing.AllocsPerRun(10, func() { p.Serialize() }); n != 1 {
			t.Errorf("seed %d: Serialize allocated %v times (%d instruction bytes for %d instructions)",
				seed, n, p.EncodedLen(), len(p.Insts))
		}
	}
}
