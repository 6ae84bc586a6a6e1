package inject

import (
	"bytes"
	"testing"

	"harpocrates/internal/binfmt/binfmttest"
)

// TestDecodeStatsRejectsUnbackedCount: a valid header claiming the
// maximal outcome count with no body used to make([]byte, 256 MiB)
// before reading a byte of it.
func TestDecodeStatsRejectsUnbackedCount(t *testing.T) {
	claim := EncodeStats(&Stats{})
	claim[len(claim)-1] = 0x10 // outcome count 1<<28
	var err error
	if got := binfmttest.AllocatedBy(func() { _, err = DecodeStats(claim) }); got > 1<<16 {
		t.Errorf("decoding %d bytes allocated %d", len(claim), got)
	}
	if err == nil {
		t.Error("unbacked outcome count accepted")
	}
}

// FuzzDecodeStats: arbitrary bytes never panic or allocate beyond a
// small multiple of the input, and whatever decodes is internally
// consistent and re-encodes to exactly the input.
func FuzzDecodeStats(f *testing.F) {
	good := EncodeStats(&Stats{N: 3, Masked: 1, SDC: 1, Trap: 1, GoldenCycles: 99,
		Outcomes: []Outcome{Masked, Trap, SDC}})
	f.Add(good)
	f.Add(good[:len(good)-2])
	f.Add(EncodeStats(&Stats{}))
	f.Add([]byte("RSXH"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st *Stats
		var err error
		// An Outcome is a word in memory, a byte on the wire.
		if got := binfmttest.AllocatedBy(func() { st, err = DecodeStats(data) }); got > 1<<16+16*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if len(st.Outcomes) != st.N {
			t.Fatalf("accepted %d outcomes for N=%d", len(st.Outcomes), st.N)
		}
		if out := EncodeStats(st); !bytes.Equal(out, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, out)
		}
	})
}
