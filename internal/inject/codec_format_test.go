package inject

import (
	"bytes"
	"testing"
)

// TestStatsFormatPinned hand-builds an HXSR container from the
// documented layout and checks both directions against it.
func TestStatsFormatPinned(t *testing.T) {
	st := &Stats{
		N: 5, Masked: 1, SDC: 1, Crash: 1, Hang: 1, Trap: 1,
		GoldenCycles: 0x1122334455,
		Outcomes:     []Outcome{Masked, SDC, Crash, Hang, Trap},
	}
	want := []byte{
		0x52, 0x53, 0x58, 0x48, // magic 0x48585352
		1, 0, 0, 0, // version
		5, 0, 0, 0, // N
		1, 0, 0, 0, // masked
		1, 0, 0, 0, // SDC
		1, 0, 0, 0, // crash
		1, 0, 0, 0, // hang
		1, 0, 0, 0, // trap
		0, 0, 0, 0, // skipped
		0x55, 0x44, 0x33, 0x22, 0x11, 0, 0, 0, // golden cycles
		5, 0, 0, 0, // outcome count
		0, 1, 2, 3, 4,
	}
	if got := EncodeStats(st); !bytes.Equal(got, want) {
		t.Fatalf("encode:\n got %x\nwant %x", got, want)
	}
	got, err := DecodeStats(want)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(st) {
		t.Fatalf("decode: got %+v, want %+v", got, st)
	}
}
