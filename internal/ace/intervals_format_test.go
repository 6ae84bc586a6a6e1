package ace

import (
	"bytes"
	"testing"
)

// TestIntervalCodecPinned hand-builds a two-cell recorder's bytes from
// the documented layout and checks both directions against them, so the
// embedded format cannot drift.
func TestIntervalCodecPinned(t *testing.T) {
	rec := NewIntervalRecorder(2)
	rec.lastWrite = []uint64{5, 0x0102030405060708}
	rec.push(&rec.cellLog[0], ivalSpan{start: 1, end: 3})
	rec.push(&rec.cellLog[0], ivalSpan{start: 4, end: 0x100})
	want := []byte{
		2, 0, 0, 0, // cells
		5, 0, 0, 0, 0, 0, 0, 0, // cell 0 last write
		2, 0, 0, 0, // cell 0 spans
		1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
		4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		8, 7, 6, 5, 4, 3, 2, 1, // cell 1 last write
		0, 0, 0, 0, // cell 1 spans
	}
	prefix := []byte{0xee}
	if got := AppendIntervalRecorder(append([]byte(nil), prefix...), rec); !bytes.Equal(got, append(prefix, want...)) {
		t.Fatalf("encode:\n got %x\nwant %x", got[1:], want)
	}
	// Decode stops at the recorder's end; what follows belongs to the
	// container.
	got, n, err := DecodeIntervalRecorder(append(append([]byte(nil), want...), 0xff))
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseIntervalRecorder(got)
	if n != len(want) || !got.Equal(rec) {
		t.Fatalf("decode consumed %d of %d bytes, equal=%v", n, len(want), got.Equal(rec))
	}
}
