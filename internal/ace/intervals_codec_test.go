package ace

import (
	"bytes"
	"testing"

	"harpocrates/internal/binfmt/binfmttest"
)

// TestDecodeRejectsUnbackedCellCount is the regression test for the
// allocate-then-read decoder: a 4-byte claim of 1<<28 cells used to
// draw an 8 GiB recorder before noticing no cell was present.
func TestDecodeRejectsUnbackedCellCount(t *testing.T) {
	live := LiveIntervalRecorders()
	for _, claim := range [][]byte{
		{0, 0, 0, 0x10}, // 1<<28 cells, no body
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10}, // one cell claiming 1<<28 spans
	} {
		var err error
		if got := binfmttest.AllocatedBy(func() { _, _, err = DecodeIntervalRecorder(claim) }); got > 1<<16 {
			t.Errorf("decoding %d bytes allocated %d", len(claim), got)
		}
		if err == nil {
			t.Errorf("claim %x accepted", claim)
		}
	}
	if got := LiveIntervalRecorders(); got != live {
		t.Fatalf("failed decodes leaked %d recorders", got-live)
	}
}

// FuzzDecodeIntervalRecorder: arbitrary bytes never panic, never
// allocate beyond a small multiple of the input, never leak a pooled
// recorder, and whatever decodes re-encodes to exactly the bytes it
// consumed.
func FuzzDecodeIntervalRecorder(f *testing.F) {
	rec := NewIntervalRecorder(4)
	rec.Write(1, 3)
	rec.Read(1, 9)
	rec.Read(2, 4)
	rec.Write(2, 6)
	rec.Read(2, 11)
	good := AppendIntervalRecorder(nil, rec)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{0, 0, 0, 0x10})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		live := LiveIntervalRecorders()
		var r *IntervalRecorder
		var n int
		var err error
		// In memory a cell costs 32 bytes against 12 on the wire.
		if got := binfmttest.AllocatedBy(func() { r, n, err = DecodeIntervalRecorder(data) }); got > 1<<16+8*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if got := LiveIntervalRecorders(); got != live {
				t.Fatalf("failed decode leaked %d recorders", got-live)
			}
			return
		}
		defer ReleaseIntervalRecorder(r)
		if out := AppendIntervalRecorder(nil, r); !bytes.Equal(out, data[:n]) {
			t.Fatalf("re-encoding differs from the %d consumed bytes", n)
		}
	})
}
