package ace

import "testing"

// The register-file rules, driven the way the simulator drives them: a
// 64-bit register p is cells p*64 .. p*64+63, a read of width w reads its
// low w cells.

func TestRegFileWriteReadInterval(t *testing.T) {
	r := NewSumRecorder(4 * 64)
	r.WriteRange(0, 64, 10)
	r.ReadRange(0, 64, 30) // W->R: 20 cycles x 64 bits ACE
	if got := r.consumed; got != 20*64 {
		t.Fatalf("ACE bit-cycles = %d, want %d", got, 20*64)
	}
}

func TestRegFileReadReadInterval(t *testing.T) {
	r := NewSumRecorder(4 * 64)
	r.WriteRange(64, 64, 0)
	r.ReadRange(64, 64, 10)
	r.ReadRange(64, 64, 25) // R->R also ACE
	if got := r.consumed; got != 25*64 {
		t.Fatalf("ACE bit-cycles = %d, want %d", got, 25*64)
	}
}

func TestRegFileWidthMask(t *testing.T) {
	r := NewSumRecorder(4 * 64)
	r.WriteRange(128, 64, 0)
	r.ReadRange(128, 8, 100) // only the low byte is ACE
	if got := r.consumed; got != 100*8 {
		t.Fatalf("ACE bit-cycles = %d, want %d", got, 100*8)
	}
	// A later full-width read credits the upper bits from the write and
	// the low bits from the previous read.
	r.ReadRange(128, 64, 150)
	want := uint64(100*8 + (150-100)*8 + 150*56)
	if got := r.consumed; got != want {
		t.Fatalf("ACE bit-cycles = %d, want %d", got, want)
	}
}

func TestRegFileOverwriteIsUnACE(t *testing.T) {
	r := NewSumRecorder(4 * 64)
	r.WriteRange(0, 64, 0)
	r.WriteRange(0, 64, 100) // W->W: nothing credited
	if got := r.consumed; got != 0 {
		t.Fatalf("ACE bit-cycles = %d, want 0", got)
	}
}

// TestRegFileFreeTailUnACE: a register's tail after its last read is
// un-ACE. Nothing reads a freed register before its next owner writes it,
// so the tail up to that write is never credited.
func TestRegFileFreeTailUnACE(t *testing.T) {
	r := NewSumRecorder(4 * 64)
	r.WriteRange(0, 64, 0)
	r.ReadRange(0, 64, 10)
	if got := r.consumed; got != 10*64 {
		t.Fatalf("ACE bit-cycles = %d, want %d", got, 10*64)
	}
	r.WriteRange(0, 64, 500) // the next owner's write
	r.ReadRange(0, 64, 600)
	if got := r.consumed; got != 10*64+100*64 {
		t.Fatalf("free tail credited: %d", got)
	}
}

func TestRegFileVulnerabilityBounds(t *testing.T) {
	r := NewSumRecorder(2 * 64)
	r.WriteRange(0, 64, 0)
	r.ReadRange(0, 64, 100)
	// One of two regs fully ACE for the whole window: 0.5.
	if v := r.Vulnerability(100); v != 0.5 {
		t.Fatalf("vulnerability = %f, want 0.5", v)
	}
	if v := r.Vulnerability(0); v != 0 {
		t.Fatalf("vulnerability of an empty run = %f, want 0", v)
	}
}

// The L1D rules, driven the way the data cache drives them: one cell per
// byte, a fill or a store writes its bytes, a load reads them, a dirty
// eviction or the final flush reads the whole line, and a clean eviction
// records nothing.

func TestCacheFillReadEvict(t *testing.T) {
	r := NewSumRecorder(128)
	r.WriteRange(0, 64, 10) // fill
	r.ReadRange(0, 8, 50)   // 8 bytes x 40 cycles
	if got := r.consumed; got != 8*40 {
		t.Fatalf("ACE byte-cycles = %d, want %d", got, 8*40)
	}
	// A clean eviction at 100 records nothing; the refill overwrites.
	r.WriteRange(0, 64, 120)
	if got := r.consumed; got != 8*40 {
		t.Fatalf("clean evict credited tail: %d", got)
	}
}

func TestCacheDirtyEvictIsACE(t *testing.T) {
	r := NewSumRecorder(128)
	r.WriteRange(0, 64, 0) // fill
	r.WriteRange(0, 8, 10) // store
	r.ReadRange(0, 64, 50) // writeback
	// Written bytes: 10->50 ACE. Clean bytes of the dirty line: 0->50 ACE
	// (their values are written back too).
	if got, want := r.consumed, uint64(8*40+56*50); got != want {
		t.Fatalf("ACE byte-cycles = %d, want %d", got, want)
	}
}

func TestCacheWriteOverwriteUnACE(t *testing.T) {
	r := NewSumRecorder(128)
	r.WriteRange(0, 64, 0)
	r.WriteRange(0, 8, 10)
	r.WriteRange(0, 8, 90) // W->W interval un-ACE
	r.ReadRange(0, 8, 100)
	if got := r.consumed; got != 8*10 {
		t.Fatalf("ACE byte-cycles = %d, want %d", got, 8*10)
	}
}

func TestCacheFinishFlushesDirty(t *testing.T) {
	r := NewSumRecorder(64)
	r.WriteRange(0, 64, 0)
	r.WriteRange(0, 16, 10)
	r.ReadRange(0, 64, 100) // the final flush writes the dirty line back
	// All 64 bytes of the dirty line ACE to the end: 16 written bytes
	// from 10, 48 filled bytes from 0.
	if got, want := r.consumed, uint64(16*90+48*100); got != want {
		t.Fatalf("ACE byte-cycles = %d, want %d", got, want)
	}
}

func TestCacheVulnerabilityBounds(t *testing.T) {
	r := NewSumRecorder(64)
	r.WriteRange(0, 64, 0)
	r.ReadRange(0, 64, 100)
	if v := r.Vulnerability(100); v != 1.0 {
		t.Fatalf("vulnerability = %f, want 1", v)
	}
}
