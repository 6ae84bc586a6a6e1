package ace

import "testing"

// sumFuzzCells is four whole 64-cell blocks plus a 16-cell tail the
// segment state never covers.
const sumFuzzCells = 4*blockCells + 16

// sumOp encodes one recorder event as three bytes: op[0] bit 0 selects a
// write, bits 1-2 the cycle step (0-3); op[1] bit 7 selects an aligned
// block-prefix access of op[1]%5 in {8, 16, 32, 64, 128} cells at block
// op[2]%4, otherwise op[1]%128+1 cells at cell op[2]; the range is
// clipped to the recorder.
func sumOp(write bool, step, width, at byte) []byte {
	b0 := step << 1
	if write {
		b0 |= 1
	}
	return []byte{b0, width, at}
}

// replayOps drives each recorder through the events data encodes (see
// sumOp) and returns the cycle of the last.
func replayOps(data []byte, recs ...interface {
	WriteRange(cell, n int, cycle uint64)
	ReadRange(cell, n int, cycle uint64)
}) uint64 {
	var cycle uint64
	for ; len(data) >= 3; data = data[3:] {
		write := data[0]&1 != 0
		cycle += uint64(data[0] >> 1 & 3)
		var cell, n int
		if data[1]&0x80 != 0 {
			n = []int{8, 16, 32, 64, 128}[int(data[1]&0x7f)%5]
			cell = int(data[2]%4) * blockCells
		} else {
			n = int(data[1])%128 + 1
			cell = int(data[2]) % sumFuzzCells
		}
		n = min(n, sumFuzzCells-cell)
		for _, r := range recs {
			if write {
				r.WriteRange(cell, n, cycle)
			} else {
				r.ReadRange(cell, n, cycle)
			}
		}
	}
	return cycle
}

// aligned is the width byte of an aligned block-prefix access of n cells.
func aligned(n int) byte {
	for i, w := range []int{8, 16, 32, 64, 128} {
		if w == n {
			return 0x80 | byte(i)
		}
	}
	panic("not a prefix width")
}

// FuzzSumRecorder: a sum-only recorder — segment state for whole blocks,
// per-cell state for the rest — consumes exactly what the per-cell rule
// (refLog) does on any event sequence, and so does a log-keeping
// recorder, whose span total equals it.
func FuzzSumRecorder(f *testing.F) {
	// IRF: whole-register writes, reads of 8/16/32/64 bits from bit 0.
	var irf []byte
	for i, w := range []int{64, 8, 16, 64, 32, 8, 64, 64, 16, 32} {
		irf = append(irf, sumOp(i%3 == 0, byte(i%4), aligned(w), byte(i))...)
	}
	f.Add(irf)
	// FPRF: 128-bit writes of register pairs, reads of 64 or 128 bits.
	var fprf []byte
	for i, w := range []int{128, 64, 128, 128, 64, 128, 64} {
		fprf = append(fprf, sumOp(i%2 == 0, 1, aligned(w), byte(2*(i%2)))...)
	}
	f.Add(fprf)
	// L1D: line fills and reads mixed with unaligned byte accesses.
	f.Add(append(append(sumOp(true, 1, aligned(64), 1), sumOp(false, 2, 3, 70)...),
		append(sumOp(true, 0, 0, 71), sumOp(false, 3, aligned(64), 1)...)...))
	f.Add([]byte{0, 127, 200, 3, 0x80, 3, 6, 0x83, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		sum, log, ref := NewSumRecorder(sumFuzzCells), NewIntervalRecorder(sumFuzzCells), newRefLog(sumFuzzCells)
		cycle := replayOps(data, sum, log, ref)
		if sum.consumed != ref.consumed || log.consumed != ref.consumed || log.SpanCycles() != ref.consumed {
			t.Fatalf("sum-only %d, log-keeping %d, spans %d, want %d", sum.consumed, log.consumed, log.SpanCycles(), ref.consumed)
		}
		if a, b := sum.Vulnerability(cycle+1), log.Vulnerability(cycle+1); a != b {
			t.Fatalf("vulnerability %v sum-only, %v log-keeping", a, b)
		}
		for c := range sumFuzzCells {
			want := max(ref.lastWrite[c], ref.lastRead[c])
			if sum.LastEvent(c) != want || log.LastEvent(c) != want {
				t.Fatalf("cell %d: last event %d sum-only, %d log-keeping, want %d", c, sum.LastEvent(c), log.LastEvent(c), want)
			}
		}
	})
}

// TestSumRecorderSegmentPath: IRF-shaped traffic never leaves the
// segment state, and a byte access spreads only the block it touches.
func TestSumRecorderSegmentPath(t *testing.T) {
	r := NewSumRecorder(4 * blockCells)
	r.WriteRange(64, 64, 10)
	r.ReadRange(64, 32, 30) // 20 cycles x 32 cells
	if r.consumed != 20*32 {
		t.Fatalf("a 32-bit read consumed %d, want %d", r.consumed, 20*32)
	}
	r.ReadRange(64, 64, 40) // 10 x 32 (low half) + 30 x 32 (high half)
	r.ReadRange(128, 8, 5)  // from the reset write: 5 x 8
	if want := uint64(20*32 + 10*32 + 30*32 + 5*8); r.consumed != want {
		t.Fatalf("consumed %d, want %d", r.consumed, want)
	}
	for b := range r.blocks {
		if !r.blocks[b].whole {
			t.Fatalf("block %d left the segment state on prefix traffic", b)
		}
	}
	r.ReadRange(64+3, 2, 50)
	if r.blocks[1].whole || !r.blocks[0].whole || !r.blocks[2].whole {
		t.Fatal("a byte read must spread its own block and no other")
	}
	if want := uint64(20*32+10*32+30*32+5*8) + 2*10; r.consumed != want {
		t.Fatalf("consumed %d after the spread, want %d", r.consumed, want)
	}
	r.WriteRange(64, 64, 60)
	if !r.blocks[1].whole {
		t.Fatal("a whole write must restore the segment state")
	}
}
