package ace

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"sort"
	"testing"
)

// refLog is the per-cell log rule, one cell at a time with one span
// slice each: the reference the recorder's segment blocks must reproduce
// exactly.
type refLog struct {
	lastWrite, lastRead []uint64
	spans               [][]ivalSpan
	consumed            uint64
}

func newRefLog(cells int) *refLog {
	return &refLog{
		lastWrite: make([]uint64, cells),
		lastRead:  make([]uint64, cells),
		spans:     make([][]ivalSpan, cells),
	}
}

func (r *refLog) WriteRange(cell, n int, cycle uint64) {
	for c := cell; c < cell+n; c++ {
		r.lastWrite[c] = cycle
	}
}

func (r *refLog) ReadRange(cell, n int, cycle uint64) {
	for c := cell; c < cell+n; c++ {
		w := r.lastWrite[c]
		from := max(w, r.lastRead[c])
		if cycle <= from {
			continue
		}
		r.consumed += cycle - from
		r.lastRead[c] = cycle
		s := r.spans[c]
		if ln := len(s); ln > 0 && w <= s[ln-1].end {
			s[ln-1].end = cycle
		} else {
			r.spans[c] = append(s, ivalSpan{start: w, end: cycle})
		}
	}
}

func (r *refLog) consumedAt(cell int, cycle uint64) bool {
	s := r.spans[cell]
	i := sort.Search(len(s), func(i int) bool { return s[i].end >= cycle })
	return i < len(s) && s[i].start < cycle
}

// encode lays the log out as intervals_codec.go documents it.
func (r *refLog) encode() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, uint32(len(r.lastWrite)))
	for c, w := range r.lastWrite {
		b = le.AppendUint32(le.AppendUint64(b, w), uint32(len(r.spans[c])))
		for _, sp := range r.spans[c] {
			b = le.AppendUint64(le.AppendUint64(b, sp.start), sp.end)
		}
	}
	return b
}

// checkAgainstRef holds a log-keeping recorder, reused from a dirty
// state as the pool reuses one, to the per-cell rule on the events data
// encodes: its total, last events, Consumed at every cell and cycle up
// to two past the last event, its bytes, and its decoding's Equal.
func checkAgainstRef(t *testing.T, data []byte) {
	t.Helper()
	rec := GetIntervalRecorder(sumFuzzCells)
	defer ReleaseIntervalRecorder(rec)
	replayOps(data, rec)
	rec.Reset(sumFuzzCells)
	ref := newRefLog(sumFuzzCells)
	last := replayOps(data, rec, ref)

	if rec.consumed != ref.consumed || rec.SpanCycles() != ref.consumed {
		t.Fatalf("consumed %d, spans %d, want %d", rec.consumed, rec.SpanCycles(), ref.consumed)
	}
	for c := range sumFuzzCells {
		if got, want := rec.LastEvent(c), max(ref.lastWrite[c], ref.lastRead[c]); got != want {
			t.Fatalf("cell %d: last event %d, want %d", c, got, want)
		}
		for cycle := range last + 3 {
			if got, want := rec.Consumed(c, cycle), ref.consumedAt(c, cycle); got != want {
				t.Fatalf("cell %d: Consumed(%d) = %v, want %v", c, cycle, got, want)
			}
		}
	}
	enc := AppendIntervalRecorder(nil, rec)
	if want := ref.encode(); !bytes.Equal(enc, want) {
		t.Fatalf("encoding differs from the per-cell log's:\n got %x\nwant %x", enc, want)
	}
	dec, _, err := DecodeIntervalRecorder(enc)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseIntervalRecorder(dec)
	if !dec.Equal(rec) || !rec.Equal(dec) || dec.consumed != rec.consumed {
		t.Fatal("decoding is not Equal to the recorder")
	}
}

// Events (see sumOp) for the three ways a segment log can go wrong.
var (
	// A span opens at the block's write, not at a later read: the
	// write's cycle must survive the read and the spread after it.
	oracleWriteApartFromRead = bytes.Join([][]byte{
		sumOp(true, 2, aligned(64), 0),  // whole write at 2
		sumOp(false, 3, aligned(8), 0),  // read [0,8) at 5
		sumOp(false, 1, 0, 3),           // byte read at 6 spreads
		sumOp(false, 1, aligned(64), 0), // per-cell read at 7
	}, nil)
	// A spread moves each segment's current span into its cells, where
	// the next read extends it, and leaves none behind.
	oracleSpreadMovesCurrent = bytes.Join([][]byte{
		sumOp(true, 1, aligned(64), 1),  // whole write of block 1 at 1
		sumOp(false, 2, aligned(64), 1), // read at 3
		sumOp(true, 2, 0, 70),           // byte write at 5 spreads
		sumOp(false, 2, aligned(64), 1), // read at 7 extends all but byte 70
		sumOp(true, 1, aligned(64), 1),  // whole write at 8 gathers
		sumOp(false, 1, aligned(32), 1), // read at 9 opens a new span
	}, nil)
	// A cell read in the cycle of a whole write extends its span across
	// the write, so the write must not gather its block.
	oracleSameCycleRead = bytes.Join([][]byte{
		sumOp(true, 1, 2, 129),          // bytes 129-131 written at 1: block 2 spread
		sumOp(false, 2, aligned(64), 2), // per-cell read at 3
		sumOp(true, 0, aligned(64), 2),  // whole write at 3
		sumOp(false, 3, aligned(64), 2), // read at 6 extends (.., 3] to 6
	}, nil)
)

// FuzzIntervalLog: on any event sequence a log-keeping recorder logs
// what the per-cell rule does (checkAgainstRef).
func FuzzIntervalLog(f *testing.F) {
	f.Add(oracleWriteApartFromRead)
	f.Add(oracleSpreadMovesCurrent)
	f.Add(oracleSameCycleRead)
	f.Add([]byte{0, 127, 200, 3, 0x80, 3, 6, 0x83, 1})
	f.Fuzz(checkAgainstRef)
}

// TestIntervalLogMatchesRef runs checkAgainstRef on random sequences
// biased toward the segment path: aligned register-shaped accesses with
// byte accesses among them, cycles stepping by 0-3.
func TestIntervalLogMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for range 600 {
		data := make([]byte, 3*(1+rng.IntN(40)))
		for i := 0; i < len(data); i += 3 {
			data[i] = byte(rng.IntN(8))
			if rng.IntN(4) == 0 {
				data[i+1] = byte(rng.IntN(8))
			} else {
				data[i+1] = 0x80 | byte(rng.IntN(5))
			}
			data[i+2] = byte(rng.IntN(256))
		}
		checkAgainstRef(t, data)
	}
}
