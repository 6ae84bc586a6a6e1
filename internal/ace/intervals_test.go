package ace

import (
	"math/rand/v2"
	"testing"
)

func TestIntervalRecorderBasics(t *testing.T) {
	r := NewIntervalRecorder(4)

	// Implicit reset write at cycle 0, read at 10: (0, 10] consumed.
	r.Read(0, 10)
	for _, tc := range []struct {
		cycle uint64
		want  bool
	}{
		{0, false}, // corruptions start at cycle 1; 0 is outside (0, 10]
		{1, true},
		{10, true},
		{11, false},
	} {
		if got := r.Consumed(0, tc.cycle); got != tc.want {
			t.Errorf("Consumed(0, %d) = %v, want %v", tc.cycle, got, tc.want)
		}
	}

	// Write at 20 kills (10, 20]; read at 30 opens (20, 30].
	r.Write(0, 20)
	r.Read(0, 30)
	for _, tc := range []struct {
		cycle uint64
		want  bool
	}{
		{15, false}, // dead between last read and the overwrite
		{20, false}, // flip at the write cycle is overwritten first
		{21, true},
		{30, true},
		{31, false},
	} {
		if got := r.Consumed(0, tc.cycle); got != tc.want {
			t.Errorf("Consumed(0, %d) = %v, want %v", tc.cycle, got, tc.want)
		}
	}

	// Untouched cell: never consumed.
	if r.Consumed(3, 5) {
		t.Error("untouched cell reported consumed")
	}
}

func TestIntervalRecorderMergesAdjacentReads(t *testing.T) {
	r := NewIntervalRecorder(1)
	// Read-read chains extend a single span instead of stacking up.
	r.Read(0, 5)
	r.Read(0, 9)
	r.Read(0, 9) // duplicate same-cycle read
	if got := len(r.cellSpans(nil, 0)); got != 1 {
		t.Fatalf("expected 1 merged span, got %d", got)
	}
	if !r.Consumed(0, 7) || !r.Consumed(0, 9) || r.Consumed(0, 10) {
		t.Fatal("merged span has wrong bounds")
	}
	// Same-cycle write+read: write lands first, so the read interval is
	// empty and must not extend the previous span.
	r.Write(0, 9)
	r.Read(0, 9)
	if r.Consumed(0, 10) {
		t.Fatal("empty write/read interval extended a span")
	}
}

// TestIntervalRecorderRangeMatchesScalar: the bulk ReadRange/WriteRange
// fast paths must record exactly what the equivalent per-cell calls do.
func TestIntervalRecorderRangeMatchesScalar(t *testing.T) {
	a := NewIntervalRecorder(256)
	b := NewIntervalRecorder(256)
	type op struct {
		write bool
		cell  int
		n     int
		cycle uint64
	}
	ops := []op{
		{true, 0, 64, 3}, {false, 0, 64, 7}, {false, 16, 32, 9},
		{true, 8, 8, 9}, {false, 0, 64, 9}, {true, 64, 128, 12},
		{false, 100, 28, 20}, {false, 100, 28, 20}, {true, 100, 1, 25},
		{false, 64, 128, 30},
	}
	for _, o := range ops {
		if o.write {
			a.WriteRange(o.cell, o.n, o.cycle)
			for i := 0; i < o.n; i++ {
				b.Write(o.cell+i, o.cycle)
			}
		} else {
			a.ReadRange(o.cell, o.n, o.cycle)
			for i := 0; i < o.n; i++ {
				b.Read(o.cell+i, o.cycle)
			}
		}
	}
	if !a.Equal(b) {
		t.Fatal("range ops diverge from per-cell ops")
	}
}

func TestIntervalRecorderEqual(t *testing.T) {
	a := NewIntervalRecorder(8)
	b := NewIntervalRecorder(8)
	a.Read(2, 5)
	if a.Equal(b) {
		t.Fatal("recorders with different spans compare equal")
	}
	b.Read(2, 5)
	if !a.Equal(b) {
		t.Fatal("identical recorders compare unequal")
	}
	b.Write(3, 7)
	if a.Equal(b) {
		t.Fatal("different lastWrite state compares equal")
	}
	var n *IntervalRecorder
	if !n.Equal(nil) || n.Equal(a) {
		t.Fatal("nil comparison wrong")
	}
	if !n.Equal(NewIntervalRecorder(0)) {
		t.Fatal("nil vs empty should compare equal")
	}
}

// TestIntervalRecorderPoolReuse: a pooled recorder must come back fully
// reset — stale spans or lastWrite state would corrupt the next
// campaign's masking proofs.
func TestIntervalRecorderPoolReuse(t *testing.T) {
	r := GetIntervalRecorder(64)
	r.Read(5, 10)
	r.Write(6, 3)
	ReleaseIntervalRecorder(r)

	r2 := GetIntervalRecorder(64)
	if !r2.Equal(NewIntervalRecorder(64)) {
		t.Fatal("pooled recorder not reset")
	}
	if r2.Consumed(5, 7) {
		t.Fatal("pooled recorder retained consumed intervals")
	}
	// A pooled recorder must also resize when reused for another shape.
	ReleaseIntervalRecorder(r2)
	r3 := GetIntervalRecorder(128)
	if r3.NumCells() != 128 {
		t.Fatalf("pooled recorder kept old size: %d cells", r3.NumCells())
	}
	ReleaseIntervalRecorder(r3)
}

// BenchmarkIntervalRecorderReuse is the allocation-count regression gate
// for recorder pooling: after warmup, a Get/use/Release cycle must not
// allocate backing storage (0 allocs/op steady state).
func BenchmarkIntervalRecorderReuse(b *testing.B) {
	const cells = 32 * 1024 // one L1D worth of byte cells
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := GetIntervalRecorder(cells)
		for c := 0; c < cells; c += 64 {
			r.WriteRange(c, 64, 2)
			r.ReadRange(c, 64, 5)
		}
		ReleaseIntervalRecorder(r)
	}
}

// TestTrackerReset: a reset sum-only recorder behaves like a fresh one,
// and it never grows the log it does not keep.
func TestTrackerReset(t *testing.T) {
	r := NewSumRecorder(4 * 64)
	r.WriteRange(64, 64, 2)
	r.ReadRange(64, 64, 10)
	if r.consumed == 0 {
		t.Fatal("recorder accumulated nothing")
	}
	r.Reset(4 * 64)
	if r.consumed != 0 || r.NumCells() != 4*64 || r.LastEvent(64) != 0 || r.arena != nil {
		t.Fatal("Reset did not clear state")
	}
	// After reset a read credits from the implicit reset write, not from
	// the pre-reset write at 2.
	r.ReadRange(64, 64, 10)
	if got := r.consumed; got != 10*64 {
		t.Fatalf("reset recorder credited %d, want %d", got, 10*64)
	}
}

// TestIntervalRecorderConsumedTotal: on a random event stream the running
// total of a sum-only recorder equals a log-keeping recorder's, and both
// equal the summed length of the log's spans. Decoding the log derives
// the same last reads and total.
func TestIntervalRecorderConsumedTotal(t *testing.T) {
	const cells = 96
	sum, log := NewSumRecorder(cells), NewIntervalRecorder(cells)
	rng := rand.New(rand.NewPCG(3, 4))
	var cycle uint64
	for range 4000 {
		cycle += uint64(rng.IntN(3))
		cell := rng.IntN(cells)
		n := 1 + rng.IntN(cells-cell)
		if rng.IntN(3) == 0 {
			sum.WriteRange(cell, n, cycle)
			log.WriteRange(cell, n, cycle)
		} else {
			sum.ReadRange(cell, n, cycle)
			log.ReadRange(cell, n, cycle)
		}
	}
	if sum.consumed != log.consumed || log.consumed != log.SpanCycles() || log.SpanCycles() == 0 {
		t.Fatalf("sum-only %d, log-keeping %d, spans %d", sum.consumed, log.consumed, log.SpanCycles())
	}
	dec, _, err := DecodeIntervalRecorder(AppendIntervalRecorder(nil, log))
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseIntervalRecorder(dec)
	if dec.consumed != log.consumed {
		t.Fatalf("decoded total %d, want %d", dec.consumed, log.consumed)
	}
	for c := range cells {
		if dec.LastEvent(c) != log.LastEvent(c) || sum.LastEvent(c) != log.LastEvent(c) {
			t.Fatalf("cell %d: last event %d decoded, %d sum-only, want %d", c, dec.LastEvent(c), sum.LastEvent(c), log.LastEvent(c))
		}
	}
}
