package gates

import (
	"fmt"
	"math/bits"
)

// Pair is one operand pair of a 64-bit unit netlist: A drives inputs
// 0..63, B inputs 64..127 and Cin, on the integer adder only, input 128
// (the layout every unit in units.go shares).
type Pair struct {
	A, B uint64
	Cin  bool
}

// Table holds the distinct operand pairs a unit was invoked with and the
// fault-free result of each, packed 64 pairs to a lane word so that one
// netlist pass grades a fault against 64 of them — the parallel-pattern
// half of the evaluator that single-pair unit calls leave idle.
//
// A table is filled by Add on one goroutine and read-only afterwards:
// then any number of goroutines may Index it and Eval it, each Eval with
// its own evaluation context.
type Table struct {
	net   *Netlist
	bits  int // result width: outputs 0..bits-1
	pairs []Pair
	gold  [][2]uint64 // fault-free result per pair, low word first
	index map[Pair]int32
	in    []uint64 // NumIn input lane words per block of 64 pairs
	goldW []uint64 // bits result lane words per block
}

// NewTable returns an empty table for net, whose result is its first
// resultBits outputs: 64 for the adders' sum (the integer adder's carry
// out is not part of what its unit returns), 128 for the multiplier's
// product.
func NewTable(net *Netlist, resultBits int) *Table {
	if net.NumIn != 128 && net.NumIn != 129 || resultBits < 1 || resultBits > 128 ||
		resultBits > len(net.Outputs) {
		panic(fmt.Sprintf("gates: %s: no 64-bit operand table with %d result bits", net.Name, resultBits))
	}
	return &Table{net: net, bits: resultBits, index: make(map[Pair]int32)}
}

// Len returns the number of distinct pairs.
func (t *Table) Len() int { return len(t.pairs) }

// Index returns p's position in the table.
func (t *Table) Index(p Pair) (int32, bool) {
	i, ok := t.index[p]
	return i, ok
}

// Golden returns the fault-free result of every pair, by index. The
// slice is the table's own: read it, never write it.
func (t *Table) Golden() [][2]uint64 { return t.gold }

// Add records that the fault-free unit answered p with (lo, hi) and
// returns p's index. A pair already present keeps its index and first
// result.
func (t *Table) Add(p Pair, lo, hi uint64) int32 {
	if i, ok := t.index[p]; ok {
		return i
	}
	i := int32(len(t.pairs))
	t.index[p] = i
	t.pairs = append(t.pairs, p)
	res := [2]uint64{lo, hi}
	t.gold = append(t.gold, res)
	lane := uint(i % 64)
	if lane == 0 {
		t.in = append(t.in, make([]uint64, t.net.NumIn)...)
		t.goldW = append(t.goldW, make([]uint64, t.bits)...)
	}
	in := t.in[len(t.in)-t.net.NumIn:]
	for b := 0; b < 64; b++ {
		in[b] |= (p.A >> uint(b) & 1) << lane
		in[64+b] |= (p.B >> uint(b) & 1) << lane
	}
	if p.Cin && t.net.NumIn > 128 {
		in[128] |= 1 << lane
	}
	gw := t.goldW[len(t.goldW)-t.bits:]
	for j := range gw {
		gw[j] |= (res[j/64] >> uint(j%64) & 1) << lane
	}
	return i
}

// Eval grades fault against every pair, 64 per netlist pass: out[i]
// receives the faulty unit's result for pair i and bit i of diff is set
// when it differs from the fault-free one. It reports whether any pair
// differs. out needs Len() entries, diff ⌈Len()/64⌉, and e must evaluate
// the table's netlist.
func (t *Table) Eval(e *Eval, fault *StuckAt, out [][2]uint64, diff []uint64) bool {
	if e.n != t.net {
		panic(fmt.Sprintf("gates: table of %s evaluated on %s", t.net.Name, e.n.Name))
	}
	words := e.words
	res := words[:t.bits]
	changed := false
	for blk, base := 0, 0; base < len(t.pairs); blk, base = blk+1, base+64 {
		e.Run(t.in[blk*t.net.NumIn:(blk+1)*t.net.NumIn], words, fault)
		lanes := min(64, len(t.pairs)-base)
		gw := t.goldW[blk*t.bits : (blk+1)*t.bits]
		var d uint64
		for j, w := range res {
			d |= w ^ gw[j]
		}
		if lanes < 64 {
			d &= 1<<uint(lanes) - 1
		}
		diff[blk] = d
		copy(out[base:base+lanes], t.gold[base:base+lanes])
		for m := d; m != 0; m &= m - 1 {
			lane := uint(bits.TrailingZeros64(m))
			var r [2]uint64
			for j, w := range res {
				r[j/64] |= (w >> lane & 1) << uint(j%64)
			}
			out[base+int(lane)] = r
		}
		changed = changed || d != 0
	}
	return changed
}

// Call is one invocation in a Stream: the index of its operand pair in
// the stream's table and the cycle it executed in.
type Call struct {
	Pair  int32
	Cycle uint64
}

// Stream is the ordered record of every invocation of one unit over a
// run, wrong-path ones included: Calls in call order (so Cycle never
// decreases), each naming its pair in Table.
type Stream struct {
	Table *Table
	Calls []Call
}

// Record appends one invocation that the fault-free unit answered with
// (lo, hi).
func (s *Stream) Record(p Pair, lo, hi, cycle uint64) {
	s.Calls = append(s.Calls, Call{Pair: s.Table.Add(p, lo, hi), Cycle: cycle})
}
