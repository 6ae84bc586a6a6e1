// Package gates implements structural gate-level models of CPU functional
// units, the substrate the paper grades permanent faults on ("All
// functional unit components are modeled at gate level", §III-C).
//
// A Netlist is a topologically-ordered array of two-input primitive gates.
// Evaluation is 64-lane bit-parallel: every wire carries a uint64 whose
// bits are 64 independent input patterns, so one pass over the netlist
// simulates 64 operand pairs (classic parallel-pattern single-fault
// propagation). Build levelizes the gate array once into runs of one gate
// type at one logic level, so a pass is one tight loop per run rather
// than one type switch per gate. Stuck-at-0/1 faults can be injected at
// any gate output; the override is applied right after the run holding
// the gate, before any reader of it runs, so all downstream logic sees the
// faulty value, giving exact logical masking behaviour.
package gates

import (
	"fmt"
	"slices"
	"sort"
)

// GateType enumerates the primitive gates.
type GateType uint8

// Primitive gate types.
const (
	GInput GateType = iota // external input; A is the input ordinal
	GConst0
	GConst1
	GBuf // A
	GNot // A
	GAnd // A, B
	GOr
	GXor
	GNand
	GNor
	GXnor

	numGateTypes
)

var gateNames = [numGateTypes]string{
	"input", "const0", "const1", "buf", "not", "and", "or", "xor", "nand", "nor", "xnor",
}

func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("gate?%d", uint8(t))
}

// Gate is one primitive gate. A and B index earlier gates in the netlist
// (for GInput, A is the external input ordinal).
type Gate struct {
	Type GateType
	A, B int32
}

// Netlist is a topologically ordered combinational circuit.
type Netlist struct {
	Name    string
	Gates   []Gate
	NumIn   int   // number of external inputs
	Outputs []int // gate indices, in output-ordinal order

	// The evaluation order Build derives: gates sorted by (level, type),
	// where an input or constant is level 0 and any other gate one more
	// than its deepest operand. A gate's position is its slot in that
	// order; Gates and gate numbering are untouched.
	pos    []int32    // position of each gate
	runs   []run      // maximal position ranges of one type at one level
	ops    []operands // per position
	outPos []int32    // position of each output
}

// operands are a gate's operand positions, or an input's ordinal in a.
type operands struct{ a, b int32 }

// run is a range [lo, hi) of positions holding gates of one type at one
// level. No gate reads another of its own level, so a run's gates are
// independent of each other and of every later run of the same level.
type run struct {
	typ    GateType
	lo, hi int32
}

// NumGates returns the total gate count (inputs and constants included).
func (n *Netlist) NumGates() int { return len(n.Gates) }

// StuckAt is a permanent fault at a gate output.
type StuckAt struct {
	Gate  int
	Value bool // stuck-at-1 if true, stuck-at-0 if false
}

// Bus is an ordered list of gate indices, least-significant bit first.
type Bus []int

// Builder incrementally constructs a netlist.
type Builder struct {
	n *Netlist
}

// NewBuilder starts a new netlist.
func NewBuilder(name string) *Builder {
	return &Builder{n: &Netlist{Name: name}}
}

func (b *Builder) add(t GateType, a, bb int) int {
	if len(b.n.Gates) == cap(b.n.Gates) {
		// Double the array: append grows a large slice by a quarter at a
		// time, copying a 25k-gate netlist about five times over.
		b.n.Gates = slices.Grow(b.n.Gates, max(len(b.n.Gates), 1024))
	}
	b.n.Gates = append(b.n.Gates, Gate{Type: t, A: int32(a), B: int32(bb)})
	return len(b.n.Gates) - 1
}

// Input declares a new external input and returns its gate index.
func (b *Builder) Input() int {
	g := b.add(GInput, b.n.NumIn, 0)
	b.n.NumIn++
	return g
}

// InputBus declares w external inputs (LSB first).
func (b *Builder) InputBus(w int) Bus {
	bus := make(Bus, w)
	for i := range bus {
		bus[i] = b.Input()
	}
	return bus
}

// Const returns a constant wire.
func (b *Builder) Const(v bool) int {
	if v {
		return b.add(GConst1, 0, 0)
	}
	return b.add(GConst0, 0, 0)
}

// ConstBus returns a w-bit bus holding value v.
func (b *Builder) ConstBus(w int, v uint64) Bus {
	bus := make(Bus, w)
	for i := range bus {
		bus[i] = b.Const(v>>uint(i)&1 != 0)
	}
	return bus
}

// Primitive gate constructors.

func (b *Builder) Not(a int) int     { return b.add(GNot, a, 0) }
func (b *Builder) Buf(a int) int     { return b.add(GBuf, a, 0) }
func (b *Builder) And(a, c int) int  { return b.add(GAnd, a, c) }
func (b *Builder) Or(a, c int) int   { return b.add(GOr, a, c) }
func (b *Builder) Xor(a, c int) int  { return b.add(GXor, a, c) }
func (b *Builder) Nand(a, c int) int { return b.add(GNand, a, c) }
func (b *Builder) Nor(a, c int) int  { return b.add(GNor, a, c) }
func (b *Builder) Xnor(a, c int) int { return b.add(GXnor, a, c) }

// Mux returns sel ? a : b.
func (b *Builder) Mux(sel, a, c int) int {
	return b.Or(b.And(sel, a), b.And(b.Not(sel), c))
}

// MuxBus muxes two equal-width buses bit-wise.
func (b *Builder) MuxBus(sel int, a, c Bus) Bus {
	if len(a) != len(c) {
		panic("gates: MuxBus width mismatch")
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = b.Mux(sel, a[i], c[i])
	}
	return out
}

// Output appends a wire to the output list and returns its ordinal.
func (b *Builder) Output(sig int) int {
	b.n.Outputs = append(b.n.Outputs, sig)
	return len(b.n.Outputs) - 1
}

// OutputBus appends a whole bus to the outputs (LSB first).
func (b *Builder) OutputBus(bus Bus) {
	for _, g := range bus {
		b.Output(g)
	}
}

// Build finalizes and returns the netlist.
func (b *Builder) Build() *Netlist {
	// Validate topological order.
	for i, g := range b.n.Gates {
		switch g.Type {
		case GInput, GConst0, GConst1:
		case GBuf, GNot:
			if int(g.A) >= i {
				panic(fmt.Sprintf("gates: %s gate %d reads forward wire %d", g.Type, i, g.A))
			}
		default:
			if int(g.A) >= i || int(g.B) >= i {
				panic(fmt.Sprintf("gates: gate %d reads forward wire", i))
			}
		}
	}
	b.n.levelize()
	return b.n
}

// levelize derives the evaluation order: a counting sort of the gates by
// (level, type), stable in gate number, then the runs and the operand
// positions in that order. Operands precede their gate in number order,
// so their positions are known by the time the gate is placed.
func (n *Netlist) levelize() {
	const types = int32(numGateTypes)
	key := make([]int32, len(n.Gates)) // level*types + type, per gate
	count := make([]int32, 1, 64*types)
	for i, g := range n.Gates {
		var l int32
		switch g.Type {
		case GInput, GConst0, GConst1:
		case GBuf, GNot:
			l = key[g.A]/types + 1
		default:
			l = max(key[g.A], key[g.B])/types + 1
		}
		k := l*types + int32(g.Type)
		key[i] = k
		for int(k) >= len(count)-1 {
			count = append(count, 0)
		}
		count[k+1]++
	}
	n.runs = n.runs[:0]
	for k := range len(count) - 1 {
		if count[k+1] > 0 {
			n.runs = append(n.runs, run{typ: GateType(int32(k) % types), lo: count[k], hi: count[k] + count[k+1]})
		}
		count[k+1] += count[k] // now the first position of key k+1
	}
	n.pos = key // each gate's key gives way to its position
	n.ops = make([]operands, len(n.Gates))
	for i, g := range n.Gates {
		p := count[key[i]]
		count[key[i]]++
		n.pos[i] = p
		switch g.Type {
		case GInput:
			n.ops[p].a = g.A
		case GConst0, GConst1:
		case GBuf, GNot:
			n.ops[p].a = n.pos[g.A]
		default:
			n.ops[p] = operands{n.pos[g.A], n.pos[g.B]}
		}
	}
	n.outPos = make([]int32, len(n.Outputs))
	for j, g := range n.Outputs {
		n.outPos[j] = n.pos[g]
	}
}

// Eval is a reusable evaluation context (one per goroutine).
type Eval struct {
	n     *Netlist
	vals  []uint64 // by position
	words []uint64 // Table.Eval's output lane words
}

// NewEval creates an evaluation context for n, which Build returned.
func NewEval(n *Netlist) *Eval {
	if len(n.pos) != len(n.Gates) {
		panic(fmt.Sprintf("gates: %s: netlist not finalized by Build", n.Name))
	}
	return &Eval{n: n, vals: make([]uint64, len(n.Gates)), words: make([]uint64, len(n.Outputs))}
}

// Netlist returns the bound netlist.
func (e *Eval) Netlist() *Netlist { return e.n }

// Run evaluates the netlist. in holds one uint64 (64 lanes) per external
// input; out receives one uint64 per output ordinal. fault, if non-nil,
// forces the named gate's output to the stuck value in every lane.
//
// The override lands right after the run holding the gate: every reader
// of the gate sits at a higher level, hence in a later run, and no later
// run of the gate's own level reads it, so the result is exactly that of
// evaluating the gates in number order with the override in place.
func (e *Eval) Run(in []uint64, out []uint64, fault *StuckAt) {
	n := e.n
	if len(in) != n.NumIn {
		panic(fmt.Sprintf("gates: %s: got %d inputs, want %d", n.Name, len(in), n.NumIn))
	}
	runs := n.runs
	if fault != nil {
		// Evaluate up to the run holding the gate, force it, go on.
		at := n.pos[fault.Gate]
		k := sort.Search(len(runs), func(k int) bool { return runs[k].hi > at })
		e.runs(in, runs[:k+1])
		e.vals[at] = 0
		if fault.Value {
			e.vals[at] = ^uint64(0)
		}
		runs = runs[k+1:]
	}
	e.runs(in, runs)
	for j, p := range n.outPos {
		out[j] = e.vals[p]
	}
}

// runs evaluates rs in order: one loop per run, no per-gate dispatch.
func (e *Eval) runs(in []uint64, rs []run) {
	v, ops := e.vals, e.n.ops
	for _, r := range rs {
		o := ops[r.lo:r.hi]
		dst := v[r.lo:r.hi]
		dst = dst[:len(o)]
		switch r.typ {
		case GInput:
			for i, x := range o {
				dst[i] = in[x.a]
			}
		case GConst0:
			clear(dst)
		case GConst1:
			for i := range dst {
				dst[i] = ^uint64(0)
			}
		case GBuf:
			for i, x := range o {
				dst[i] = v[x.a]
			}
		case GNot:
			for i, x := range o {
				dst[i] = ^v[x.a]
			}
		case GAnd:
			for i, x := range o {
				dst[i] = v[x.a] & v[x.b]
			}
		case GOr:
			for i, x := range o {
				dst[i] = v[x.a] | v[x.b]
			}
		case GXor:
			for i, x := range o {
				dst[i] = v[x.a] ^ v[x.b]
			}
		case GNand:
			for i, x := range o {
				dst[i] = ^(v[x.a] & v[x.b])
			}
		case GNor:
			for i, x := range o {
				dst[i] = ^(v[x.a] | v[x.b])
			}
		case GXnor:
			for i, x := range o {
				dst[i] = ^(v[x.a] ^ v[x.b])
			}
		}
	}
}

// SetBusScalar broadcasts the bits of val across all 64 lanes of the
// inputs belonging to bus. The netlist must have been built so that bus
// consists of GInput gates.
func (n *Netlist) SetBusScalar(in []uint64, bus Bus, val uint64) {
	for i, g := range bus {
		ord := n.Gates[g].A
		if val>>uint(i)&1 != 0 {
			in[ord] = ^uint64(0)
		} else {
			in[ord] = 0
		}
	}
}

// SetBusLane sets the bits of val into a single lane of the bus inputs.
func (n *Netlist) SetBusLane(in []uint64, bus Bus, val uint64, lane uint) {
	bit := uint64(1) << lane
	for i, g := range bus {
		ord := n.Gates[g].A
		if val>>uint(i)&1 != 0 {
			in[ord] |= bit
		} else {
			in[ord] &^= bit
		}
	}
}

// GetScalar extracts lane 0 of count consecutive outputs starting at
// output ordinal first, LSB first.
func GetScalar(out []uint64, first, count int) uint64 {
	var v uint64
	for i := 0; i < count; i++ {
		v |= (out[first+i] & 1) << uint(i)
	}
	return v
}

// GetLane extracts one lane of count consecutive outputs.
func GetLane(out []uint64, first, count int, lane uint) uint64 {
	var v uint64
	for i := 0; i < count; i++ {
		v |= (out[first+i] >> lane & 1) << uint(i)
	}
	return v
}
