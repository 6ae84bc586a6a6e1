package gates

import (
	"math"
	"sync"
)

// Cached netlists. Building the 64x64 multiplier array costs a few
// milliseconds; campaigns share one immutable netlist and create
// per-goroutine Eval contexts.
var (
	intAdderOnce sync.Once
	intAdderNet  *Netlist
	intMulOnce   sync.Once
	intMulNet    *Netlist
	fpAdd64Once  sync.Once
	fpAdd64Net   *Netlist
	fpMul64Once  sync.Once
	fpMul64Net   *Netlist
	fpAdd32Once  sync.Once
	fpAdd32Net   *Netlist
	fpMul32Once  sync.Once
	fpMul32Net   *Netlist
)

// IntAdder64Netlist returns the shared 64-bit integer adder netlist.
func IntAdder64Netlist() *Netlist {
	intAdderOnce.Do(func() { intAdderNet = NewIntAdder(64) })
	return intAdderNet
}

// IntMul64Netlist returns the shared 64x64 multiplier netlist.
func IntMul64Netlist() *Netlist {
	intMulOnce.Do(func() { intMulNet = NewIntMultiplier(64) })
	return intMulNet
}

// FPAdd64Netlist returns the shared double-precision adder netlist.
func FPAdd64Netlist() *Netlist {
	fpAdd64Once.Do(func() { fpAdd64Net = NewFPAdder(11, 52) })
	return fpAdd64Net
}

// FPMul64Netlist returns the shared double-precision multiplier netlist.
func FPMul64Netlist() *Netlist {
	fpMul64Once.Do(func() { fpMul64Net = NewFPMultiplier(11, 52) })
	return fpMul64Net
}

// FPAdd32Netlist returns the shared single-precision adder netlist.
func FPAdd32Netlist() *Netlist {
	fpAdd32Once.Do(func() { fpAdd32Net = NewFPAdder(8, 23) })
	return fpAdd32Net
}

// FPMul32Netlist returns the shared single-precision multiplier netlist.
func FPMul32Netlist() *Netlist {
	fpMul32Once.Do(func() { fpMul32Net = NewFPMultiplier(8, 23) })
	return fpMul32Net
}

// IntAdderUnit evaluates the gate-level 64-bit adder, optionally with a
// stuck-at fault. Not safe for concurrent use; create one per goroutine.
type IntAdderUnit struct {
	net   *Netlist
	eval  *Eval
	in    []uint64
	out   []uint64
	Fault *StuckAt
}

// NewIntAdderUnit creates an adder evaluation unit.
func NewIntAdderUnit(fault *StuckAt) *IntAdderUnit {
	n := IntAdder64Netlist()
	return &IntAdderUnit{net: n, eval: NewEval(n), in: make([]uint64, n.NumIn), out: make([]uint64, len(n.Outputs)), Fault: fault}
}

// aBus/bBus input ordinals are positional: a = inputs 0..63, b = 64..127,
// cin = 128. Outputs: sum = 0..63, cout = 64.

// Add computes a + b + cin through the netlist.
func (u *IntAdderUnit) Add(a, b uint64, cin bool) uint64 {
	for i := 0; i < 64; i++ {
		u.in[i] = broadcast(a >> uint(i) & 1)
		u.in[64+i] = broadcast(b >> uint(i) & 1)
	}
	u.in[128] = broadcast(b2u(cin))
	u.eval.Run(u.in, u.out, u.Fault)
	return GetScalar(u.out, 0, 64)
}

// IntMulUnit evaluates the gate-level 64x64 multiplier.
type IntMulUnit struct {
	net   *Netlist
	eval  *Eval
	in    []uint64
	out   []uint64
	Fault *StuckAt
}

// NewIntMulUnit creates a multiplier evaluation unit.
func NewIntMulUnit(fault *StuckAt) *IntMulUnit {
	n := IntMul64Netlist()
	return &IntMulUnit{net: n, eval: NewEval(n), in: make([]uint64, n.NumIn), out: make([]uint64, len(n.Outputs)), Fault: fault}
}

// Mul computes the full 128-bit unsigned product.
func (u *IntMulUnit) Mul(a, b uint64) (lo, hi uint64) {
	for i := 0; i < 64; i++ {
		u.in[i] = broadcast(a >> uint(i) & 1)
		u.in[64+i] = broadcast(b >> uint(i) & 1)
	}
	u.eval.Run(u.in, u.out, u.Fault)
	return GetScalar(u.out, 0, 64), GetScalar(u.out, 64, 64)
}

// FPUnit evaluates a gate-level FP adder or multiplier for one format.
type FPUnit struct {
	net      *Netlist
	eval     *Eval
	in       []uint64
	out      []uint64
	expBits  int
	mantBits int
	isAdder  bool
	Fault    *StuckAt
}

func newFPUnit(n *Netlist, expBits, mantBits int, isAdder bool, fault *StuckAt) *FPUnit {
	return &FPUnit{
		net: n, eval: NewEval(n),
		in: make([]uint64, n.NumIn), out: make([]uint64, len(n.Outputs)),
		expBits: expBits, mantBits: mantBits, isAdder: isAdder, Fault: fault,
	}
}

// NewFPAdd64Unit returns a double-precision adder unit.
func NewFPAdd64Unit(fault *StuckAt) *FPUnit { return newFPUnit(FPAdd64Netlist(), 11, 52, true, fault) }

// NewFPMul64Unit returns a double-precision multiplier unit.
func NewFPMul64Unit(fault *StuckAt) *FPUnit { return newFPUnit(FPMul64Netlist(), 11, 52, false, fault) }

// NewFPAdd32Unit returns a single-precision adder unit.
func NewFPAdd32Unit(fault *StuckAt) *FPUnit { return newFPUnit(FPAdd32Netlist(), 8, 23, true, fault) }

// NewFPMul32Unit returns a single-precision multiplier unit.
func NewFPMul32Unit(fault *StuckAt) *FPUnit { return newFPUnit(FPMul32Netlist(), 8, 23, false, fault) }

// special reports whether an operand's exponent field is all-zeros
// (zero/subnormal) or all-ones (Inf/NaN). Such operands bypass the
// netlist: the corner-case hardware is not modelled, and the bypass
// decision depends only on the inputs, so golden and faulty runs take
// identical paths.
func special(bits uint64, expBits, mantBits int) bool {
	exp := bits >> uint(mantBits) & (1<<uint(expBits) - 1)
	return exp == 0 || exp == 1<<uint(expBits)-1
}

func (u *FPUnit) special(bits uint64) bool { return special(bits, u.expBits, u.mantBits) }

// Bypasses reports whether Op64 answers (a, b) natively rather than
// through the netlist, so no gate fault can reach the result.
func (u *FPUnit) Bypasses(a, b uint64) bool { return u.special(a) || u.special(b) }

// Bypasses64 is Bypasses of a double-precision unit (NewFPAdd64Unit,
// NewFPMul64Unit), decided without one: it depends on the operands alone.
func Bypasses64(a, b uint64) bool { return special(a, 11, 52) || special(b, 11, 52) }

// Op64 applies the unit to two double bit patterns.
func (u *FPUnit) Op64(a, b uint64) uint64 {
	if u.Bypasses(a, b) {
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		if u.isAdder {
			return math.Float64bits(fa + fb)
		}
		return math.Float64bits(fa * fb)
	}
	return u.run(a, b, 64)
}

// Op32 applies the unit to two single bit patterns.
func (u *FPUnit) Op32(a, b uint32) uint32 {
	if u.special(uint64(a)) || u.special(uint64(b)) {
		fa, fb := math.Float32frombits(a), math.Float32frombits(b)
		if u.isAdder {
			return math.Float32bits(fa + fb)
		}
		return math.Float32bits(fa * fb)
	}
	return uint32(u.run(uint64(a), uint64(b), 32))
}

func (u *FPUnit) run(a, b uint64, total int) uint64 {
	for i := 0; i < total; i++ {
		u.in[i] = broadcast(a >> uint(i) & 1)
		u.in[total+i] = broadcast(b >> uint(i) & 1)
	}
	u.eval.Run(u.in, u.out, u.Fault)
	return GetScalar(u.out, 0, total)
}

func broadcast(bit uint64) uint64 {
	if bit != 0 {
		return ^uint64(0)
	}
	return 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
