package inject

import (
	"fmt"
	"math/bits"
	"sort"

	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gates"
	"harpocrates/internal/uarch"
)

// Grading functional-unit faults against the golden operand stream.
//
// A gate stuck-at acts on nothing but its unit's result, so a faulty run
// is the golden run, cycle for cycle, up to the first invocation whose
// faulty result differs from the one the golden run got. The golden
// prologue of a functional-unit campaign therefore records the target
// unit's operand stream (gates.Stream), and every fault is graded
// against it before anything is simulated: one netlist pass per 64
// distinct golden operand pairs (gates.Table.Eval) gives the faulty
// result for every pair, hence the first golden invocation the fault
// changes. A fault that changes none is Masked without simulation; any
// other resumes from the latest checkpoint at or before that
// invocation's cycle, on a unit that answers golden pairs from the
// table and evaluates the netlist only for pairs the golden run never
// sent. Exact, not approximate, because:
//
//   - the stream is recorded at the hook, which fires at execute, so it
//     holds every invocation the faulty run makes before it diverges,
//     wrong-path ones included; FP calls with special operands bypass
//     the netlist and are not recorded (no gate fault reaches them);
//   - the unit is a pure function of its operands, so a table answer is
//     the netlist's own answer;
//   - a checkpoint taken at cycle k is captured by the per-cycle hook
//     before cycle k's issue stage, where units are invoked, and calls
//     are stamped with the cycle that same hook last announced, so every
//     call stamped k or later happens after a restore from it.
//
// NoFastForward keeps the from-reset run with the plain netlist as the
// ablation and the oracle (TestFUStreamBitIdentical); ValidateAll
// re-simulates every graded fault that way.

// fuResultBits is the width of the target unit's result: the
// multiplier's 128-bit product or the 64-bit sum.
func fuResultBits(target coverage.Structure) int {
	if target == coverage.IntMul {
		return 128
	}
	return 64
}

// recordFUStream arms cfg, the golden configuration whose OnCycle hook
// captures checkpoints, to record the target unit's operand stream and
// returns the stream it fills. The integer units record through native
// arithmetic, bit-exact with their netlists; the FP units through the
// fault-free netlist goldenConfig routes them to.
func (c *Campaign) recordFUStream(cfg *uarch.Config) *gates.Stream {
	s := &gates.Stream{Table: gates.NewTable(targetNetlist(c.Target), fuResultBits(c.Target))}
	var cycle uint64
	checkpoint := cfg.OnCycle
	cfg.OnCycle = func(core *uarch.Core, cyc uint64) {
		cycle = cyc
		checkpoint(core, cyc)
	}
	switch c.Target {
	case coverage.IntAdder:
		cfg.FU = &arch.FUHooks{IntAdd: func(a, b uint64, cin bool) uint64 {
			sum := a + b
			if cin {
				sum++
			}
			s.Record(gates.Pair{A: a, B: b, Cin: cin}, sum, 0, cycle)
			return sum
		}}
	case coverage.IntMul:
		cfg.FU = &arch.FUHooks{IntMul: func(a, b uint64) (uint64, uint64) {
			hi, lo := bits.Mul64(a, b)
			s.Record(gates.Pair{A: a, B: b}, lo, hi, cycle)
			return lo, hi
		}}
	case coverage.FPAdd, coverage.FPMul:
		record := func(unit *gates.FPUnit) func(a, b uint64) uint64 {
			return func(a, b uint64) uint64 {
				r := unit.Op64(a, b)
				if !unit.Bypasses(a, b) {
					s.Record(gates.Pair{A: a, B: b}, r, 0, cycle)
				}
				return r
			}
		}
		hooks := *cfg.FU
		if c.Target == coverage.FPAdd {
			hooks.FPAdd64 = record(gates.NewFPAdd64Unit(nil))
		} else {
			hooks.FPMul64 = record(gates.NewFPMul64Unit(nil))
		}
		cfg.FU = &hooks
	}
	return s
}

// tableHooks is FUHooksFor(target, fault) answering the table's pairs
// from res — Table.Eval's faulty results, or the table's golden ones for
// a fault-free unit. Every other call, the FP units' single-precision
// path included, goes to the netlist units, built on first use.
func tableHooks(target coverage.Structure, fault *gates.StuckAt, tbl *gates.Table, res [][2]uint64) *arch.FUHooks {
	var units *arch.FUHooks
	netlist := func() *arch.FUHooks {
		if units == nil {
			units = FUHooksFor(target, fault)
		}
		return units
	}
	lookup := func(p gates.Pair) (*[2]uint64, bool) {
		i, ok := tbl.Index(p)
		if !ok {
			return nil, false
		}
		return &res[i], true
	}
	switch target {
	case coverage.IntAdder:
		return &arch.FUHooks{IntAdd: func(a, b uint64, cin bool) uint64 {
			if r, ok := lookup(gates.Pair{A: a, B: b, Cin: cin}); ok {
				return r[0]
			}
			return netlist().IntAdd(a, b, cin)
		}}
	case coverage.IntMul:
		return &arch.FUHooks{IntMul: func(a, b uint64) (uint64, uint64) {
			if r, ok := lookup(gates.Pair{A: a, B: b}); ok {
				return r[0], r[1]
			}
			return netlist().IntMul(a, b)
		}}
	case coverage.FPAdd:
		return &arch.FUHooks{
			FPAdd64: func(a, b uint64) uint64 {
				if r, ok := lookup(gates.Pair{A: a, B: b}); ok {
					return r[0]
				}
				return netlist().FPAdd64(a, b)
			},
			FPAdd32: func(a, b uint32) uint32 { return netlist().FPAdd32(a, b) },
		}
	case coverage.FPMul:
		return &arch.FUHooks{
			FPMul64: func(a, b uint64) uint64 {
				if r, ok := lookup(gates.Pair{A: a, B: b}); ok {
					return r[0]
				}
				return netlist().FPMul64(a, b)
			},
			FPMul32: func(a, b uint32) uint32 { return netlist().FPMul32(a, b) },
		}
	}
	return nil
}

// fuGrader is one worker's scratch for grading faults against a stream.
type fuGrader struct {
	stream *gates.Stream
	eval   *gates.Eval
	out    [][2]uint64 // faulty result per table pair, for the fault last graded
	diff   []uint64
}

func newFUGrader(s *gates.Stream, nl *gates.Netlist) *fuGrader {
	n := s.Table.Len()
	return &fuGrader{stream: s, eval: gates.NewEval(nl),
		out: make([][2]uint64, n), diff: make([]uint64, (n+63)/64)}
}

// activation grades sp's fault against the stream and returns the cycle
// of the first golden call whose result it changes — among the calls
// inside [sp.start, sp.end) when windowed (an intermittent fault) — or
// ok=false when it changes none. g.out then holds the faulty unit's
// result for every golden pair.
func (g *fuGrader) activation(sp faultSpec, windowed bool) (cycle uint64, ok bool) {
	if !g.stream.Table.Eval(g.eval, &gates.StuckAt{Gate: sp.gate, Value: sp.val}, g.out, g.diff) {
		return 0, false
	}
	calls := g.stream.Calls
	if windowed {
		calls = calls[sort.Search(len(calls), func(i int) bool { return calls[i].Cycle >= sp.start }):]
	}
	for _, call := range calls {
		if windowed && call.Cycle >= sp.end {
			break
		}
		if g.diff[call.Pair/64]>>uint(call.Pair%64)&1 != 0 {
			return call.Cycle, true
		}
	}
	return 0, false
}

// validateFU re-simulates a stream-graded functional-unit fault from
// reset on the plain netlist (ValidateAll). A fault graded as never
// activated (graded nil) must reproduce the golden run: Masked, in as
// many cycles. An activated one must reproduce the graded run's outcome,
// and its cycle count too unless delta termination cut that run short.
func (c *Campaign) validateFU(sp faultSpec, golden, graded *uarch.Result, act uint64) error {
	ref := c.simulate(c.cfgFor(sp, golden, nil), 0, nil)
	first, want := "never activated", golden
	if graded != nil {
		first, want = fmt.Sprintf("first activation at cycle %d", act), graded
	}
	wantOut, gotOut := classify(want, golden), classify(ref, golden)
	if gotOut == wantOut && (ref.Cycles == want.Cycles || want.Reconverged) {
		return nil
	}
	stuck := 0
	if sp.val {
		stuck = 1
	}
	return fmt.Errorf("inject: functional-unit stream grading unsound: injection %d (gate %d stuck-at-%d, %s) graded %v at cycle %d but simulates from reset as %v at cycle %d",
		sp.idx, sp.gate, stuck, first, wantOut, want.Cycles, gotOut, ref.Cycles)
}
