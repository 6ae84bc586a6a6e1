package inject

import (
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
// changes. That is the third rung of the grading ladder (grade): a fault
// that changes none is Masked without simulation; any other resumes from
// the latest checkpoint at or before that invocation's cycle, on a unit
// that answers golden pairs from the table and evaluates the netlist
// only for pairs the golden run never sent. Exact, not approximate,
// because:
//
//   - the stream is recorded at the hook, which fires at execute, so it
//     holds every invocation the faulty run makes before it diverges,
//     wrong-path ones included; FP calls with special operands bypass
//     the netlist and are not recorded (no gate fault reaches them);
//   - the unit is a pure function of its operands, so a table answer is
//     the netlist's own answer;
//   - a checkpoint taken at cycle k is captured at the top of cycle k,
//     before its issue stage, where units are invoked, and each call is
//     stamped with the core's cycle at the call, so every call stamped k
//     or later happens after a restore from it.
//
// Each pool worker runs its faulty runs on one unit set of its own,
// re-armed per fault (fuGrader). The oracle — NoFastForward's runs and
// ValidateAll's check — runs from reset with the plain netlist on fresh
// units (the row's hooks), so it depends on neither the table nor the reuse.

// recordFUStream arms cfg, the golden configuration, to record the
// target unit's operand stream and returns the stream it fills, stamping
// each call with cycle(), the running core's cycle. The integer units
// record through native arithmetic, bit-exact with their netlists; the FP
// units through the fault-free netlist goldenConfig routes them to.
func (c *Campaign) recordFUStream(cfg *uarch.Config, cycle func() uint64) *gates.Stream {
	t := c.row()
	s := &gates.Stream{Table: gates.NewTable(t.netlist(), t.resultBits)}
	switch c.Target {
	case coverage.IntAdder:
		cfg.FU = &arch.FUHooks{IntAdd: func(a, b uint64, cin bool) uint64 {
			sum := a + b
			if cin {
				sum++
			}
			s.Record(gates.Pair{A: a, B: b, Cin: cin}, sum, 0, cycle())
			return sum
		}}
	case coverage.IntMul:
		cfg.FU = &arch.FUHooks{IntMul: func(a, b uint64) (uint64, uint64) {
			hi, lo := bits.Mul64(a, b)
			s.Record(gates.Pair{A: a, B: b}, lo, hi, cycle())
			return lo, hi
		}}
	case coverage.FPAdd, coverage.FPMul:
		// Wrap the fault-free unit goldenConfig installed.
		hooks := *cfg.FU
		op := &hooks.FPAdd64
		if c.Target == coverage.FPMul {
			op = &hooks.FPMul64
		}
		unit := *op
		*op = func(a, b uint64) uint64 {
			r := unit(a, b)
			if !gates.Bypasses64(a, b) {
				s.Record(gates.Pair{A: a, B: b}, r, 0, cycle())
			}
			return r
		}
		cfg.FU = &hooks
	}
	return s
}

// tableHooks routes the target unit's operations like units, a hook
// set of its row, except that the table's pairs are answered from
// res — Table.Eval's faulty results, or the table's golden ones for a
// fault-free unit.
func tableHooks(target coverage.Structure, tbl *gates.Table, res [][2]uint64, units *arch.FUHooks) *arch.FUHooks {
	lookup := func(p gates.Pair) (*[2]uint64, bool) {
		i, ok := tbl.Index(p)
		if !ok {
			return nil, false
		}
		return &res[i], true
	}
	hooks := *units
	switch target {
	case coverage.IntAdder:
		hooks.IntAdd = func(a, b uint64, cin bool) uint64 {
			if r, ok := lookup(gates.Pair{A: a, B: b, Cin: cin}); ok {
				return r[0]
			}
			return units.IntAdd(a, b, cin)
		}
	case coverage.IntMul:
		hooks.IntMul = func(a, b uint64) (uint64, uint64) {
			if r, ok := lookup(gates.Pair{A: a, B: b}); ok {
				return r[0], r[1]
			}
			return units.IntMul(a, b)
		}
	case coverage.FPAdd:
		hooks.FPAdd64 = func(a, b uint64) uint64 {
			if r, ok := lookup(gates.Pair{A: a, B: b}); ok {
				return r[0]
			}
			return units.FPAdd64(a, b)
		}
	case coverage.FPMul:
		hooks.FPMul64 = func(a, b uint64) uint64 {
			if r, ok := lookup(gates.Pair{A: a, B: b}); ok {
				return r[0]
			}
			return units.FPMul64(a, b)
		}
	}
	return &hooks
}

// fuGrader is one worker's scratch for grading faults against a stream,
// and the unit set every faulty run it grades goes through: activation
// re-arms the faulty unit with each spec's fault, where fresh units used
// to be built per run.
type fuGrader struct {
	stream *gates.Stream
	eval   *gates.Eval
	out    [][2]uint64 // faulty result per table pair, for the fault last graded
	diff   []uint64
	fault  gates.StuckAt // the fault last graded; hooks' faulty unit carries it
	hooks  *arch.FUHooks // the faulty unit, golden pairs answered from out
	clean  *arch.FUHooks // the fault-free FP unit outside an intermittent window, or nil
}

func (c *Campaign) newFUGrader(s *gates.Stream) *fuGrader {
	n := s.Table.Len()
	t := c.row()
	g := &fuGrader{stream: s, eval: gates.NewEval(t.netlist()),
		out: make([][2]uint64, n), diff: make([]uint64, (n+63)/64)}
	g.hooks = tableHooks(c.Target, s.Table, g.out, t.hooks(&g.fault))
	if c.Type == Intermittent && !t.exact {
		g.clean = tableHooks(c.Target, s.Table, s.Table.Golden(), t.hooks(nil))
	}
	return g
}

// activation arms sp's fault, grades it against the stream and returns
// the cycle of the first golden call whose result it changes — among the
// calls inside [sp.start, sp.end) when windowed (an intermittent fault) —
// or ok=false when it changes none. g.out then holds the faulty unit's
// result for every golden pair.
func (g *fuGrader) activation(sp faultSpec, windowed bool) (cycle uint64, ok bool) {
	g.fault = gates.StuckAt{Gate: sp.gate, Value: sp.val}
	if !g.stream.Table.Eval(g.eval, &g.fault, g.out, g.diff) {
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
