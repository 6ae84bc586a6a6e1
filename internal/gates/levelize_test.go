package gates

import (
	"math/rand/v2"
	"testing"
)

// refEval is the per-gate evaluator the levelized one replaced, kept as
// the oracle: one pass over the gates in number order, one type switch
// per gate, the stuck-at forced right after its gate.
type refEval struct {
	n    *Netlist
	vals []uint64
}

func newRefEval(n *Netlist) *refEval {
	return &refEval{n: n, vals: make([]uint64, len(n.Gates))}
}

func (e *refEval) run(in, out []uint64, fault *StuckAt) {
	v := e.vals
	for i, g := range e.n.Gates {
		switch g.Type {
		case GInput:
			v[i] = in[g.A]
		case GConst0:
			v[i] = 0
		case GConst1:
			v[i] = ^uint64(0)
		case GBuf:
			v[i] = v[g.A]
		case GNot:
			v[i] = ^v[g.A]
		case GAnd:
			v[i] = v[g.A] & v[g.B]
		case GOr:
			v[i] = v[g.A] | v[g.B]
		case GXor:
			v[i] = v[g.A] ^ v[g.B]
		case GNand:
			v[i] = ^(v[g.A] & v[g.B])
		case GNor:
			v[i] = ^(v[g.A] | v[g.B])
		case GXnor:
			v[i] = ^(v[g.A] ^ v[g.B])
		}
		if fault != nil && fault.Gate == i {
			v[i] = 0
			if fault.Value {
				v[i] = ^uint64(0)
			}
		}
	}
	for j, g := range e.n.Outputs {
		out[j] = v[g]
	}
}

// TestLevelizedMatchesReference: the levelized evaluator must equal the
// per-gate reference over random 64-lane input vectors, fault-free and
// with a stuck-at-0 and a stuck-at-1 at every site of small instances of
// each unit, and at a fixed stride of sites over the six 64/32-bit unit
// netlists, whose input, constant and output gates are always included.
// A stuck-at applied before its run is overwritten by it, and one run late
// it misses the readers at the next level whenever its run ends a level;
// sweeping every site of a netlist covers both.
func TestLevelizedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 54))
	check := func(n *Netlist, sites []int, vectors int) {
		t.Helper()
		e, ref := NewEval(n), newRefEval(n)
		in := make([]uint64, n.NumIn)
		got, want := make([]uint64, len(n.Outputs)), make([]uint64, len(n.Outputs))
		compare := func(fault *StuckAt) {
			t.Helper()
			for v := 0; v < vectors; v++ {
				for i := range in {
					in[i] = rng.Uint64()
				}
				e.Run(in, got, fault)
				ref.run(in, want, fault)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s (%d gates), fault %+v: output %d = %#x, reference %#x",
							n.Name, n.NumGates(), fault, j, got[j], want[j])
					}
				}
			}
		}
		compare(nil)
		for _, g := range sites {
			compare(&StuckAt{Gate: g, Value: false})
			compare(&StuckAt{Gate: g, Value: true})
		}
	}
	every := func(n *Netlist) []int {
		s := make([]int, n.NumGates())
		for i := range s {
			s[i] = i
		}
		return s
	}
	for _, n := range []*Netlist{
		NewIntAdder(8), NewIntMultiplier(8), NewFPAdder(4, 5), NewFPMultiplier(4, 5),
	} {
		check(n, every(n), 4)
	}
	stride := 31
	if testing.Short() {
		stride = 127
	}
	for _, n := range []*Netlist{
		IntAdder64Netlist(), IntMul64Netlist(), FPAdd64Netlist(), FPMul64Netlist(),
		FPAdd32Netlist(), FPMul32Netlist(),
	} {
		var sites []int
		isOutput := make([]bool, n.NumGates())
		for _, g := range n.Outputs {
			isOutput[g] = true
		}
		for i, g := range n.Gates {
			if i%stride == 0 || isOutput[i] || g.Type == GInput || g.Type == GConst0 || g.Type == GConst1 {
				sites = append(sites, i)
			}
		}
		check(n, sites, 1)
	}
}
