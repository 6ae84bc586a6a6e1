package gates

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestTableEvalMatchesUnits: for random faults and operand pairs
// (duplicates, the adder's carry-in and a partial last block included),
// one Table.Eval must give, pair by pair, the scalar faulty unit's
// result, and flag exactly the pairs whose result the fault changes.
func TestTableEvalMatchesUnits(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	normal := func() uint64 { return math.Float64bits(randNormal64(rng)) }
	units := []struct {
		name string
		net  *Netlist
		bits int
		pair func() Pair
		unit func(fault *StuckAt) func(Pair) [2]uint64
	}{
		{"intadd", IntAdder64Netlist(), 64,
			func() Pair { return Pair{A: rng.Uint64(), B: rng.Uint64(), Cin: rng.IntN(2) == 1} },
			func(f *StuckAt) func(Pair) [2]uint64 {
				u := NewIntAdderUnit(f)
				return func(p Pair) [2]uint64 { return [2]uint64{u.Add(p.A, p.B, p.Cin)} }
			}},
		{"intmul", IntMul64Netlist(), 128,
			func() Pair { return Pair{A: rng.Uint64(), B: rng.Uint64() >> rng.IntN(64)} },
			func(f *StuckAt) func(Pair) [2]uint64 {
				u := NewIntMulUnit(f)
				return func(p Pair) [2]uint64 {
					lo, hi := u.Mul(p.A, p.B)
					return [2]uint64{lo, hi}
				}
			}},
		{"fpadd", FPAdd64Netlist(), 64,
			func() Pair { return Pair{A: normal(), B: normal()} },
			func(f *StuckAt) func(Pair) [2]uint64 {
				u := NewFPAdd64Unit(f)
				return func(p Pair) [2]uint64 { return [2]uint64{u.Op64(p.A, p.B)} }
			}},
		{"fpmul", FPMul64Netlist(), 64,
			func() Pair { return Pair{A: normal(), B: normal()} },
			func(f *StuckAt) func(Pair) [2]uint64 {
				u := NewFPMul64Unit(f)
				return func(p Pair) [2]uint64 { return [2]uint64{u.Op64(p.A, p.B)} }
			}},
	}
	for _, u := range units {
		tbl := NewTable(u.net, u.bits)
		golden := u.unit(nil)
		var pairs []Pair
		for len(pairs) < 150 {
			p := u.pair()
			if len(pairs) > 0 && rng.IntN(6) == 0 {
				p = pairs[rng.IntN(len(pairs))] // a repeat keeps its index
				if u.name == "intadd" && rng.IntN(2) == 0 {
					p.Cin = !p.Cin // the carry-in twin is a pair of its own
				}
			}
			g := golden(p)
			i := tbl.Add(p, g[0], g[1])
			if j, ok := tbl.Index(p); !ok || j != i {
				t.Fatalf("%s: Add returned %d, Index %d %v", u.name, i, j, ok)
			}
			if int(i) == len(pairs) {
				pairs = append(pairs, p)
			} else if pairs[i] != p {
				t.Fatalf("%s: pair %+v filed under %+v's index", u.name, p, pairs[i])
			}
		}
		if tbl.Len() != len(pairs) {
			t.Fatalf("%s: table holds %d pairs, want %d", u.name, tbl.Len(), len(pairs))
		}
		e := NewEval(u.net)
		out := make([][2]uint64, tbl.Len())
		diff := make([]uint64, (tbl.Len()+63)/64)
		activated := 0
		for trial := 0; trial < 24; trial++ {
			f := &StuckAt{Gate: rng.IntN(u.net.NumGates()), Value: rng.IntN(2) == 1}
			faulty := u.unit(f)
			gotAny := tbl.Eval(e, f, out, diff)
			anyWant := false
			for i, p := range pairs {
				want := faulty(p)
				if out[i] != want {
					t.Fatalf("%s: gate %d stuck-at-%v, pair %+v: table %#x, unit %#x", u.name, f.Gate, f.Value, p, out[i], want)
				}
				changed := want != tbl.Golden()[i]
				if got := diff[i/64]>>(i%64)&1 == 1; got != changed {
					t.Fatalf("%s: gate %d stuck-at-%v, pair %d: diff bit %v, result changed %v", u.name, f.Gate, f.Value, i, got, changed)
				}
				anyWant = anyWant || changed
			}
			if gotAny != anyWant {
				t.Fatalf("%s: Eval reported %v, want %v", u.name, gotAny, anyWant)
			}
			if gotAny {
				activated++
			}
		}
		if activated == 0 {
			t.Fatalf("%s: no sampled fault changed any result", u.name)
		}
	}
}
