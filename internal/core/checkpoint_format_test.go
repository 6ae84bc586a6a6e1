package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
	"harpocrates/internal/sched"
)

// hxck hand-builds snapshot bytes from the documented layout.
type hxck struct{ b []byte }

func (w *hxck) u16(v uint16)  { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *hxck) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *hxck) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *hxck) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *hxck) coverage(s *coverage.Snapshot) {
	w.u64(s.Cycles)
	w.u64(s.Instructions)
	w.f64(s.IRFVuln)
	w.f64(s.L1DVuln)
	w.f64(s.FPRFVuln)
	for _, v := range s.IBR { // the whole IBR array, then the whole use array
		w.f64(v)
	}
	for _, v := range s.UnitUses {
		w.u64(v)
	}
}

func (w *hxck) individual(ind *Individual) {
	w.f64(ind.Fitness)
	w.coverage(&ind.Snapshot)
	w.u64(ind.G.Seed)
	w.u32(uint32(len(ind.G.Variants)))
	for _, v := range ind.G.Variants {
		w.u16(uint16(v))
	}
}

// TestSnapshotFormatPinned checks both directions of the HXCK codec
// against hand-built bytes, for the static (version 1) layout and the
// adaptive (version 2) layout with its bandit and archive tail.
func TestSnapshotFormatPinned(t *testing.T) {
	cov := coverage.Snapshot{Cycles: 10, Instructions: 20, IRFVuln: 0.5, L1DVuln: 0.25, FPRFVuln: 0.125}
	cov.IBR[0], cov.IBR[coverage.NumStructures-1] = 0.75, -1
	cov.UnitUses[1] = 0x0102030405060708
	ind := func(seed uint64) *Individual {
		return &Individual{Fitness: float64(seed) / 4, Snapshot: cov,
			G: &gen.Genotype{Seed: seed, Variants: []isa.VariantID{1, 0x0203}}}
	}
	static := &snapshot{
		optsHash: 0xfeedface, nextIt: 2, rng: []byte{7, 8, 9},
		hist: &History{Best: []float64{0.5, 0.75}, MeanTopK: []float64{0.25},
			EvaluatedPrograms: 7, EvaluatedInstructions: 9, CacheHits: 1},
		pop:  []*Individual{ind(3), ind(4)},
		memo: evalCache{9: {Fitness: 2, Snapshot: cov}, 5: {Fitness: 1}},
	}
	adaptive := *static
	adaptive.bandit = &sched.State{Pulls: []uint64{1, 2}, Rewards: []float64{0.5, 1}}
	adaptive.archive = []*Individual{ind(6)}

	for name, s := range map[string]*snapshot{"v1": static, "v2": &adaptive} {
		w := &hxck{}
		w.u32(0x4858434b) // magic
		if s.bandit == nil {
			w.u32(1)
		} else {
			w.u32(2)
		}
		w.u64(s.optsHash)
		w.u32(uint32(s.nextIt))
		w.u32(3)
		w.b = append(w.b, 7, 8, 9)
		w.u32(2)
		w.f64(0.5)
		w.f64(0.75)
		w.u32(1)
		w.f64(0.25)
		w.u64(7)
		w.u64(9)
		w.u64(1)
		w.u32(2)
		w.individual(s.pop[0])
		w.individual(s.pop[1])
		w.u32(2) // memo, ascending by key
		w.u64(5)
		w.f64(1)
		w.coverage(&coverage.Snapshot{})
		w.u64(9)
		w.f64(2)
		w.coverage(&cov)
		if s.bandit != nil {
			w.u32(2)
			w.u64(1)
			w.f64(0.5)
			w.u64(2)
			w.f64(1)
			w.u32(1)
			w.individual(s.archive[0])
		}

		path := filepath.Join(t.TempDir(), name+".hxck")
		if err := writeSnapshot(path, s); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, w.b) {
			t.Fatalf("%s encode:\n got %x\nwant %x", name, got, w.b)
		}
		got, err := readSnapshot(bytes.NewReader(w.b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s decode:\n got %+v\nwant %+v", name, got, s)
		}
	}
}
