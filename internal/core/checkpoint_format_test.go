package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
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

func pinnedCoverage() coverage.Snapshot {
	cov := coverage.Snapshot{Cycles: 10, Instructions: 20, IRFVuln: 0.5, L1DVuln: 0.25, FPRFVuln: 0.125}
	cov.IBR[0], cov.IBR[coverage.NumStructures-1] = 0.75, -1
	cov.UnitUses[1] = 0x0102030405060708
	return cov
}

func pinnedIndividual(seed uint64) *Individual {
	return &Individual{Fitness: float64(seed) / 4, Snapshot: pinnedCoverage(),
		G: &gen.Genotype{Seed: seed, Variants: []isa.VariantID{1, 0x0203}}}
}

// pinnedSnapshot is the state the format tests serialize, and pinnedV1
// its version-1 bytes written out field by field.
func pinnedSnapshot() *snapshot {
	return &snapshot{
		optsHash: 0xfeedface, nextIt: 2, rng: []byte{7, 8, 9},
		hist: &History{Best: []float64{0.5, 0.75}, MeanTopK: []float64{0.25},
			EvaluatedPrograms: 7, EvaluatedInstructions: 9, CacheHits: 1},
		pop:  []*Individual{pinnedIndividual(3), pinnedIndividual(4)},
		memo: evalCache{9: {Fitness: 2, Snapshot: pinnedCoverage()}, 5: {Fitness: 1}},
	}
}

func pinnedV1() *hxck {
	w := &hxck{}
	w.u32(0x4858434b) // magic
	w.u32(1)
	w.u64(0xfeedface)
	w.u32(2)
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
	w.individual(pinnedIndividual(3))
	w.individual(pinnedIndividual(4))
	w.u32(2) // memo, ascending by key
	w.u64(5)
	w.f64(1)
	w.coverage(&coverage.Snapshot{})
	w.u64(9)
	w.f64(2)
	cov := pinnedCoverage()
	w.coverage(&cov)
	return w
}

// TestSnapshotFormatPinned checks both directions of the HXCK codec
// against hand-built bytes.
func TestSnapshotFormatPinned(t *testing.T) {
	s := pinnedSnapshot()
	want := pinnedV1().b

	path := filepath.Join(t.TempDir(), "v1.hxck")
	if err := writeSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("encode:\n got %x\nwant %x", got, want)
	}
	got, err := readSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("decode:\n got %+v\nwant %+v", got, s)
	}
}

// TestResumeRefusesRemovedModeCheckpoint: a version-2 file — the pinned
// state plus the bandit and archive tail the removed search modes wrote
// — is refused by name, never decoded and never a silent fresh start.
func TestResumeRefusesRemovedModeCheckpoint(t *testing.T) {
	w := pinnedV1()
	w.b[4] = snapVersionRemoved
	w.u32(2) // bandit arms: pulls, reward sum
	w.u64(1)
	w.f64(0.5)
	w.u64(2)
	w.f64(1)
	w.u32(1) // archive
	w.individual(pinnedIndividual(6))

	path := filepath.Join(t.TempDir(), "v2.hxck")
	if err := os.WriteFile(path, w.b, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := maybeResume(&Options{Resume: true, CheckpointPath: path})
	if snap != nil || err == nil {
		t.Fatalf("version-2 checkpoint: snapshot %v, error %v; want a refusal", snap, err)
	}
	for _, want := range []string{"version 2", "removed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
}
