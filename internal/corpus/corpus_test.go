package corpus

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/prog"
)

// testCfg is a small generator configuration shared by the tests.
func testCfg() gen.Config {
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 40
	return cfg
}

// testProgram derives a deterministic (genotype, program) pair from a
// seed.
func testProgram(seed uint64) (*gen.Genotype, *prog.Program) {
	cfg := testCfg()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	g := gen.NewRandom(&cfg, rng)
	return g, gen.Materialize(g, &cfg)
}

// detecting returns the statistics of an n-injection campaign that
// detected exactly the given injections (as SDCs).
func detecting(n int, detected ...int) *inject.Stats {
	st := &inject.Stats{N: n, Masked: n, Outcomes: make([]inject.Outcome, n)}
	for _, i := range detected {
		st.Outcomes[i] = inject.SDC
		st.SDC++
		st.Masked--
	}
	return st
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestManifestRoundTrip: everything Add records must survive a store
// reopen — metadata, the program bytes and the genotype sidecar.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	g, p := testProgram(1)
	res, err := s.Add(p, g, Meta{Structure: "IntAdder", Fitness: 0.5, Iteration: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Added || res.Hash != Key(g.Hash()) {
		t.Fatalf("add: %+v", res)
	}
	model := &inject.Campaign{Type: inject.Intermittent, N: 10, Seed: 3, IntermittentLen: 500, BurstLen: 4}
	if err := s.SetDetection(res.Hash, model, detecting(10, 4, 1, 8)); err != nil {
		t.Fatal(err)
	}

	// A fresh Store must see the identical archive.
	s2 := mustOpen(t, dir)
	m, ok := s2.Entry(res.Hash)
	if !ok {
		t.Fatalf("entry %s lost across reopen", res.Hash)
	}
	want := &Meta{
		Hash: res.Hash, Name: p.Name, Structure: "IntAdder", Fitness: 0.5,
		Seed: g.Seed, Iteration: 7, Insts: len(p.Insts), Genotype: true,
		FaultType: "intermittent", FaultN: 10, FaultSeed: 3, FaultWindow: 500, FaultBurst: 4,
		Detection: 0.3, Detected: []int{1, 4, 8}, // stored sorted
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("metadata diverged across reopen:\ngot  %+v\nwant %+v", m, want)
	}

	p2, err := s2.Get(res.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if HashProgram(p2) != HashProgram(p) {
		t.Fatal("program bytes diverged across reopen")
	}
	g2, err := s2.Genotype(res.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Hash() != g.Hash() {
		t.Fatal("genotype diverged across reopen")
	}
}

// TestAddDedupConcurrent: concurrent Adds of the same content must
// archive it exactly once (run under -race).
func TestAddDedupConcurrent(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	g, p := testProgram(2)

	const workers = 8
	added := make(chan bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Add(p, g, Meta{Structure: "IRF", Fitness: 0.3})
			if err != nil {
				t.Error(err)
				return
			}
			added <- res.Added
		}()
	}
	wg.Wait()
	close(added)

	n := 0
	for a := range added {
		if a {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d of %d concurrent adds reported Added", n, workers)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", s.Len())
	}
}

// TestBoundedEvictionDeterministic: with a per-structure bound, the
// archive must converge to the fitness top-N regardless of insertion
// order.
func TestBoundedEvictionDeterministic(t *testing.T) {
	type cand struct {
		seed    uint64
		fitness float64
	}
	cands := []cand{{10, 0.1}, {11, 0.9}, {12, 0.5}, {13, 0.7}, {14, 0.3}}
	orders := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}}

	var survivors [][]string
	for _, order := range orders {
		s := mustOpen(t, t.TempDir())
		s.SetBound(3)
		for _, i := range order {
			g, p := testProgram(cands[i].seed)
			if _, err := s.Add(p, g, Meta{Structure: "IntMul", Fitness: cands[i].fitness}); err != nil {
				t.Fatal(err)
			}
		}
		var hashes []string
		for _, m := range s.ListStructure("IntMul") {
			hashes = append(hashes, m.Hash)
		}
		if len(hashes) != 3 {
			t.Fatalf("order %v: %d survivors, want 3", order, len(hashes))
		}
		survivors = append(survivors, hashes)
	}
	for _, got := range survivors[1:] {
		if !reflect.DeepEqual(got, survivors[0]) {
			t.Fatalf("survivors depend on insertion order: %v vs %v", got, survivors[0])
		}
	}
	// And they must be the top 3 by fitness: 0.9, 0.7, 0.5.
	s := mustOpen(t, t.TempDir())
	s.SetBound(3)
	for i := range cands {
		g, p := testProgram(cands[i].seed)
		if _, err := s.Add(p, g, Meta{Structure: "IntMul", Fitness: cands[i].fitness}); err != nil {
			t.Fatal(err)
		}
	}
	ms := s.ListStructure("IntMul")
	for i, want := range []float64{0.9, 0.7, 0.5} {
		if ms[i].Fitness != want {
			t.Fatalf("rank %d fitness %v, want %v", i, ms[i].Fitness, want)
		}
	}
}

// TestElites returns genotypes fittest-first, bounded by k.
func TestElites(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	seeds := []uint64{20, 21, 22}
	fits := []float64{0.2, 0.8, 0.5}
	for i := range seeds {
		g, p := testProgram(seeds[i])
		if _, err := s.Add(p, g, Meta{Structure: "FPAdd", Fitness: fits[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign program without genotype must never be served as a seed.
	_, foreign := testProgram(23)
	if _, err := s.Add(foreign, nil, Meta{Structure: "FPAdd", Fitness: 0.99}); err != nil {
		t.Fatal(err)
	}

	elites, err := s.Elites("FPAdd", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(elites) != 2 {
		t.Fatalf("%d elites, want 2", len(elites))
	}
	g1, _ := testProgram(21)
	g2, _ := testProgram(22)
	if elites[0].Hash() != g1.Hash() || elites[1].Hash() != g2.Hash() {
		t.Fatal("elites not ordered fittest-first")
	}
}

// TestDistillPreservesUnion is the distillation acceptance gate: the
// kept subset's detected-fault union must equal the full archive's, and
// redundant entries must be dropped.
func TestDistillPreservesUnion(t *testing.T) {
	metas := []*Meta{
		{Hash: "a", Fitness: 0.9, Detected: []int{0, 1, 2, 3, 4, 5}},
		{Hash: "b", Fitness: 0.8, Detected: []int{4, 5, 6, 7, 8, 9}},
		{Hash: "c", Fitness: 0.7, Detected: []int{0, 1}}, // fully redundant
	}
	keep, universe := Distill(metas)
	if universe != 10 {
		t.Fatalf("universe %d, want 10", universe)
	}
	if len(keep) != 2 {
		t.Fatalf("kept %d entries, want 2 (a and b cover everything)", len(keep))
	}
	if !reflect.DeepEqual(DetectedUnion(keep), DetectedUnion(metas)) {
		t.Fatal("distillation lost detected faults")
	}
	if keep[0].Hash != "a" || keep[1].Hash != "b" {
		t.Fatalf("kept %s,%s; want a,b", keep[0].Hash, keep[1].Hash)
	}

	// Determinism: shuffled input, same answer.
	shuffled := []*Meta{metas[2], metas[0], metas[1]}
	keep2, _ := Distill(shuffled)
	if len(keep2) != 2 || keep2[0].Hash != "a" || keep2[1].Hash != "b" {
		t.Fatal("distillation depends on input order")
	}
}

// TestStoreDistillApply: Distill(apply) removes the dropped entries from
// the store and the reduction survives a reopen.
func TestStoreDistillApply(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	sets := [][]int{{0, 1, 2}, {2, 3}, {0, 1}}
	seeds := []uint64{30, 31, 32}
	fits := []float64{0.9, 0.8, 0.7}
	for i := range sets {
		g, p := testProgram(seeds[i])
		res, err := s.Add(p, g, Meta{Structure: "IRF", Fitness: fits[i]})
		if err != nil {
			t.Fatal(err)
		}
		model := &inject.Campaign{Type: inject.Transient, N: 10, Seed: 1}
		if err := s.SetDetection(res.Hash, model, detecting(10, sets[i]...)); err != nil {
			t.Fatal(err)
		}
	}
	before := DetectedUnion(s.ListStructure("IRF"))

	kept, dropped, err := s.Distill("IRF", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 || len(dropped) != 1 {
		t.Fatalf("kept %d dropped %d, want 2/1", len(kept), len(dropped))
	}

	s2 := mustOpen(t, dir)
	after := s2.ListStructure("IRF")
	if len(after) != 2 {
		t.Fatalf("%d entries after apply+reopen, want 2", len(after))
	}
	if !reflect.DeepEqual(DetectedUnion(after), before) {
		t.Fatal("apply lost detected faults")
	}
	for _, m := range dropped {
		if _, err := os.Stat(filepath.Join(dir, "programs", m.Hash+".hxpg")); !os.IsNotExist(err) {
			t.Fatalf("dropped program %s still on disk", m.Hash)
		}
	}
}

// TestStoreDistillRejectsMixedConfigs: fault indices from different
// fault models are not comparable; distilling across them must fail,
// whichever one field of the model differs. The window and burst cases
// were distilled as one universe when the manifest recorded only type,
// N and seed.
func TestStoreDistillRejectsMixedConfigs(t *testing.T) {
	base := inject.Campaign{Type: inject.Intermittent, N: 10, Seed: 1, IntermittentLen: 100}
	for _, tc := range []struct {
		name string
		vary func(c *inject.Campaign)
	}{
		{"type", func(c *inject.Campaign) { c.Type = inject.Transient }},
		{"N", func(c *inject.Campaign) { c.N = 11 }},
		{"seed", func(c *inject.Campaign) { c.Seed = 2 }},
		{"window", func(c *inject.Campaign) { c.IntermittentLen = 7 }},
		{"burst", func(c *inject.Campaign) { c.BurstLen = 2 }},
	} {
		s := mustOpen(t, t.TempDir())
		for i, seed := range []uint64{40, 41} {
			g, p := testProgram(seed)
			res, err := s.Add(p, g, Meta{Structure: "L1D", Fitness: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			model := base
			if i == 1 {
				tc.vary(&model)
			}
			if err := s.SetDetection(res.Hash, &model, detecting(model.N, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.Distill("L1D", false); err == nil {
			t.Errorf("distill across fault models differing in %s succeeded; want error", tc.name)
		}
	}
	// Two spellings of one model are one universe: burst 0 and 1 are
	// both single-bit, and a transient model reads no window.
	s := mustOpen(t, t.TempDir())
	for i, seed := range []uint64{42, 43} {
		g, p := testProgram(seed)
		res, err := s.Add(p, g, Meta{Structure: "L1D", Fitness: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		model := &inject.Campaign{Type: inject.Transient, N: 10, Seed: 1, IntermittentLen: uint64(100 * i), BurstLen: i}
		if err := s.SetDetection(res.Hash, model, detecting(10, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Distill("L1D", false); err != nil {
		t.Fatalf("distill of one fault model spelled twice: %v", err)
	}
}

// TestGenotypeSidecarRejectsCorrupt: a truncated or trailing-garbage
// sidecar must error out of decode.
func TestGenotypeSidecarRejectsCorrupt(t *testing.T) {
	g, _ := testProgram(50)
	data := EncodeGenotype(g)
	if _, err := DecodeGenotype(data[:len(data)-1]); err == nil {
		t.Error("truncated sidecar decoded")
	}
	if _, err := DecodeGenotype(append(data, 0)); err == nil {
		t.Error("sidecar with trailing bytes decoded")
	}
	rt, err := DecodeGenotype(data)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Hash() != g.Hash() {
		t.Fatal("sidecar round-trip changed the genotype")
	}
}
