package corpus

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/uarch"
)

// TestRankConcurrentSharedGoldenCache: two ranking sweeps over
// different structure slices of one store, racing on a shared golden
// cache, must (a) be data-race free, (b) produce detection results
// identical to sequential uncached sweeps, and (c) compute each
// program's golden run exactly once across both sweeps — the archive
// holds the same three programs under both structures (keyed once by
// genotype hash, once by program hash), so every L1D campaign shares
// its golden bundle with the IRF campaign on the same program. Run
// under -race in CI.
func TestRankConcurrentSharedGoldenCache(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const nProgs = 3
	for seed := uint64(1); seed <= nProgs; seed++ {
		g, p := testProgram(seed)
		if res, err := s.Add(p, g, Meta{Structure: "IRF"}); err != nil || !res.Added {
			t.Fatalf("add IRF program: %+v, %v", res, err)
		}
		// Same program bytes, no genotype: keyed by program hash, so it
		// coexists as a distinct entry under the second structure.
		if res, err := s.Add(p, nil, Meta{Structure: "L1D"}); err != nil || !res.Added {
			t.Fatalf("add L1D program: %+v, %v", res, err)
		}
	}

	rank := func(st coverage.Structure, gc *inject.GoldenCache, force bool,
		ob *obs.Observer) map[string]float64 {
		got := make(map[string]float64)
		var mu sync.Mutex
		ranked, _, err := s.Rank(&inject.Campaign{
			Target:      st,
			Type:        inject.Transient,
			N:           12,
			Seed:        5,
			Cfg:         uarch.DefaultConfig(),
			GoldenCache: gc,
			Obs:         ob,
		}, force, func(m *Meta, st *inject.Stats) {
			mu.Lock()
			got[m.Hash] = m.Detection
			mu.Unlock()
		})
		if err != nil {
			t.Error(err)
		}
		if ranked != nProgs {
			t.Errorf("ranked %d entries of %v, want %d", ranked, st, nProgs)
		}
		return got
	}

	// Sequential uncached reference.
	wantIRF := rank(coverage.IRF, nil, false, nil)
	wantL1D := rank(coverage.L1D, nil, false, nil)

	gc := inject.NewGoldenCache(0)
	reg := obs.NewRegistry()
	ob := obs.New(reg, nil)
	var wg sync.WaitGroup
	var gotIRF, gotL1D map[string]float64
	wg.Add(2)
	go func() { defer wg.Done(); gotIRF = rank(coverage.IRF, gc, true, ob) }()
	go func() { defer wg.Done(); gotL1D = rank(coverage.L1D, gc, true, ob) }()
	wg.Wait()

	for hash, want := range wantIRF {
		if gotIRF[hash] != want {
			t.Errorf("IRF detection for %s: cached %v, uncached %v", hash, gotIRF[hash], want)
		}
	}
	for hash, want := range wantL1D {
		if gotL1D[hash] != want {
			t.Errorf("L1D detection for %s: cached %v, uncached %v", hash, gotL1D[hash], want)
		}
	}
	misses := reg.Counter("inject.golden.cache.misses").Load()
	hits := reg.Counter("inject.golden.cache.hits").Load()
	if misses != nProgs {
		t.Errorf("golden computed %d times across both sweeps, want %d (one per program)", misses, nProgs)
	}
	if hits != nProgs {
		t.Errorf("golden cache hits = %d, want %d (second sweep rides the first)", hits, nProgs)
	}
}

// TestRankRefusesUnimplementedModel: an explicit transient ranking of a
// functional unit is refused by name, as the same campaign is without a
// corpus, whether or not the archive holds programs of the unit, and
// records nothing; it used to run the permanent model and record
// "permanent".
func TestRankRefusesUnimplementedModel(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	model := inject.Campaign{Target: coverage.IntMul, Type: inject.Transient, N: 4, Cfg: uarch.DefaultConfig()}
	if _, _, err := s.Rank(&model, false, nil); err == nil {
		t.Fatal("transient IntMul ranking of an empty archive accepted")
	}
	g, p := testProgram(1)
	res, err := s.Add(p, g, Meta{Structure: coverage.IntMul.String()})
	if err != nil || !res.Added {
		t.Fatalf("add: %+v, %v", res, err)
	}
	model.Seed = 1
	ranked, _, err := s.Rank(&model, false, nil)
	if err == nil || !strings.Contains(err.Error(), "transient") || ranked != 0 {
		t.Fatalf("transient IntMul ranking: ranked %d, err %v; want a refusal naming transient", ranked, err)
	}
	if m, _ := s.Entry(res.Hash); m.Ranked() {
		t.Fatalf("refused ranking recorded %q", m.FaultType)
	}
	model.Type = inject.Permanent
	if ranked, _, err = s.Rank(&model, false, nil); err != nil || ranked != 1 {
		t.Fatalf("permanent IntMul ranking: ranked %d, err %v", ranked, err)
	}
	if m, _ := s.Entry(res.Hash); m.FaultType != "permanent" {
		t.Fatalf("permanent ranking recorded %q", m.FaultType)
	}

	// A burst wider than an IRF register is refused before any entry is
	// loaded: with the entry's program gone, the refusal names the burst,
	// and the widest burst the IRF takes reaches the entry and fails on
	// the missing program.
	g, p = testProgram(2)
	res, err = s.Add(p, g, Meta{Structure: coverage.IRF.String()})
	if err != nil || !res.Added {
		t.Fatalf("add: %+v, %v", res, err)
	}
	if err := os.Remove(filepath.Join(s.Dir(), programDir, res.Hash+".hxpg")); err != nil {
		t.Fatal(err)
	}
	model = inject.Campaign{Target: coverage.IRF, Type: inject.Transient, N: 4, BurstLen: 65, Cfg: uarch.DefaultConfig()}
	if _, _, err := s.Rank(&model, true, nil); err == nil || !strings.Contains(err.Error(), "burst length 65") {
		t.Fatalf("65-bit IRF burst ranking: err %v; want a refusal naming the burst", err)
	}
	model.BurstLen = 64
	if _, _, err := s.Rank(&model, true, nil); err == nil || !strings.Contains(err.Error(), "load") {
		t.Fatalf("64-bit IRF burst ranking of a missing program: err %v; want a load error", err)
	}
}

// rankAll ranks every entry of the model's structure unless force is
// false and the entry was measured under the same fault model, and
// reports how many it ranked.
func rankAll(t *testing.T, s *Store, model inject.Campaign, force bool) int {
	t.Helper()
	model.Cfg = uarch.DefaultConfig()
	ranked, skipped, err := s.Rank(&model, force, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.ListStructure(model.Target.String())); ranked+skipped != n {
		t.Fatalf("ranked %d + skipped %d of %d entries", ranked, skipped, n)
	}
	return ranked
}

// TestRankResumeMatchesWholeModel: a resumed ranking skips an entry only
// if it was measured under the whole fault model — type, N, seed, window
// and burst. A change of only the window or only the burst used to skip
// every entry and keep the old measurement. Two spellings of one model
// (a window on a transient model, which never reads it; burst 0 and 1)
// are the same model and still resume.
func TestRankResumeMatchesWholeModel(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const nProgs = 3
	for seed := uint64(1); seed <= nProgs; seed++ {
		g, p := testProgram(seed)
		if res, err := s.Add(p, g, Meta{Structure: "IRF"}); err != nil || !res.Added {
			t.Fatalf("add: %+v, %v", res, err)
		}
	}
	model := inject.Campaign{Target: coverage.IRF, Type: inject.Intermittent, N: 8, Seed: 1, IntermittentLen: 2}
	for _, step := range []struct {
		what string
		vary func(c *inject.Campaign)
		want int
	}{
		{"first ranking", func(c *inject.Campaign) {}, nProgs},
		{"resume, same model", func(c *inject.Campaign) {}, 0},
		{"resume, window 2 -> 100000", func(c *inject.Campaign) { c.IntermittentLen = 100000 }, nProgs},
		{"resume, burst 1 -> 4", func(c *inject.Campaign) { c.BurstLen = 4 }, nProgs},
		{"resume, same model again", func(c *inject.Campaign) {}, 0},
		{"resume, type -> transient", func(c *inject.Campaign) { c.Type = inject.Transient }, nProgs},
		{"resume, transient window 100000 -> 5", func(c *inject.Campaign) { c.IntermittentLen = 5 }, 0},
		{"resume, burst 4 -> 1", func(c *inject.Campaign) { c.BurstLen = 1 }, nProgs},
		{"resume, burst 1 -> 0", func(c *inject.Campaign) { c.BurstLen = 0 }, 0},
	} {
		step.vary(&model)
		if got := rankAll(t, s, model, false); got != step.want {
			t.Fatalf("%s: ranked %d entries, want %d", step.what, got, step.want)
		}
	}
	for _, m := range s.ListStructure("IRF") {
		if m.FaultType != "transient" || m.FaultWindow != 0 || m.FaultBurst != 0 {
			t.Fatalf("%s recorded %s, want the last single-bit transient ranking", m.Hash, m.faults())
		}
	}
}

// TestRankRecordsBurst: an IRF ranking at BurstLen 64 records its burst,
// and its detected set is its own. testProgram(6) at N = 16, seed 1
// detects injection 15 single-bit and injections 6 and 15 with 64-bit
// bursts; the ranking used to record the single-bit set for both.
func TestRankRecordsBurst(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	g, p := testProgram(6)
	res, err := s.Add(p, g, Meta{Structure: "IRF"})
	if err != nil || !res.Added {
		t.Fatalf("add: %+v, %v", res, err)
	}
	model := inject.Campaign{Target: coverage.IRF, Type: inject.Transient, N: 16, Seed: 1, BurstLen: 1}
	rankAll(t, s, model, true)
	single, _ := s.Entry(res.Hash)
	model.BurstLen = 64
	rankAll(t, s, model, true)
	burst, _ := s.Entry(res.Hash)
	if single.FaultBurst != 0 || burst.FaultBurst != 64 {
		t.Fatalf("recorded bursts %d and %d, want 0 (single-bit) and 64", single.FaultBurst, burst.FaultBurst)
	}
	if slices.Equal(single.Detected, burst.Detected) {
		t.Fatalf("64-bit bursts detected %v, the single-bit set", burst.Detected)
	}
}
