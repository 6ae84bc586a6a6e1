package corpus

import (
	"strings"
	"sync"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
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
		ranked, _, err := s.Rank(RankOptions{
			Structure:   st,
			Type:        inject.Transient,
			N:           12,
			Seed:        5,
			Force:       force,
			GoldenCache: gc,
			Obs:         ob,
			Progress: func(m *Meta, st *inject.Stats) {
				mu.Lock()
				got[m.Hash] = m.Detection
				mu.Unlock()
			},
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
	if _, _, err := s.Rank(RankOptions{Structure: coverage.IntMul, Type: inject.Transient, N: 4}); err == nil {
		t.Fatal("transient IntMul ranking of an empty archive accepted")
	}
	g, p := testProgram(1)
	res, err := s.Add(p, g, Meta{Structure: coverage.IntMul.String()})
	if err != nil || !res.Added {
		t.Fatalf("add: %+v, %v", res, err)
	}
	opt := RankOptions{Structure: coverage.IntMul, Type: inject.Transient, N: 4, Seed: 1}
	ranked, _, err := s.Rank(opt)
	if err == nil || !strings.Contains(err.Error(), "transient") || ranked != 0 {
		t.Fatalf("transient IntMul ranking: ranked %d, err %v; want a refusal naming transient", ranked, err)
	}
	if m, _ := s.Entry(res.Hash); m.Ranked() {
		t.Fatalf("refused ranking recorded %q", m.FaultType)
	}
	opt.Type = inject.Permanent
	if ranked, _, err = s.Rank(opt); err != nil || ranked != 1 {
		t.Fatalf("permanent IntMul ranking: ranked %d, err %v", ranked, err)
	}
	if m, _ := s.Entry(res.Hash); m.FaultType != "permanent" {
		t.Fatalf("permanent ranking recorded %q", m.FaultType)
	}
}
