package corpus

import (
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
