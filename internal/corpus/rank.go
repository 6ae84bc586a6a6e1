// Corpus ranking: measure every archived program of a structure with a
// statistical fault-injection campaign and record its detection rate
// and detected-fault set in the manifest — the measurement distillation
// minimizes over.
package corpus

import (
	"fmt"

	"harpocrates/internal/coverage"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/uarch"
)

// RankOptions configures a ranking sweep.
type RankOptions struct {
	// Structure selects the archive slice and the campaign target.
	Structure coverage.Structure
	// Type is the fault model; it must be one the structure implements
	// (inject.DefaultFaultType gives the structure's default). The zero
	// value is Transient, which no functional unit implements.
	Type inject.FaultType
	// N is the number of injections per program.
	N int
	// Seed is the campaign seed; together with N and Type it defines
	// the fault universe the detected sets index into.
	Seed uint64
	// IntermittentLen is the intermittent fault window (cycles).
	IntermittentLen uint64
	// Cfg is the core model configuration (zero value: defaults).
	Cfg uarch.Config
	// Force re-ranks entries already measured under the same campaign
	// configuration (default: they are skipped, which is what lets an
	// interrupted ranking sweep resume where it stopped).
	Force bool
	// Workers bounds per-campaign parallelism (0 = GOMAXPROCS).
	Workers int
	// GoldenCache, if set, shares golden artifact bundles across the
	// sweep's campaigns (callers usually pass
	// inject.SharedGoldenCache()): a multi-structure sweep over one
	// program computes the golden run once instead of once per
	// structure. nil means every campaign computes its own.
	GoldenCache *inject.GoldenCache
	// Obs receives campaign metrics; nil disables.
	Obs *obs.Observer
	// Progress, if set, observes each ranked entry.
	Progress func(m *Meta, st *inject.Stats)
}

// Rank runs the configured campaign on every archived program of the
// structure, recording detection metadata. Entries already ranked under
// an identical configuration are skipped unless Force is set, so a
// ranking sweep is resumable. Returns the number of entries ranked and
// skipped.
func (s *Store) Rank(opt RankOptions) (ranked, skipped int, err error) {
	if opt.N <= 0 {
		return 0, 0, fmt.Errorf("corpus: rank needs N > 0")
	}
	cfg := opt.Cfg.WithDefaults()
	// Refuse a model the injector does not implement before anything is
	// loaded, whether or not the archive holds programs to rank.
	model := inject.Campaign{Target: opt.Structure, Type: opt.Type, Cfg: cfg}
	if err := model.Validate(); err != nil {
		return 0, 0, err
	}

	for _, m := range s.ListStructure(opt.Structure.String()) {
		if !opt.Force && m.Ranked() &&
			m.FaultType == opt.Type.String() && m.FaultN == opt.N && m.FaultSeed == opt.Seed {
			skipped++
			continue
		}
		p, err := s.Get(m.Hash)
		if err != nil {
			return ranked, skipped, fmt.Errorf("corpus: load %s: %w", m.Hash, err)
		}
		c := &inject.Campaign{
			Prog:            p.Insts,
			Init:            p.InitFunc(),
			Target:          opt.Structure,
			Type:            opt.Type,
			N:               opt.N,
			IntermittentLen: opt.IntermittentLen,
			Seed:            opt.Seed,
			Cfg:             cfg,
			Workers:         opt.Workers,
			GoldenCache:     opt.GoldenCache,
			// Key by serialized program bytes (not m.Hash, which is the
			// genotype hash for evolved entries) so local sweeps and
			// distributed campaigns on the same program agree on the key.
			ProgramHash: HashProgram(p),
			Obs:         opt.Obs,
		}
		st, err := c.Run()
		if err != nil {
			return ranked, skipped, fmt.Errorf("corpus: rank %s: %w", m.Hash, err)
		}
		if err := s.SetDetection(m.Hash, opt.Type.String(), opt.N, opt.Seed, st.Detection(), st.DetectedSet()); err != nil {
			return ranked, skipped, err
		}
		ranked++
		if opt.Progress != nil {
			mm, _ := s.Entry(m.Hash)
			opt.Progress(mm, st)
		}
	}
	return ranked, skipped, nil
}
