// Corpus ranking: measure every archived program of a structure with a
// statistical fault-injection campaign and record its detection rate
// and detected-fault set in the manifest — the measurement distillation
// minimizes over.
package corpus

import (
	"fmt"

	"harpocrates/internal/inject"
)

// Rank runs the model campaign on every archived program of its target
// structure and records each one's measurement. The model is a whole
// campaign but its program: each entry's run copies it and sets Prog,
// Init and ProgramHash, so its fault model, core configuration,
// parallelism, golden cache and observer reach every run. Entries
// already measured under the same fault model are skipped unless force
// is set, so a ranking sweep is resumable. progress, if set, observes
// each ranked entry. Returns the number of entries ranked and skipped.
func (s *Store) Rank(model *inject.Campaign, force bool, progress func(m *Meta, st *inject.Stats)) (ranked, skipped int, err error) {
	// Refuse a model the injector does not implement before anything is
	// loaded, whether or not the archive holds programs to rank.
	if model.N <= 0 {
		return 0, 0, fmt.Errorf("corpus: rank needs N > 0")
	}
	if err := model.Validate(); err != nil {
		return 0, 0, err
	}
	var want Meta
	want.setFaults(model)

	for _, m := range s.ListStructure(model.Target.String()) {
		if !force && m.Ranked() && m.sameFaults(&want) {
			skipped++
			continue
		}
		p, err := s.Get(m.Hash)
		if err != nil {
			return ranked, skipped, fmt.Errorf("corpus: load %s: %w", m.Hash, err)
		}
		c := *model
		c.Prog, c.Init = p.Insts, p.InitFunc()
		// Key by serialized program bytes (not m.Hash, which is the
		// genotype hash for evolved entries) so local sweeps and
		// distributed campaigns on the same program agree on the key.
		c.ProgramHash = HashProgram(p)
		st, err := c.Run()
		if err != nil {
			return ranked, skipped, fmt.Errorf("corpus: rank %s: %w", m.Hash, err)
		}
		if err := s.SetDetection(m.Hash, &c, st); err != nil {
			return ranked, skipped, err
		}
		ranked++
		if progress != nil {
			mm, _ := s.Entry(m.Hash)
			progress(mm, st)
		}
	}
	return ranked, skipped, nil
}
