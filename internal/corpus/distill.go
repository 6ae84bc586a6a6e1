// Corpus distillation: minimize an archive to the smallest subset of
// programs that preserves the union of detected-fault sets — the
// INSTILLER/SiliFuzz observation that a distilled corpus buys the same
// fault coverage for a fraction of the fleet execution time. Minimum
// set cover is NP-hard; the standard greedy algorithm (repeatedly take
// the program covering the most still-uncovered faults) gives the
// ln(n)-approximation and is exact on the small archives a store
// holds.
package corpus

import (
	"fmt"
	"sort"
)

// Distill computes a greedy minimum-set-cover subset of the given
// entries whose combined detected-fault sets equal the union over all
// entries. Entries must have been ranked under the same fault model for
// their fault indices to be comparable (Store.Distill enforces this). The returned subset is in pick order (largest
// marginal coverage first); ties break toward higher fitness, then
// lower hash, so the result is deterministic. The second result is the
// size of the covered universe.
func Distill(metas []*Meta) (keep []*Meta, universe int) {
	uncovered := make(map[int]struct{})
	for _, m := range metas {
		for _, f := range m.Detected {
			uncovered[f] = struct{}{}
		}
	}
	universe = len(uncovered)

	remaining := append([]*Meta(nil), metas...)
	// Deterministic scan order regardless of caller ordering.
	sort.Slice(remaining, func(a, b int) bool {
		if remaining[a].Fitness != remaining[b].Fitness {
			return remaining[a].Fitness > remaining[b].Fitness
		}
		return remaining[a].Hash < remaining[b].Hash
	})

	for len(uncovered) > 0 {
		bestIdx, bestGain := -1, 0
		for i, m := range remaining {
			if m == nil {
				continue
			}
			gain := 0
			for _, f := range m.Detected {
				if _, ok := uncovered[f]; ok {
					gain++
				}
			}
			// Strict > keeps the first (highest-fitness, lowest-hash)
			// entry among equal gains.
			if gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		if bestIdx < 0 {
			break // cannot happen: uncovered is built from these sets
		}
		m := remaining[bestIdx]
		remaining[bestIdx] = nil
		keep = append(keep, m)
		for _, f := range m.Detected {
			delete(uncovered, f)
		}
	}
	return keep, universe
}

// DetectedUnion returns the union of the entries' detected-fault sets.
func DetectedUnion(metas []*Meta) map[int]struct{} {
	u := make(map[int]struct{})
	for _, m := range metas {
		for _, f := range m.Detected {
			u[f] = struct{}{}
		}
	}
	return u
}

// Distill minimizes the structure's ranked entries to the greedy
// set-cover subset. With apply=false it only reports what would be
// kept and dropped; with apply=true the dropped entries are removed
// from the store. Unranked entries of the structure are never touched
// (they carry no measurement to preserve or discard by).
func (s *Store) Distill(structure string, apply bool) (kept, dropped []*Meta, err error) {
	ranked := make([]*Meta, 0)
	for _, m := range s.ListStructure(structure) {
		if m.Ranked() {
			ranked = append(ranked, m)
		}
	}
	if len(ranked) == 0 {
		return nil, nil, fmt.Errorf("corpus: no ranked %s entries to distill (rank them with faultsim -corpus first)", structure)
	}
	// Fault indices are only comparable under one fault model; a mixed
	// archive must be re-ranked first.
	ref := ranked[0]
	for _, m := range ranked[1:] {
		if !m.sameFaults(ref) {
			return nil, nil, fmt.Errorf(
				"corpus: %s entries ranked under mixed fault models (%s vs %s); re-rank before distilling",
				structure, ref.faults(), m.faults())
		}
	}

	kept, _ = Distill(ranked)
	keptSet := make(map[string]struct{}, len(kept))
	for _, m := range kept {
		keptSet[m.Hash] = struct{}{}
	}
	for _, m := range ranked {
		if _, ok := keptSet[m.Hash]; !ok {
			dropped = append(dropped, m)
		}
	}

	if len(ranked) > 0 {
		s.ob.Gauge("corpus.distill.reduction").Set(float64(len(kept)) / float64(len(ranked)))
	}
	if apply {
		s.mu.Lock()
		for _, m := range dropped {
			s.removeLocked(m.Hash)
		}
		ferr := s.flushLocked()
		s.mu.Unlock()
		if ferr != nil {
			return kept, dropped, ferr
		}
		s.setSizeGauge()
	}
	return kept, dropped, nil
}
