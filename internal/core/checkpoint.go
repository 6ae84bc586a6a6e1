// Campaign checkpoint/resume: the refinement loop persists a snapshot
// of its complete optimization state — population with fitnesses and
// coverage snapshots, RNG source state, iteration counter, history and
// the fitness memo — at the end of each iteration, and can restart from
// it after an interruption. The snapshot point is chosen so that a
// resumed run replays the identical trajectory: History, the best
// genotype, convergence behaviour and the evaluation counters are all
// bit-identical to the same run left uninterrupted (only the wall-clock
// Times restart from zero).
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"

	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
	"harpocrates/internal/sched"
	"harpocrates/internal/segstore"
	"harpocrates/internal/stats"
)

// Binary container format for loop snapshots ("HXCK"). Version 1 is
// the static-schedule format; version 2 appends the adaptive sections
// (bandit arm state, Pareto archive) and is written only by runs with
// Adaptive or Pareto set, so static checkpoints stay byte-identical
// across releases.
const (
	snapMagic           = 0x4858434b // "HXCK"
	snapVersion         = 1
	snapVersionAdaptive = 2
)

// snapshot is the persisted loop state.
type snapshot struct {
	optsHash uint64
	nextIt   int
	rng      []byte
	hist     *History
	pop      []*Individual
	memo     evalCache

	// Adaptive sections (version 2; nil/empty on static snapshots).
	bandit  *sched.State
	archive []*Individual
}

// resumeHash fingerprints every option that shapes the optimization
// trajectory, so a snapshot cannot silently resume under a different
// configuration. Excluded on purpose: Iterations and the convergence
// knobs (extending the iteration budget of an interrupted run is a
// legitimate resume) and Seeds (they only shape the initial population,
// which the snapshot captures in full — and a corpus-backed caller's
// elite set legitimately grows between interruption and resume). (A
// custom Mutate function cannot be fingerprinted; callers overriding it
// must keep it stable across resume themselves.)
func (o *Options) resumeHash() uint64 {
	h := stats.Mix64(stats.HashInit, uint64(o.Structure))
	h = stats.Mix64(h, uint64(o.PopSize))
	h = stats.Mix64(h, uint64(o.TopK))
	h = stats.Mix64(h, uint64(o.MutantsPerParent))
	h = stats.Mix64(h, o.Seed)
	h = stats.Mix64(h, uint64(o.Gen.NumInstrs))
	h = stats.Mix64(h, uint64(o.Gen.RegAlloc))
	h = stats.Mix64(h, uint64(o.Gen.Mem.RegionBytes))
	h = stats.Mix64(h, uint64(o.Gen.Mem.Stride))
	h = stats.Mix64(h, uint64(len(o.Gen.Allowed)))
	for _, v := range o.Gen.Allowed {
		h = stats.Mix64(h, uint64(v))
	}
	for _, w := range o.Gen.Weights {
		h = stats.Mix64(h, math.Float64bits(w))
	}
	for _, b := range []byte(o.Metric.Name) {
		h = stats.Mix64(h, uint64(b))
	}
	// The adaptive flags reshape the trajectory (operator dispatch,
	// selection order), so they are folded in — but only when set, which
	// keeps every pre-existing static hash unchanged and makes a static
	// snapshot refuse an adaptive resume (and vice versa).
	if o.Adaptive {
		h = stats.Mix64(h, 0xada7d1fe)
		h = stats.Mix64(h, math.Float64bits(o.Sched.Explore))
		h = stats.Mix64(h, math.Float64bits(o.Sched.UCBC))
	}
	if o.Pareto {
		h = stats.Mix64(h, 0x9a4e7000)
		h = stats.Mix64(h, uint64(o.ParetoBound))
	}
	return h
}

// maybeResume loads the snapshot at CheckpointPath when resume is
// requested and one exists. A missing file is a fresh start, not an
// error; a corrupt file or an options mismatch is an error (resuming
// anyway would silently diverge).
func maybeResume(o *Options) (*snapshot, error) {
	if !o.Resume || o.CheckpointPath == "" {
		return nil, nil
	}
	f, err := os.Open(o.CheckpointPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: open checkpoint: %w", err)
	}
	defer f.Close()
	snap, err := readSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint %s: %w", o.CheckpointPath, err)
	}
	if snap.optsHash != o.resumeHash() {
		return nil, fmt.Errorf("core: checkpoint %s was written by a run with different options (seed/population/generator config); refusing to resume", o.CheckpointPath)
	}
	return snap, nil
}

// mustMarshalRNG marshals the PCG source state. The PCG marshaler
// cannot fail; the wrapper keeps the call site clean.
func mustMarshalRNG(src interface{ MarshalBinary() ([]byte, error) }) []byte {
	b, err := src.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("core: marshal rng: %v", err))
	}
	return b
}

// writeSnapshot serializes the snapshot and atomically replaces path
// (temp file, fsync, rename), so an interruption or power cut mid-write
// never corrupts the previous checkpoint.
func writeSnapshot(path string, s *snapshot) error {
	var buf bytes.Buffer
	le := binary.LittleEndian
	put := func(v any) { _ = binary.Write(&buf, le, v) }
	putInd := func(ind *Individual) {
		put(ind.Fitness)
		put(ind.Snapshot)
		put(ind.G.Seed)
		put(uint32(len(ind.G.Variants)))
		for _, v := range ind.G.Variants {
			put(uint16(v))
		}
	}

	version := uint32(snapVersion)
	if s.bandit != nil || len(s.archive) > 0 {
		version = snapVersionAdaptive
	}
	put(uint32(snapMagic))
	put(version)
	put(s.optsHash)
	put(uint32(s.nextIt))
	put(uint32(len(s.rng)))
	buf.Write(s.rng)

	put(uint32(len(s.hist.Best)))
	for _, v := range s.hist.Best {
		put(v)
	}
	put(uint32(len(s.hist.MeanTopK)))
	for _, v := range s.hist.MeanTopK {
		put(v)
	}
	put(uint64(s.hist.EvaluatedPrograms))
	put(s.hist.EvaluatedInstructions)
	put(uint64(s.hist.CacheHits))

	put(uint32(len(s.pop)))
	for _, ind := range s.pop {
		putInd(ind)
	}

	// The fitness memo makes the resumed run's cache behaviour (and so
	// History.CacheHits / EvaluatedInstructions) identical, not just the
	// trajectory. Keys are written sorted so the same state always
	// serializes to the same bytes.
	keys := make([]uint64, 0, len(s.memo))
	for k := range s.memo {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	put(uint32(len(keys)))
	for _, k := range keys {
		e := s.memo[k]
		put(k)
		put(e.Fitness)
		put(e.Snapshot)
	}

	if version >= snapVersionAdaptive {
		// Bandit arm state, positional over the portfolio (0 arms when
		// the run is Pareto-only).
		if s.bandit != nil {
			put(uint32(len(s.bandit.Pulls)))
			for i := range s.bandit.Pulls {
				put(s.bandit.Pulls[i])
				put(s.bandit.Rewards[i])
			}
		} else {
			put(uint32(0))
		}
		// Pareto archive members; vectors are recomputed from the stored
		// coverage snapshots on restore.
		put(uint32(len(s.archive)))
		for _, ind := range s.archive {
			putInd(ind)
		}
	}

	if err := segstore.WriteFileAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// Decoder bounds: a snapshot is machine-written, but it still travels
// through filesystems; a corrupt length field must produce an error,
// not an arbitrarily large allocation.
const (
	maxSnapRNGBytes = 1 << 12
	maxSnapSeries   = 1 << 24
	maxSnapPop      = 1 << 20
	maxSnapVariants = 1 << 24
	maxSnapMemo     = 1 << 26
	maxSnapArms     = 1 << 8
)

// readSnapshot deserializes a snapshot written by writeSnapshot.
func readSnapshot(r io.Reader) (*snapshot, error) {
	le := binary.LittleEndian
	get := func(v any) error { return binary.Read(r, le, v) }
	getLen := func(limit uint32, what string) (uint32, error) {
		var n uint32
		if err := get(&n); err != nil {
			return 0, err
		}
		if n > limit {
			return 0, fmt.Errorf("unreasonable %s count %d", what, n)
		}
		return n, nil
	}
	getFloats := func(what string) ([]float64, error) {
		n, err := getLen(maxSnapSeries, what)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			if err := get(&out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	getInd := func() (*Individual, error) {
		ind := &Individual{G: &gen.Genotype{}}
		if err := get(&ind.Fitness); err != nil {
			return nil, err
		}
		if err := get(&ind.Snapshot); err != nil {
			return nil, err
		}
		if err := get(&ind.G.Seed); err != nil {
			return nil, err
		}
		nVar, err := getLen(maxSnapVariants, "variant")
		if err != nil {
			return nil, err
		}
		ind.G.Variants = make([]isa.VariantID, nVar)
		for j := range ind.G.Variants {
			var v uint16
			if err := get(&v); err != nil {
				return nil, err
			}
			ind.G.Variants[j] = isa.VariantID(v)
		}
		return ind, nil
	}

	var magic, version uint32
	if err := get(&magic); err != nil {
		return nil, err
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("bad magic %#x", magic)
	}
	if err := get(&version); err != nil {
		return nil, err
	}
	if version != snapVersion && version != snapVersionAdaptive {
		return nil, fmt.Errorf("unsupported version %d", version)
	}

	s := &snapshot{hist: &History{}, memo: make(evalCache)}
	if err := get(&s.optsHash); err != nil {
		return nil, err
	}
	var nextIt uint32
	if err := get(&nextIt); err != nil {
		return nil, err
	}
	s.nextIt = int(nextIt)
	nRNG, err := getLen(maxSnapRNGBytes, "rng state")
	if err != nil {
		return nil, err
	}
	s.rng = make([]byte, nRNG)
	if _, err := io.ReadFull(r, s.rng); err != nil {
		return nil, err
	}

	if s.hist.Best, err = getFloats("history"); err != nil {
		return nil, err
	}
	if s.hist.MeanTopK, err = getFloats("history"); err != nil {
		return nil, err
	}
	var evalProgs, cacheHits uint64
	if err := get(&evalProgs); err != nil {
		return nil, err
	}
	if err := get(&s.hist.EvaluatedInstructions); err != nil {
		return nil, err
	}
	if err := get(&cacheHits); err != nil {
		return nil, err
	}
	s.hist.EvaluatedPrograms = int(evalProgs)
	s.hist.CacheHits = int(cacheHits)

	nPop, err := getLen(maxSnapPop, "population")
	if err != nil {
		return nil, err
	}
	s.pop = make([]*Individual, nPop)
	for i := range s.pop {
		ind, err := getInd()
		if err != nil {
			return nil, err
		}
		s.pop[i] = ind
	}

	nMemo, err := getLen(maxSnapMemo, "memo")
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nMemo; i++ {
		var k uint64
		var e EvalResult
		if err := get(&k); err != nil {
			return nil, err
		}
		if err := get(&e.Fitness); err != nil {
			return nil, err
		}
		if err := get(&e.Snapshot); err != nil {
			return nil, err
		}
		s.memo[k] = e
	}

	if version >= snapVersionAdaptive {
		nArms, err := getLen(maxSnapArms, "bandit arm")
		if err != nil {
			return nil, err
		}
		if nArms > 0 {
			st := &sched.State{
				Pulls:   make([]uint64, nArms),
				Rewards: make([]float64, nArms),
			}
			for i := uint32(0); i < nArms; i++ {
				if err := get(&st.Pulls[i]); err != nil {
					return nil, err
				}
				if err := get(&st.Rewards[i]); err != nil {
					return nil, err
				}
			}
			s.bandit = st
		}
		nArch, err := getLen(maxSnapPop, "archive")
		if err != nil {
			return nil, err
		}
		s.archive = make([]*Individual, nArch)
		for i := range s.archive {
			ind, err := getInd()
			if err != nil {
				return nil, err
			}
			s.archive[i] = ind
		}
	}
	return s, nil
}
