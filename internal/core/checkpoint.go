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
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math"
	"os"
	"slices"

	"harpocrates/internal/binfmt"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/segstore"
	"harpocrates/internal/stats"
)

// Binary container format for loop snapshots ("HXCK"). Version 2 was
// written by two search modes that have been removed; it is recognised
// only so that the refusal can say so.
const (
	snapMagic          = 0x4858434b // "HXCK"
	snapVersion        = 1
	snapVersionRemoved = 2
)

// snapshot is the persisted loop state.
type snapshot struct {
	optsHash uint64
	nextIt   int
	rng      []byte
	hist     *History
	pop      []*Individual
	memo     evalCache
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

// Decoder bounds: a snapshot is machine-written, but it still travels
// through filesystems; a corrupt length field must produce an error,
// not an arbitrarily large allocation. On top of these ceilings binfmt
// refuses any count the bytes actually present cannot back.
const (
	maxSnapRNGBytes = 1 << 12
	maxSnapSeries   = 1 << 24
	maxSnapPop      = 1 << 20
	maxSnapMemo     = 1 << 26

	// coverageBytes is a coverage.Snapshot on the wire; an individual
	// adds its fitness and an empty genotype, a memo entry its key and
	// fitness.
	coverageBytes   = 40 + 16*int(coverage.NumStructures)
	individualBytes = 8 + coverageBytes + 12
	memoEntryBytes  = 16 + coverageBytes

	// maxSnapBytes caps how much of a stream readSnapshot will buffer:
	// the largest memo the ceilings allow, which dwarfs everything else.
	maxSnapBytes = maxSnapMemo * 2 * memoEntryBytes
)

// coverageCodec walks a coverage.Snapshot: cycles, instructions, the
// three ACE vulnerabilities, then the IBR array and the unit-use array
// (each whole, not interleaved).
func coverageCodec(c *binfmt.Codec, s *coverage.Snapshot) {
	binfmt.U64(c, &s.Cycles)
	binfmt.U64(c, &s.Instructions)
	c.F64(&s.IRFVuln)
	c.F64(&s.L1DVuln)
	c.F64(&s.FPRFVuln)
	for i := range s.IBR {
		c.F64(&s.IBR[i])
	}
	for i := range s.UnitUses {
		binfmt.U64(c, &s.UnitUses[i])
	}
}

// codec walks the HXCK layout in whichever direction c runs: header,
// options hash, next iteration, RNG state, history, population and
// fitness memo.
func (s *snapshot) codec(c *binfmt.Codec) error {
	dec := c.Decoding()
	if c.Header(snapMagic, snapVersion, snapVersionRemoved) == snapVersionRemoved {
		c.Fail("HXCK version %d was written by the removed -adaptive/-pareto loop modes; delete the file or resume it with the release that wrote it", snapVersionRemoved)
	}
	binfmt.U64(c, &s.optsHash)
	binfmt.U32(c, &s.nextIt)
	c.Bytes(&s.rng, maxSnapRNGBytes)

	binfmt.Slice(c, &s.hist.Best, 8, maxSnapSeries, c.F64)
	binfmt.Slice(c, &s.hist.MeanTopK, 8, maxSnapSeries, c.F64)
	binfmt.U64(c, &s.hist.EvaluatedPrograms)
	binfmt.U64(c, &s.hist.EvaluatedInstructions)
	binfmt.U64(c, &s.hist.CacheHits)

	binfmt.Slice(c, &s.pop, individualBytes, maxSnapPop, func(ip **Individual) {
		if dec {
			*ip = &Individual{G: &gen.Genotype{}}
		}
		ind := *ip
		c.F64(&ind.Fitness)
		coverageCodec(c, &ind.Snapshot)
		ind.G.Codec(c)
	})

	// The fitness memo makes the resumed run's cache behaviour (and so
	// History.CacheHits / EvaluatedInstructions) identical, not just the
	// trajectory. Keys are written sorted so the same state always
	// serializes to the same bytes, and must arrive that way.
	var keys []uint64
	if !dec {
		keys = slices.Sorted(maps.Keys(s.memo))
	}
	var prev *uint64
	binfmt.Slice(c, &keys, memoEntryBytes, maxSnapMemo, func(k *uint64) {
		binfmt.U64(c, k)
		if dec && prev != nil && *k <= *prev {
			c.Fail("memo keys out of order")
		}
		prev = k
		e := s.memo[*k]
		c.F64(&e.Fitness)
		coverageCodec(c, &e.Snapshot)
		if dec && c.Err() == nil {
			s.memo[*k] = e
		}
	})
	return c.End()
}

// writeSnapshot serializes the snapshot and atomically replaces path
// (temp file, fsync, rename), so an interruption or power cut mid-write
// never corrupts the previous checkpoint.
func writeSnapshot(path string, s *snapshot) error {
	c := binfmt.NewEncoder(nil)
	_ = s.codec(c) // the walker only fails when decoding
	if err := segstore.WriteFileAtomic(path, c.Encoded()); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// readSnapshot deserializes a snapshot written by writeSnapshot. The
// stream is buffered incrementally and decoded from memory, so a hostile
// length backed by a short file costs only the bytes present.
func readSnapshot(r io.Reader) (*snapshot, error) {
	data, err := io.ReadAll(io.LimitReader(r, int64(maxSnapBytes)+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxSnapBytes {
		return nil, fmt.Errorf("snapshot exceeds %d bytes", maxSnapBytes)
	}
	s := &snapshot{hist: &History{}, memo: make(evalCache)}
	if err := s.codec(binfmt.NewDecoder(data)); err != nil {
		return nil, err
	}
	return s, nil
}
