// Package silifuzz reimplements the SiliFuzz methodology (paper §III-A1)
// against the HX86 stack: a coverage-guided fuzzer mutates raw byte
// strings with no notion of the instruction encoding, runs them on a
// software proxy (the ISA decoder plus the functional emulator), and
// retains inputs that exercise new proxy coverage. Inputs are then
// filtered to valid, deterministic, non-crashing snapshots, and snapshots
// are aggregated into fixed-length test programs for SFI evaluation
// ("instructions from multiple snapshots are aggregated into a single
// 10K instruction test").
//
// Consistent with the paper's observation (Fig. 8), the majority of raw
// mutants are unusable: they fail to decode, fault on wild memory
// addresses, execute privileged or nondeterministic instructions, or
// hang. The usable part of an input is its longest clean deterministic
// prefix; inputs with an empty prefix are discarded.
//
// The corpus is seeded with both random bytes and a handful of encoded
// valid sequences (the corpus-bootstrapping role the published SiliFuzz
// corpus plays), which lets byte-level mutation discover memory-touching
// snapshots at a realistic rate.
package silifuzz

import (
	"fmt"
	"math/rand/v2"
	"time"

	"harpocrates/internal/arch"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
	"harpocrates/internal/prog"
	"harpocrates/internal/stats"
)

// Options configures a fuzzing session.
type Options struct {
	Seed uint64
	// Rounds is the number of mutation/evaluation iterations.
	Rounds int
	// MaxInputBytes caps raw inputs (paper: "maximum of 100 bytes of
	// binary code each").
	MaxInputBytes int
	// TargetInstrs is the aggregated test length (paper: 10K).
	TargetInstrs int
	// NumTests is how many aggregated tests to build.
	NumTests int
	// SnapshotSteps bounds proxy execution per snapshot.
	SnapshotSteps int
}

// DefaultOptions returns a CI-scale configuration.
func DefaultOptions() Options {
	return Options{
		Seed:          1,
		Rounds:        30000,
		MaxInputBytes: 100,
		TargetInstrs:  10000,
		NumTests:      8,
		SnapshotSteps: 512,
	}
}

// Stats summarizes a session (drives the §VI-A generation-rate
// comparison).
type Stats struct {
	RawInputs        int
	Runnable         int // inputs with a non-empty clean prefix
	Discarded        int
	SnapshotInstrs   int // total runnable instructions across snapshots
	CorpusSize       int
	CoverageFeatures int
	Elapsed          time.Duration
}

// InstrsPerSecond returns the runnable-instruction production rate.
func (s *Stats) InstrsPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.SnapshotInstrs) / s.Elapsed.Seconds()
}

// Result is the outcome of a fuzzing session.
type Result struct {
	Tests []*prog.Program
	Stats Stats
}

// proxyStack is the snapshot stack size (small enough to clone cheaply
// during aggregation).
const proxyStack = 64 * 1024

// proxyProgram builds the fixed snapshot execution environment: a 32 KB
// data page (matching the generator's layout so seeded valid sequences
// resolve) and a stack.
func proxyProgram(insts []isa.Inst) *prog.Program {
	p := &prog.Program{
		Name:  "silifuzz",
		Insts: insts,
		Regions: []prog.RegionSpec{
			{Name: "data", Base: prog.DataBase, Size: 32 * 1024, Writable: true},
			{Name: "stack", Base: prog.StackBase, Size: proxyStack, Writable: true},
		},
	}
	for r := 0; r < isa.NumGPR; r++ {
		p.InitGPR[r] = uint64(r) * 0x0101010101010101
	}
	p.InitGPR[isa.RSP] = prog.StackBase + proxyStack/2
	p.InitGPR[gen.BaseReg] = prog.DataBase
	return p
}

type fuzzer struct {
	o        Options
	rng      *rand.Rand
	corpus   [][]byte
	features map[uint64]struct{}
	snaps    [][]isa.Inst
	st       Stats
}

// Run executes a fuzzing session.
func Run(o Options) *Result {
	if o.Rounds <= 0 {
		o = DefaultOptions()
	}
	f := &fuzzer{
		o:        o,
		rng:      stats.Derive(o.Seed, 0),
		features: make(map[uint64]struct{}),
	}
	start := time.Now()
	f.seed()
	for round := 0; round < o.Rounds; round++ {
		input := f.mutate(f.corpus[f.rng.IntN(len(f.corpus))])
		f.evaluate(input)
	}
	f.st.Elapsed = time.Since(start)
	f.st.CorpusSize = len(f.corpus)
	f.st.CoverageFeatures = len(f.features)

	res := &Result{Stats: f.st}
	for i := 0; i < o.NumTests; i++ {
		if t := f.aggregate(i); t != nil {
			res.Tests = append(res.Tests, t)
		}
	}
	return res
}

// seed initializes the corpus with random bytes and encoded valid
// sequences.
func (f *fuzzer) seed() {
	for i := 0; i < 16; i++ {
		b := make([]byte, 8+f.rng.IntN(f.o.MaxInputBytes-8))
		for k := range b {
			b[k] = byte(f.rng.Uint32())
		}
		f.corpus = append(f.corpus, b)
	}
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 8
	for i := 0; i < 16; i++ {
		g := gen.NewRandom(&cfg, f.rng)
		p := gen.Materialize(g, &cfg)
		var buf []byte
		for i := range p.Insts {
			buf = isa.Encode(buf, &p.Insts[i])
		}
		if len(buf) > f.o.MaxInputBytes {
			buf = buf[:f.o.MaxInputBytes]
		}
		f.corpus = append(f.corpus, buf)
	}
}

// mutate applies a random byte-level mutation (the raw-byte operations
// of Fig. 8: SiliFuzz has "no internal notion of x86 encoding").
func (f *fuzzer) mutate(in []byte) []byte {
	out := append([]byte(nil), in...)
	switch f.rng.IntN(5) {
	case 0: // bit flip
		if len(out) > 0 {
			i := f.rng.IntN(len(out))
			out[i] ^= 1 << f.rng.IntN(8)
		}
	case 1: // byte overwrite
		if len(out) > 0 {
			out[f.rng.IntN(len(out))] = byte(f.rng.Uint32())
		}
	case 2: // insert
		i := f.rng.IntN(len(out) + 1)
		out = append(out[:i], append([]byte{byte(f.rng.Uint32())}, out[i:]...)...)
	case 3: // delete
		if len(out) > 1 {
			i := f.rng.IntN(len(out))
			out = append(out[:i], out[i+1:]...)
		}
	case 4: // splice with another corpus entry
		other := f.corpus[f.rng.IntN(len(f.corpus))]
		if len(other) > 0 && len(out) > 0 {
			cut := f.rng.IntN(len(out))
			take := f.rng.IntN(len(other))
			out = append(out[:cut], other[take:]...)
		}
	}
	if len(out) > f.o.MaxInputBytes {
		out = out[:f.o.MaxInputBytes]
	}
	return out
}

// evaluate runs an input on the proxy, records coverage, and extracts
// the snapshot prefix.
func (f *fuzzer) evaluate(input []byte) {
	f.st.RawInputs++
	insts, _ := isa.DecodeAll(input)
	newCov := false
	record := func(feat uint64) {
		if _, ok := f.features[feat]; !ok {
			f.features[feat] = struct{}{}
			newCov = true
		}
	}
	prev := uint64(0)
	for _, in := range insts {
		record(1<<32 | uint64(in.V))
		record(2<<32 | prev<<16 | uint64(in.V))
		prev = uint64(in.V)
	}

	// Snapshot selection (paper §III-A1: "only the test inputs that are
	// non-crashing and deterministic are picked out"): the decodable
	// prefix is the candidate program (trailing undecodable bytes are
	// not part of the test); it must run to completion deterministically.
	if len(insts) > 0 && f.cleanRun(insts) {
		f.st.Runnable++
		f.st.SnapshotInstrs += len(insts)
		f.snaps = append(f.snaps, insts)
		record(3<<32 | uint64(len(insts)))
	} else {
		f.st.Discarded++
	}
	if newCov {
		f.corpus = append(f.corpus, input)
	}
}

func (f *fuzzer) cleanRun(insts []isa.Inst) bool {
	p := proxyProgram(insts)
	s1 := p.NewState()
	s1.NondetSalt = 1
	n1, e1 := arch.Run(insts, s1, f.o.SnapshotSteps)
	if e1 != nil {
		return false
	}
	s2 := p.NewState()
	s2.NondetSalt = 2
	n2, e2 := arch.Run(insts, s2, f.o.SnapshotSteps)
	return e2 == nil && n1 == n2 && s1.Signature() == s2.Signature()
}

// aggregate greedily concatenates snapshots into one test of about
// TargetInstrs instructions. Validation is incremental: the architectural
// end states (for two nondeterminism salts) are carried forward, and a
// candidate snapshot is accepted only if execution continues cleanly and
// deterministically through it — so the final aggregate is itself a
// runnable, deterministic program.
func (f *fuzzer) aggregate(idx int) *prog.Program {
	if len(f.snaps) == 0 {
		return nil
	}
	rng := stats.Derive(f.o.Seed^0x51f1, idx)
	var agg []isa.Inst
	base := proxyProgram(nil)
	s1 := base.NewState()
	s1.NondetSalt = 1
	s2 := base.NewState()
	s2.NondetSalt = 2

	budgetTries := 2 * f.o.TargetInstrs
	for len(agg) < f.o.TargetInstrs && budgetTries > 0 {
		budgetTries--
		snap := f.snaps[rng.IntN(len(f.snaps))]
		cand := append(append([]isa.Inst(nil), agg...), snap...)
		limit := 4*len(snap) + f.o.SnapshotSteps
		c1 := s1.Clone()
		c2 := s2.Clone()
		n1, e1 := arch.Run(cand, c1, limit)
		if e1 != nil {
			continue
		}
		n2, e2 := arch.Run(cand, c2, limit)
		if e2 != nil || n1 != n2 || c1.Signature() != c2.Signature() {
			continue
		}
		agg = cand
		s1, s2 = c1, c2
	}
	if len(agg) == 0 {
		return nil
	}
	p := proxyProgram(agg)
	p.Name = fmt.Sprintf("silifuzz/test-%d", idx)
	return p
}
