// Package inject implements statistical fault injection (SFI) campaigns,
// the paper's GeFIN-style measurement of fault detection capability
// (§II-E): faults are injected at the microarchitecture level and
// outcomes observed at the software level.
//
// Fault models (§III-C):
//   - bit arrays (IRF, L1D): transient single-bit flips with uniformly
//     random (bit, cycle), and intermittent stuck-at windows. A transient
//     flip no access consumes is Masked without simulation, and an L1D
//     flip that only the end-of-run cache flush reads is graded from the
//     golden output;
//   - functional units (integer adder/multiplier, SSE FP adder/
//     multiplier): permanent stuck-at-0/1 faults (or intermittent
//     windows of them) at uniformly sampled gates of the gate-level
//     unit models. Each is first graded against the golden run's operand
//     stream of its unit: a fault that changes no golden result is
//     Masked without simulation, any other is simulated from its first
//     activation to the end of execution (fustream.go).
//
// A fault is *detected* when the faulty run deviates from the fault-free
// run: wrong architectural output (SDC), an architectural exception
// (Trap — div-zero, invalid opcode, access/alignment faults), a crash
// without trap semantics (wild branch off the program image), or a
// hang. Trap is the cheapest channel to observe on real hardware: the
// exception machinery reports it with no software signature comparison.
package inject

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gates"
	"harpocrates/internal/isa"
	"harpocrates/internal/obs"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

// FaultType is the temporal behaviour of injected faults (§II-B).
type FaultType int

// Fault types.
const (
	Transient FaultType = iota
	Intermittent
	Permanent
)

// faultTypeNames is the single table behind String and ParseFaultType,
// indexed by FaultType — the same scheme coverage.Parse uses, so names
// cannot drift between the two directions.
var faultTypeNames = [...]string{
	Transient:    "transient",
	Intermittent: "intermittent",
	Permanent:    "permanent",
}

func (t FaultType) String() string {
	if int(t) < len(faultTypeNames) {
		return faultTypeNames[t]
	}
	return fmt.Sprintf("fault?%d", int(t))
}

// ParseFaultType maps a fault-type name (the String() form,
// case-insensitively) back to its FaultType. It is the inverse the
// command-line tools and the wire protocol use.
func ParseFaultType(name string) (FaultType, error) {
	t := strings.ToLower(strings.TrimSpace(name))
	for ft, n := range faultTypeNames {
		if t == n {
			return FaultType(ft), nil
		}
	}
	return 0, fmt.Errorf("inject: unknown fault type %q (valid: %s)",
		name, strings.Join(faultTypeNames[:], ", "))
}

// DefaultFaultType returns the paper's fault model for each structure:
// transients for bit arrays, gate-level permanents for functional units.
// A structure that is not a fault target gets Transient, which Validate
// refuses naming why.
func DefaultFaultType(st coverage.Structure) FaultType {
	if st < 0 || st >= coverage.NumStructures || len(targets[st].models.types) == 0 {
		return Transient
	}
	return targets[st].models.types[0]
}

// Outcome classifies one faulty run against the golden run (§II-E).
type Outcome int

// Outcomes. The numeric values travel through the dist wire protocol
// (Stats.Outcomes), so existing values are frozen and new outcomes are
// only ever appended — which is why Trap sits after Hang despite being
// logically adjacent to Crash.
const (
	Masked Outcome = iota
	SDC
	Crash
	Hang
	// Trap is detection by architectural exception: the fault turned a
	// valid instruction into a #DE/#UD/#GP/#PF/#SS/#AC trap. On real
	// hardware this is observable through the exception machinery alone,
	// making it a cheaper detection channel than signature comparison
	// (SDC) or a watchdog (Hang).
	Trap
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case SDC:
		return "sdc"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case Trap:
		return "trap"
	}
	return fmt.Sprintf("outcome?%d", int(o))
}

// Campaign describes one SFI campaign on one program.
type Campaign struct {
	Prog []isa.Inst
	// Init returns a fresh deterministic initial state (with its own
	// memory) for each run.
	Init func() *arch.State

	Target coverage.Structure
	Type   FaultType
	// N is the number of injections.
	N int
	// IntermittentLen is the fault window length in cycles.
	IntermittentLen uint64

	// BurstLen is the multi-bit-upset width for the bit-array targets
	// (IRF, FPRF, L1D): each injection flips (or forces) BurstLen
	// adjacent bits starting at the drawn position. An IRF or FPRF burst
	// wraps within its register; an L1D burst runs on into the next line
	// and wraps at the end of the data array. 0 or 1 means the classic
	// single-bit model — the only one the other targets have — and the
	// most is 64, 128 or one cache line's bits. Burst width is a campaign
	// parameter, not an RNG draw, so BurstLen=1 campaigns are
	// bit-identical to pre-burst ones for a fixed seed.
	BurstLen int

	Seed uint64
	Cfg  uarch.Config
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int

	// NoFastForward disables checkpointed resume and every rung of the
	// grading ladder but the last — the ACE interval log of bit arrays,
	// the L1D's flush log, the golden operand stream of functional units
	// and delta termination — simulating every injection from cycle 0,
	// functional-unit faults on the plain netlist (the pre-optimization
	// path; kept for ablation, and the oracle ValidateAll checks against).
	NoFastForward bool
	// ValidateAll checks every verdict against the oracle (a soundness
	// self-check; slow): each injection is simulated once more the
	// NoFastForward way — from reset, on fresh functional units, without
	// delta termination — and the campaign fails unless that run
	// reproduces the verdict's outcome, final cycle and signature,
	// whichever rung decided it (check).
	ValidateAll bool
	// NoDeltaTermination disables delta resimulation (the ablation /
	// soundness knob): every simulated injection runs to program
	// completion instead of stopping at the first compare point where its
	// state reconverges with the golden trajectory. Outcome vectors are
	// bit-identical either way (asserted by differential tests); the knob
	// exists to prove it and to measure the speedup.
	NoDeltaTermination bool

	// GoldenCache, when set together with a non-zero ProgramHash, lets
	// the campaign reuse a previously computed golden bundle (result,
	// checkpoints, delta trajectory, interval logs) keyed by
	// (ProgramHash, golden config) instead of re-simulating the
	// fault-free reference; nil means every RunRange computes its own.
	// Outcomes are bit-identical either way (asserted by differential
	// tests); see golden.go.
	GoldenCache *GoldenCache
	// ProgramHash is the content hash (stats.HashBytes) of the encoded
	// program bytes. 0 disables the golden cache — the campaign cannot
	// derive it from Prog alone, since distinct listings could decode
	// to equal Inst slices only by accident of the caller.
	ProgramHash uint64

	// Obs, if set, receives campaign metrics (per-phase wall-clock
	// timings, outcome counts, pre-classification and checkpoint-reuse
	// rates) and a trace span per campaign. Purely observational; nil
	// disables all instrumentation.
	Obs *obs.Observer

	// trajectorySpacing lets in-package tests shrink the cycle spacing of
	// the trajectory points of a bundle the campaign builds for itself
	// (zero: uarch.DefaultDeltaInterval), to reach many compare points on
	// short programs. A bundle bound for a GoldenCache ignores it.
	trajectorySpacing uint64
}

// Stats summarizes a campaign.
type Stats struct {
	N       int
	Masked  int
	SDC     int
	Crash   int
	Hang    int
	Trap    int // detected by architectural exception
	Skipped int // golden run failed; campaign aborted

	GoldenCycles uint64

	// Outcomes is the per-injection outcome, indexed by injection
	// number. Injection i's fault parameters are a pure function of
	// (Seed, i), so for a fixed campaign configuration the index
	// identifies a concrete fault — the detected-fault sets of different
	// programs under the same configuration are directly comparable,
	// which is what corpus distillation minimizes over.
	Outcomes []Outcome
}

// Detected returns the number of detected faults (SDC + crash + hang +
// trap).
func (s *Stats) Detected() int { return s.SDC + s.Crash + s.Hang + s.Trap }

// Equal reports whether two campaigns produced identical statistics,
// including the per-injection outcome vector.
func (s *Stats) Equal(o *Stats) bool {
	return s.N == o.N && s.Masked == o.Masked && s.SDC == o.SDC &&
		s.Crash == o.Crash && s.Hang == o.Hang && s.Trap == o.Trap &&
		s.Skipped == o.Skipped &&
		s.GoldenCycles == o.GoldenCycles && slices.Equal(s.Outcomes, o.Outcomes)
}

// DetectedSet returns the sorted injection indices whose faults were
// detected (outcome SDC, crash, hang or trap).
func (s *Stats) DetectedSet() []int {
	var out []int
	for i, o := range s.Outcomes {
		if o != Masked {
			out = append(out, i)
		}
	}
	return out
}

// MergeStats combines shard partials produced by RunRange back into the
// whole-campaign statistics. Parts must be supplied in ascending shard
// order covering contiguous spec ranges; the merge concatenates outcome
// vectors and sums counts, so for a fixed (seed, config) the result is
// bit-identical to a single Run — merge order is fixed by shard index,
// never by arrival order. Shards of one campaign replay the same
// deterministic golden run; diverging GoldenCycles means the partials
// do not belong to one campaign and the merge refuses.
func MergeStats(parts []*Stats) (*Stats, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("inject: merge: no shard results")
	}
	out := &Stats{GoldenCycles: parts[0].GoldenCycles}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("inject: merge: missing shard %d", i)
		}
		if p.GoldenCycles != out.GoldenCycles {
			return nil, fmt.Errorf("inject: merge: shard %d golden run diverges (%d cycles vs %d)",
				i, p.GoldenCycles, out.GoldenCycles)
		}
		out.N += p.N
		out.Masked += p.Masked
		out.SDC += p.SDC
		out.Crash += p.Crash
		out.Hang += p.Hang
		out.Trap += p.Trap
		out.Skipped += p.Skipped
		out.Outcomes = append(out.Outcomes, p.Outcomes...)
	}
	return out, nil
}

// Detection returns the detection capability n/N (§II-C).
func (s *Stats) Detection() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Detected()) / float64(s.N)
}

// CI returns the 95% Wilson interval of the detection capability.
func (s *Stats) CI() (lo, hi float64) { return stats.Wilson(s.Detected(), s.N) }

func (s *Stats) String() string {
	lo, hi := s.CI()
	return fmt.Sprintf("detection %.1f%% [%.1f, %.1f] (N=%d: %d sdc, %d crash, %d hang, %d trap, %d masked)",
		100*s.Detection(), 100*lo, 100*hi, s.N, s.SDC, s.Crash, s.Hang, s.Trap, s.Masked)
}

// targetNetlist returns the netlist faults are sampled from (nil for a
// structure that is not a functional unit).
func targetNetlist(st coverage.Structure) *gates.Netlist {
	if netlist := targets[st].netlist; netlist != nil {
		return netlist()
	}
	return nil
}

// baseConfig is the campaign's configuration with every hook, fault,
// tracker and recorder cleared: what the golden and the faulty runs start
// from.
func (c *Campaign) baseConfig() uarch.Config {
	cfg := c.Cfg
	cfg.OnCycle = nil
	cfg.FU = nil
	cfg.FUOutside = nil
	cfg.FUWindow = [2]uint64{}
	cfg.DeltaRecord = nil
	cfg.DeltaCompare = nil
	cfg.DeltaQuiesce = 0
	// A caller-set Record* flag would make every faulty run draw an
	// interval recorder from the pool and never release it (recorders
	// escape through Result, which faulty runs discard), and a Track* flag
	// would make every run track coverage nobody reads: the campaign owns
	// all instrumentation, so clear the flags here; buildGolden switches
	// on the recorders the golden run itself needs.
	cfg.TrackIRF, cfg.TrackL1D, cfg.TrackFPRF, cfg.TrackIBR = false, false, false, false
	cfg.RecordIRFIntervals = false
	cfg.RecordFPRFIntervals = false
	cfg.RecordL1DIntervals = false
	return cfg
}

// goldenConfig prepares the fault-free configuration. A unit whose
// netlist is not bit-exact with native arithmetic (the FP units) routes
// through its fault-free netlist so golden and faulty runs share
// arithmetic semantics; the integer netlists are (verified by tests), so
// the golden run skips them for speed. (buildGolden adds the hooks that
// record the operand stream.)
func (c *Campaign) goldenConfig() uarch.Config {
	cfg := c.baseConfig()
	if t := c.row(); t.hooks != nil && !t.exact {
		cfg.FU = t.hooks(nil)
	}
	return cfg
}

// Golden runs the fault-free reference and returns its result.
func (c *Campaign) Golden() *uarch.Result {
	return uarch.Run(c.Prog, c.Init(), c.goldenConfig())
}

// faultSpec is one injection's precomputed parameters. Deriving all
// specs up front (in exactly the RNG order the original per-run code
// used, so outcomes stay bit-identical for a fixed seed) lets the
// campaign sort injections by cycle and resume each from the nearest
// checkpoint.
type faultSpec struct {
	idx   int
	start uint64 // first cycle the fault manifests (0 = active from reset)
	end   uint64 // first cycle past an intermittent window
	reg   int    // PRF entry (bit-array targets)
	bit   int    // bit within the entry / flat cache bit
	val   bool   // stuck-at value (intermittent / FU faults)
	gate  int    // netlist gate (FU faults)
}

// deriveSpec computes injection i's fault parameters from (Seed, i).
func (c *Campaign) deriveSpec(i int, goldenCycles uint64, nl *gates.Netlist) faultSpec {
	rng := stats.Derive(c.Seed, i)
	sp := faultSpec{idx: i}
	if !c.Target.IsFunctionalUnit() {
		t := c.row()
		sp.start = 1 + rng.Uint64N(max(goldenCycles, 1))
		if c.Type != Transient {
			sp.end = sp.start + max(c.IntermittentLen, 1)
			sp.val = rng.IntN(2) == 1
		}
		if t.entries != nil {
			sp.reg = rng.IntN(t.entries(&c.Cfg))
		}
		sp.bit = rng.IntN(t.bits(&c.Cfg))
		return sp
	}
	sp.gate = rng.IntN(nl.NumGates())
	sp.val = rng.IntN(2) == 1
	if c.Type == Intermittent {
		sp.start = 1 + rng.Uint64N(max(goldenCycles, 1))
		sp.end = sp.start + max(c.IntermittentLen, 1)
	}
	return sp
}

// cfgFor builds the faulty-run configuration for one spec, identical to
// what the pre-optimization per-run code produced except that a
// functional-unit fault graded by fu (non-nil, and armed with sp by
// fu.activation) runs on fu's units, which answer the golden operand
// pairs from fu's table.
func (c *Campaign) cfgFor(sp faultSpec, golden *uarch.Result, fu *fuGrader) uarch.Config {
	cfg := c.baseConfig()
	// Give the faulty run headroom before declaring a hang.
	cfg.MaxCycles = golden.Cycles*4 + 100_000

	t := c.row()
	if !c.Target.IsFunctionalUnit() {
		// Bit-array faults go on the sparse event schedule rather than an
		// opaque OnCycle hook: a transient flip is a one-shot event at its
		// cycle, an intermittent stuck-at is one window forced every cycle
		// inside. The schedule tells the run loop exactly which cycles
		// matter, so it can fast-forward stalls everywhere else — where the
		// old per-cycle hook forced naive cycle-by-cycle simulation of the
		// entire faulty run.
		reg, bit, val := sp.reg, sp.bit, sp.val
		burst, bits := max(c.BurstLen, 1), t.bits(&c.Cfg)
		ev := uarch.CycleEvent{Start: sp.start}
		if c.Type == Transient {
			ev.Fire = func(core *uarch.Core, _ uint64) {
				for j := 0; j < burst; j++ {
					t.flip(core, reg, (bit+j)%bits)
				}
			}
		} else { // an intermittent stuck-at window
			ev.End = sp.end
			ev.Fire = func(core *uarch.Core, _ uint64) {
				for j := 0; j < burst; j++ {
					t.force(core, reg, (bit+j)%bits, val)
				}
			}
		}
		cfg.Events = []uarch.CycleEvent{ev}
		return cfg
	}

	// Functional units: gate-level stuck-at.
	if fu != nil {
		cfg.FU = fu.hooks
	} else {
		cfg.FU = t.hooks(&gates.StuckAt{Gate: sp.gate, Value: sp.val})
	}
	if c.Type == Intermittent {
		cfg.FUWindow = [2]uint64{sp.start, sp.end}
		switch {
		case t.exact:
			// native semantics are bit-exact: FUOutside stays nil
		case fu != nil:
			cfg.FUOutside = fu.clean
		default:
			cfg.FUOutside = t.hooks(nil)
		}
	}
	return cfg
}

// deltaEligible reports whether delta resimulation applies to this
// campaign at all: every fault the campaign injects must quiesce — stop
// mutating state — at a known cycle, after which reconvergence with the
// golden trajectory proves the rest of the run identical. Transient and
// windowed faults quiesce; a permanent functional-unit fault never does
// (cfgFor arms the faulty unit for the whole run when Type is not
// Intermittent), so those campaigns run every simulated injection from
// its first activation to completion; the ones that never activate are
// not simulated at all (fustream.go).
func (c *Campaign) deltaEligible() bool {
	if c.NoDeltaTermination || c.NoFastForward {
		return false
	}
	if c.Target.IsFunctionalUnit() {
		return c.Type == Intermittent
	}
	return true
}

// deltaQuiesce returns the first cycle at which spec sp's fault can no
// longer mutate state: one past a transient flip, the first cycle after
// a stuck-at window. Compare points before it are ignored (a match
// before the fault finished manifesting proves nothing — for a pending
// one-shot flip it would even skip the fault entirely).
func (c *Campaign) deltaQuiesce(sp faultSpec) uint64 {
	if c.Type == Transient && !c.Target.IsFunctionalUnit() {
		return sp.start + 1
	}
	return sp.end
}

// recorderFor returns the golden run's interval log for the campaign's
// target structure (nil when pre-classification does not apply).
func (c *Campaign) recorderFor(golden *uarch.Result) *ace.IntervalRecorder {
	if log := c.row().log; log != nil {
		return log(golden)
	}
	return nil
}

// preMasked reports whether a transient flip is provably masked without
// simulation: the flip either lands at or past the golden run's final
// cycle (the injection hook never fires in a run that stays on the
// golden trajectory) or outside every consumed interval of its cell —
// no access, right- or wrong-path, ever observes the corrupted value, so
// the faulty run is cycle-for-cycle identical to the golden run.
func (c *Campaign) preMasked(sp faultSpec, rec *ace.IntervalRecorder, goldenCycles uint64) bool {
	if sp.start >= goldenCycles {
		return true
	}
	// Every bit of the burst must be unconsumed; one observed bit makes
	// the whole injection simulate.
	t := c.row()
	bits := t.bits(&c.Cfg)
	for j := 0; j < max(c.BurstLen, 1); j++ {
		if rec.Consumed(t.cell(sp.reg, (sp.bit+j)%bits), sp.start) {
			return false
		}
	}
	return true
}

// rung is the step of the grading ladder that decided an injection. grade
// tries them in this order; the first that applies gives the verdict.
type rung uint8

const (
	byInterval    rung = iota // the ACE interval log: no access consumes the flip (preMasked)
	byFlush                   // the L1D flush log: only the final flush reads it (flushGraded)
	byStream                  // the operand stream: the unit fault changes no golden result
	byReconverged             // a resumed run reconverged with the golden trajectory
	bySimulated               // a resumed run simulated to its end
	numRungs
)

// rungNames name each rung in check's error.
var rungNames = [numRungs]string{
	byInterval:    "pre-classifier",
	byFlush:       "flush grader",
	byStream:      "functional-unit stream grading",
	byReconverged: "delta termination",
	bySimulated:   "checkpoint resume",
}

// verdict is one injection's grade: its outcome, the rung that decided
// it, the final cycle and signature a full run of the fault reaches (the
// golden run's, unless the fault changes the output or how the run
// ends), and the rung's evidence for check's error.
type verdict struct {
	out         Outcome
	rung        rung
	cycles, sig uint64

	// byFlush: the first flipped byte only the flush reads, the address
	// the flush writes it to and the start of its flush-only window.
	byte        int
	addr, start uint64
	// byReconverged, bySimulated: the fault's first active cycle (a
	// unit fault's first activation), the cycle of the checkpoint the
	// run resumed from, and the cycle it reconverged at.
	from, resume, at uint64
}

// flushGraded grades a transient L1D flip without simulation when every
// bit of its burst is either unconsumed or inside its byte's flush-only
// window (uarch.FlushLog): no access reads the flipped bits before the
// final flush writes them back, so the faulty run ends at the golden
// run's cycle with the golden final state except for those bits. They
// are flipped at their flushed addresses in a copy of that state and the
// signature recomputed: SDC if it changed, Masked if not (a byte outside
// every writable region is not part of the signature).
func (c *Campaign) flushGraded(sp faultSpec, rec *ace.IntervalRecorder, golden *uarch.Result) (verdict, bool) {
	fl := golden.L1DFlush
	if c.Target != coverage.L1D || fl == nil {
		return verdict{}, false
	}
	v := verdict{rung: byFlush, cycles: golden.Cycles}
	var final *arch.State
	for j := 0; j < max(c.BurstLen, 1); j++ {
		bit := (sp.bit + j) % (c.Cfg.L1D.SizeBytes * 8)
		if !rec.Consumed(bit/8, sp.start) {
			continue
		}
		addr, start, ok := fl.Window(bit / 8)
		if !ok || sp.start <= start {
			return verdict{}, false
		}
		if final == nil {
			final = fl.FinalState()
			v.byte, v.addr, v.start = bit/8, addr, start
		}
		mem := final.Mem.(*arch.Memory)
		var b [1]byte
		if mem.ReadBytes(addr, b[:]) != nil {
			return verdict{}, false
		}
		b[0] ^= 1 << uint(bit%8)
		if mem.WriteBytes(addr, b[:]) != nil {
			return verdict{}, false
		}
	}
	if final == nil {
		return verdict{}, false
	}
	if v.sig = final.Signature(); v.sig != golden.Signature {
		v.out = SDC
	}
	return v, true
}

// nearestCheckpoint returns the latest checkpoint at or before cycle
// (cks is in ascending cycle order), or nil.
func nearestCheckpoint(cks []*uarch.Checkpoint, cycle uint64) *uarch.Checkpoint {
	i := sort.Search(len(cks), func(i int) bool { return cks[i].Cycle() > cycle })
	if i == 0 {
		return nil
	}
	return cks[i-1]
}

// simulate runs one injection configuration from ck, a checkpoint at
// or before from, the fault's first active cycle, or from reset when ck
// is nil. The prefix before from is bit-identical to the golden run (the
// fault has not manifested yet), so resuming cannot change the run. The
// golden run keeps a checkpoint every uarch.CheckpointSpacing cycles from
// cycle 0 on, so grade always finds one at most that many cycles back
// (inject.resume.distance); only the oracle runs (NoFastForward's and
// check's) and a golden run that ended at cycle 0 start from reset.
func (c *Campaign) simulate(cfg uarch.Config, from uint64, ck *uarch.Checkpoint) *uarch.Result {
	if ck != nil {
		c.Obs.Counter("inject.resume.checkpoint").Inc()
		c.Obs.Histogram("inject.resume.distance").Observe(int64(from - ck.Cycle()))
		return uarch.RunFromCheckpoint(ck, cfg)
	}
	c.Obs.Counter("inject.resume.reset").Inc()
	return uarch.Run(c.Prog, c.Init(), cfg)
}

// grade decides one injection on the first rung of the ladder that
// applies, in rung order:
//
//  1. a transient bit-array flip that the target's interval log shows no
//     access consumes is Masked;
//  2. a transient L1D flip that only the final flush reads is graded from
//     the golden output (flushGraded);
//  3. a functional-unit fault that changes no result of the golden
//     operand stream is Masked; any other is resumed from its first
//     activation (fuGrader.activation);
//  4. everything else resumes from the latest checkpoint at or before the
//     fault's first active cycle. With a golden delta trajectory (ga's,
//     when the campaign is deltaEligible) the run compares itself against
//     it from the fault's quiesce cycle on and stops at the first full
//     state match — Masked by construction, the tail unsimulated — or is
//     simulated to its end and classified.
//
// A rung whose record the bundle lacks does not apply: NoFastForward's
// bundle has no log, stream, checkpoint or trajectory, so every
// injection reaches the last rung and runs from reset. fu is the
// worker's grader, non-nil when the bundle has a stream.
func (c *Campaign) grade(sp faultSpec, ga *uarch.GoldenArtifacts, fu *fuGrader) verdict {
	golden := ga.Result
	masked := verdict{out: Masked, cycles: golden.Cycles, sig: golden.Signature}
	if rec := c.recorderFor(golden); rec != nil && c.Type == Transient {
		if c.preMasked(sp, rec, golden.Cycles) {
			masked.rung = byInterval
			return masked
		}
		if v, ok := c.flushGraded(sp, rec, golden); ok {
			return v
		}
	}
	from := sp.start
	if fu != nil {
		act, ok := fu.activation(sp, c.Type == Intermittent)
		if !ok {
			masked.rung = byStream
			return masked
		}
		from = act
	}
	cfg := c.cfgFor(sp, golden, fu)
	if ga.Trajectory != nil && c.deltaEligible() {
		cfg.DeltaCompare = ga.Trajectory
		cfg.DeltaQuiesce = c.deltaQuiesce(sp)
	}
	ck := nearestCheckpoint(ga.Checkpoints, from)
	res := c.simulate(cfg, from, ck)
	v := verdict{out: classify(res, golden), rung: bySimulated, cycles: res.Cycles, sig: res.Signature, from: from}
	if ck != nil {
		v.resume = ck.Cycle()
	}
	if cfg.DeltaCompare == nil {
		return v
	}
	if !res.Reconverged {
		c.Obs.Counter("inject.delta.diverged").Inc()
		return v
	}
	c.Obs.Counter("inject.delta.converged").Inc()
	saved := golden.Cycles - min(res.Cycles, golden.Cycles)
	c.Obs.Counter("inject.delta.cycles_saved").Add(int64(saved))
	c.Obs.Histogram("inject.delta.saved_cycles").Observe(int64(saved))
	v.rung, v.at = byReconverged, res.Cycles
	v.cycles, v.sig = golden.Cycles, golden.Signature
	return v
}

// check is ValidateAll's one rule: sp is simulated on the oracle path —
// from reset, on fresh functional units (the row's hooks), with no delta
// compare — and the run must reproduce v's outcome, final cycle and
// signature. The error names the rung that decided v and its evidence.
func (c *Campaign) check(sp faultSpec, v verdict, golden *uarch.Result) error {
	res := c.simulate(c.cfgFor(sp, golden, nil), 0, nil)
	out := classify(res, golden)
	if out == v.out && res.Cycles == v.cycles && res.Signature == v.sig {
		return nil
	}
	var fault string
	if c.Target.IsFunctionalUnit() {
		stuck := 0
		if sp.val {
			stuck = 1
		}
		fault = fmt.Sprintf("gate %d stuck-at-%d", sp.gate, stuck)
	} else {
		fault = fmt.Sprintf("cycle %d reg %d bit %d", sp.start, sp.reg, sp.bit)
	}
	var evidence string
	switch v.rung {
	case byInterval:
		evidence = "unconsumed in the interval log"
	case byFlush:
		evidence = fmt.Sprintf("cache byte %d flushed to %#x, window start %d", v.byte, v.addr, v.start)
	case byStream:
		evidence = "never activated"
	default:
		if c.Target.IsFunctionalUnit() {
			evidence = fmt.Sprintf("first activation at cycle %d, ", v.from)
		}
		evidence += fmt.Sprintf("resumed from cycle %d", v.resume)
		if v.rung == byReconverged {
			evidence += fmt.Sprintf(", reconverged at cycle %d", v.at)
		}
	}
	return fmt.Errorf("inject: %s unsound: injection %d (%s; %s) graded %v at cycle %d (signature %#x) but simulates from reset as %v at cycle %d (signature %#x)",
		rungNames[v.rung], sp.idx, fault, evidence, v.out, v.cycles, v.sig, out, res.Cycles, res.Signature)
}

// classify grades a faulty run against the golden run (§II-E). A
// reconverged run is checked first: it stopped mid-program with its
// machine state equal to the golden run's at the same cycle, so it would
// have finished exactly as the golden run did — Masked by construction
// (requires a clean golden run, which RunRange refuses to proceed
// without). Precedence is deliberate and fixed:
//
//   - TimedOut before everything observable: a run that hit the
//     watchdog is a Hang even when its (partial) signature already
//     diverged — the divergent signature was never delivered as an
//     output, the hang is what the wrapper observes.
//   - A crash with trap semantics (Result.Trap != ExcNone) is Trap:
//     the exception is architecturally reported, a cheaper detection
//     channel than any comparison. Crashes without trap semantics
//     (wild branch off the program image) remain Crash.
//   - Only a run that completed is graded by signature (SDC/Masked).
func classify(res, golden *uarch.Result) Outcome {
	switch {
	case res.Reconverged:
		return Masked
	case res.TimedOut:
		return Hang
	case res.Crash != nil:
		if res.Trap != isa.ExcNone {
			return Trap
		}
		return Crash
	case res.Signature != golden.Signature:
		return SDC
	default:
		return Masked
	}
}

// burstWidth is the widest multi-bit upset the target's burst model
// takes (64 and 128 bits on the register files, one cache line's bits on
// the L1D), or 1 for the sites whose faults are single-bit only.
func (c *Campaign) burstWidth() int {
	if burst := c.row().burst; burst != nil {
		return burst(&c.Cfg)
	}
	return 1
}

// Validate reports whether Cfg is a buildable core and Target, Type and
// BurstLen name a fault model of the target's row. Anything else is
// refused here — by RunRange, and by the fleet's doors before a job is
// made durable — because the injector would otherwise crash on the core
// or run a different model under the requested label: a "transient"
// functional-unit campaign is the permanent one, a "permanent" bit-array
// campaign the windowed one, and a burst wider than its register flips
// bits back.
func (c *Campaign) Validate() error {
	if c.Target < 0 || c.Target >= coverage.NumStructures {
		return fmt.Errorf("inject: unknown target structure %d (valid: %s)",
			int(c.Target), coverage.ValidNames())
	}
	if err := c.Cfg.Validate(); err != nil {
		return err
	}
	t := c.row()
	if !slices.Contains(t.models.types, c.Type) {
		return fmt.Errorf("inject: target %v has no %v fault model (%s)", c.Target, c.Type, t.models.doc)
	}
	if w := c.burstWidth(); c.BurstLen < 0 || c.BurstLen > w {
		return fmt.Errorf("inject: burst length %d outside 0..%d for target %v (0 or 1 = single-bit; only IRF, FPRF and L1D take wider bursts, up to a register or an L1D line)",
			c.BurstLen, w, c.Target)
	}
	return nil
}

// goldenErr describes why a golden run is not clean.
func goldenErr(golden *uarch.Result) error {
	if golden.Crash != nil {
		return golden.Crash
	}
	return fmt.Errorf("watchdog fired at cycle %d", golden.Cycles)
}

// Run executes the campaign and returns aggregate statistics.
//
// The fast path (default) simulates one instrumented golden run, then
// gives every injection one verdict on the grading ladder (grade): proven
// masked from the interval log or the operand stream, graded from the
// flush log, or resumed from the nearest checkpoint preceding its first
// active cycle, until it reconverges or ends. Per-outcome counts are
// bit-identical to the NoFastForward path, which runs every injection
// from reset, for a fixed seed (asserted by tests across all structures;
// ValidateAll checks every verdict against that path).
func (c *Campaign) Run() (*Stats, error) {
	return c.RunRange(0, c.N)
}

// RunRange executes the contiguous shard [lo, hi) of the campaign's N
// injection specs and returns the shard's partial statistics: Stats.N is
// hi-lo and Outcomes[i] is the outcome of injection lo+i. Injection i's
// fault parameters are a pure function of (Seed, i) and the golden run
// is deterministic, so disjoint shards — run in any process, on any
// machine — merge back (MergeStats, in shard order) into statistics
// bit-identical to a single Run. This is the unit of work the
// distributed coordinator (internal/dist) hands to workers.
func (c *Campaign) RunRange(lo, hi int) (*Stats, error) {
	if c.N <= 0 {
		return nil, fmt.Errorf("inject: campaign needs N > 0")
	}
	if lo < 0 || hi > c.N || lo >= hi {
		return nil, fmt.Errorf("inject: bad spec range [%d, %d) of %d", lo, hi, c.N)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := hi - lo
	stopRun := c.Obs.Phase("inject.run")
	defer stopRun()
	span := c.Obs.Span("campaign", obs.Fields{
		"target": c.Target.String(), "type": c.Type.String(),
		"n": c.N, "lo": lo, "hi": hi, "seed": c.Seed,
	})

	stopGolden := c.Obs.Phase("inject.phase.golden")
	ga, releaseGolden := c.acquireGolden()
	stopGolden()
	// Nothing of the bundle escapes RunRange (only outcome counts do), so
	// it is released on every exit path, including the golden-timeout and
	// validation-failure errors, after wg.Wait has quiesced the workers.
	defer releaseGolden()
	golden := ga.Result
	if !golden.Clean() {
		// A fault-free run that crashes or hangs has no meaningful output
		// signature: grading faulty runs against it would silently call
		// every fault that reproduces the golden crash "Masked" and every
		// fault that dodges it "SDC" — against a garbage reference.
		// Refuse the campaign instead of producing wrong statistics (the
		// deferred release above returns the instrumentation to its
		// pools).
		why := "crashed"
		if golden.TimedOut {
			why = "timed out"
		}
		err := fmt.Errorf("inject: golden (fault-free) run %s: %w; refusing to classify faults against it",
			why, goldenErr(golden))
		span.End(obs.Fields{"error": err.Error()})
		return nil, err
	}
	st := &Stats{N: n, GoldenCycles: golden.Cycles}
	if c.Obs.Enabled() {
		ipc := 0.0
		if golden.Cycles > 0 {
			ipc = float64(golden.Instructions) / float64(golden.Cycles)
		}
		span.Event("golden", obs.Fields{
			"cycles": golden.Cycles, "checkpoints": len(ga.Checkpoints), "ipc": ipc,
		})
	}

	stopClassify := c.Obs.Phase("inject.phase.classify")
	nl := targetNetlist(c.Target)
	specs := make([]faultSpec, 0, n)
	for i := lo; i < hi; i++ {
		specs = append(specs, c.deriveSpec(i, golden.Cycles, nl))
	}
	// In fault-cycle order, consecutive runs restore nearby checkpoints.
	// Verdicts are indexed by spec, so the order decides no outcome.
	slices.SortFunc(specs, func(a, b faultSpec) int { return cmp.Compare(a.start, b.start) })
	stopClassify()

	// Every rung is climbed inside the pool, not in a serial pass before
	// it: sixty functional-unit table passes cost about as much as the
	// whole golden prologue.
	stopSim := c.Obs.Phase("inject.phase.simulate")
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	verdicts := make([]verdict, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var valErr error
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fu *fuGrader
			if ga.FUStream != nil {
				fu = c.newFUGrader(ga.FUStream)
			}
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				sp := specs[i]
				v := c.grade(sp, ga, fu)
				verdicts[sp.idx-lo] = v
				if !c.ValidateAll {
					continue
				}
				if err := c.check(sp, v, golden); err != nil {
					mu.Lock()
					if valErr == nil {
						valErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	stopSim()
	if valErr != nil {
		span.End(obs.Fields{"error": valErr.Error()})
		return nil, valErr
	}

	st.Outcomes = make([]Outcome, n)
	var byRung [numRungs]int64
	for i, v := range verdicts {
		st.Outcomes[i] = v.out
		byRung[v.rung]++
		switch v.out {
		case Masked:
			st.Masked++
		case SDC:
			st.SDC++
		case Crash:
			st.Crash++
		case Hang:
			st.Hang++
		case Trap:
			st.Trap++
		}
	}
	if c.Obs.Enabled() {
		c.Obs.Counter("inject.premasked").Add(byRung[byInterval] + byRung[byStream])
		c.Obs.Counter("inject.flushgraded").Add(byRung[byFlush])
		c.Obs.Counter("inject.simulated").Add(byRung[byReconverged] + byRung[bySimulated])
		c.Obs.Counter("inject.outcome.masked").Add(int64(st.Masked))
		c.Obs.Counter("inject.outcome.sdc").Add(int64(st.SDC))
		c.Obs.Counter("inject.outcome.crash").Add(int64(st.Crash))
		c.Obs.Counter("inject.outcome.hang").Add(int64(st.Hang))
		c.Obs.Counter("inject.outcome.trap").Add(int64(st.Trap))
		c.Obs.Counter("inject.campaigns").Inc()
	}
	span.End(obs.Fields{
		"masked": st.Masked, "sdc": st.SDC, "crash": st.Crash, "hang": st.Hang,
		"trap": st.Trap, "detection": st.Detection(), "golden_cycles": st.GoldenCycles,
	})
	return st, nil
}
