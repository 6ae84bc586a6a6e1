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
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

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
func DefaultFaultType(st coverage.Structure) FaultType {
	if st.IsFunctionalUnit() {
		return Permanent
	}
	return Transient
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
	// adjacent bits starting at the drawn position, wrapping within the
	// entry. 0 or 1 means the classic single-bit model — the only one the
	// other targets have — and the entry width (64, 128, one cache line's
	// bits) is the most. Burst width is a campaign parameter, not an RNG
	// draw, so BurstLen=1 campaigns are bit-identical to pre-burst ones
	// for a fixed seed.
	BurstLen int

	Seed uint64
	Cfg  uarch.Config
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int

	// NoFastForward disables checkpointed resume and every
	// pre-classifier — the ACE interval log of bit arrays, the L1D's
	// flush log and the golden operand stream of functional units —
	// simulating every injection from cycle 0, functional-unit faults on
	// the plain netlist (the pre-optimization path; kept for ablation and
	// validation).
	NoFastForward bool
	// ValidateAll simulates even provably-masked injections and fails
	// the campaign if the simulated outcome disagrees with the
	// pre-classifier (a soundness self-check; slow). It also re-simulates
	// every delta-terminated run to completion and fails the campaign if
	// the full run is not Masked; re-simulates every L1D flip graded from
	// the golden output (flushGraded), failing unless the run reproduces
	// the graded outcome and signature at the golden run's final cycle;
	// and re-simulates every functional-unit fault graded against the
	// operand stream from cycle 0 on the plain netlist, failing unless the
	// outcome agrees.
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

// FUHooksFor builds the functional-unit hook set routing the target
// unit's operations through its gate-level netlist, optionally carrying
// a stuck-at fault. For the SSE FP units the double-precision datapath is
// the injection target; the single-precision path runs fault-free (both
// golden and faulty runs route identically, so semantics stay
// consistent).
func FUHooksFor(target coverage.Structure, fault *gates.StuckAt) *arch.FUHooks {
	switch target {
	case coverage.IntAdder:
		return &arch.FUHooks{IntAdd: gates.NewIntAdderUnit(fault).Add}
	case coverage.IntMul:
		return &arch.FUHooks{IntMul: gates.NewIntMulUnit(fault).Mul}
	case coverage.FPAdd:
		return &arch.FUHooks{
			FPAdd64: gates.NewFPAdd64Unit(fault).Op64,
			FPAdd32: gates.NewFPAdd32Unit(nil).Op32,
		}
	case coverage.FPMul:
		return &arch.FUHooks{
			FPMul64: gates.NewFPMul64Unit(fault).Op64,
			FPMul32: gates.NewFPMul32Unit(nil).Op32,
		}
	}
	return nil
}

// targetNetlist returns the netlist faults are sampled from.
func targetNetlist(target coverage.Structure) *gates.Netlist {
	switch target {
	case coverage.IntAdder:
		return gates.IntAdder64Netlist()
	case coverage.IntMul:
		return gates.IntMul64Netlist()
	case coverage.FPAdd:
		return gates.FPAdd64Netlist()
	case coverage.FPMul:
		return gates.FPMul64Netlist()
	}
	return nil
}

// baseConfig is the campaign's configuration with every hook, fault and
// recorder cleared: what the golden and the faulty runs start from.
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
	// escape through Result, which faulty runs discard): the campaign owns
	// all instrumentation, so clear the flags here; buildGolden switches
	// on the recorders the golden run itself needs.
	cfg.RecordIRFIntervals = false
	cfg.RecordFPRFIntervals = false
	cfg.RecordL1DIntervals = false
	return cfg
}

// goldenConfig prepares the fault-free configuration. FP targets route
// through the fault-free netlists so golden and faulty runs share
// arithmetic semantics; the integer netlists are bit-exact with native
// arithmetic (verified by tests), so the golden run skips them for
// speed. (buildGolden adds the hooks that record the operand stream.)
func (c *Campaign) goldenConfig() uarch.Config {
	cfg := c.baseConfig()
	if c.Target == coverage.FPAdd || c.Target == coverage.FPMul {
		cfg.FU = FUHooksFor(c.Target, nil)
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
		sp.start = 1 + rng.Uint64N(max(goldenCycles, 1))
		if c.Type != Transient {
			sp.end = sp.start + max(c.IntermittentLen, 1)
			sp.val = rng.IntN(2) == 1
		}
		switch c.Target {
		case coverage.IRF:
			sp.reg = rng.IntN(c.Cfg.IntPRF)
			sp.bit = rng.IntN(64)
		case coverage.FPRF:
			sp.reg = rng.IntN(c.Cfg.FPPRF)
			sp.bit = rng.IntN(128)
		case coverage.L1D:
			sp.bit = rng.IntN(c.Cfg.L1D.SizeBytes * 8)
		case coverage.Decoder:
			// Reduced modulo the fetched instruction's encoded length at
			// arm-consumption time; drawing a generous range keeps every
			// byte of the longest encoding reachable.
			sp.bit = rng.IntN(1024)
		case coverage.Gshare:
			sp.bit = rng.IntN(2 << uint(c.Cfg.GshareBits))
		case coverage.LSQ:
			sp.reg = rng.IntN(max(c.Cfg.SQSize, 1))
			sp.bit = rng.IntN(256)
		case coverage.ROBMeta:
			sp.reg = rng.IntN(max(c.Cfg.ROBSize, 1))
			sp.bit = rng.IntN(31)
		case coverage.L2Tags:
			sp.reg = rng.IntN(max(c.Cfg.L2.SizeBytes/max(c.Cfg.L2.LineBytes, 1), 1))
			sp.bit = rng.IntN(64)
		default:
			panic(fmt.Sprintf("inject: no fault model for structure %v", c.Target))
		}
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

	if !c.Target.IsFunctionalUnit() {
		// Bit-array faults go on the sparse event schedule rather than an
		// opaque OnCycle hook: a transient flip is a one-shot event at its
		// cycle, an intermittent stuck-at is one window forced every cycle
		// inside. The schedule tells the run loop exactly which cycles
		// matter, so it can fast-forward stalls everywhere else — where the
		// old per-cycle hook forced naive cycle-by-cycle simulation of the
		// entire faulty run.
		reg, bit, val := sp.reg, sp.bit, sp.val
		burst := max(c.BurstLen, 1)
		var fire func(core *uarch.Core, cyc uint64)
		if c.Type == Transient {
			switch c.Target {
			case coverage.IRF:
				fire = func(core *uarch.Core, _ uint64) {
					for j := 0; j < burst; j++ {
						core.FlipIntPRFBit(reg, (bit+j)%64)
					}
				}
			case coverage.FPRF:
				fire = func(core *uarch.Core, _ uint64) {
					for j := 0; j < burst; j++ {
						core.FlipFPPRFBit(reg, (bit+j)%128)
					}
				}
			case coverage.L1D:
				fire = func(core *uarch.Core, _ uint64) {
					for j := 0; j < burst; j++ {
						core.FlipCacheBit((bit + j) % core.NumCacheBits())
					}
				}
			case coverage.Decoder:
				fire = func(core *uarch.Core, _ uint64) { core.ArmDecoderFault(bit) }
			case coverage.Gshare:
				fire = func(core *uarch.Core, _ uint64) { core.FlipGshareBit(bit) }
			case coverage.LSQ:
				fire = func(core *uarch.Core, _ uint64) { core.FlipStoreBufferBit(reg, bit) }
			case coverage.ROBMeta:
				fire = func(core *uarch.Core, _ uint64) { core.FlipROBNextBit(reg, bit) }
			case coverage.L2Tags:
				fire = func(core *uarch.Core, _ uint64) { core.FlipL2TagBit(reg, bit) }
			}
			cfg.Events = []uarch.CycleEvent{{Start: sp.start, Fire: fire}}
			return cfg
		}
		switch c.Target { // intermittent stuck-at window (bit arrays only)
		case coverage.IRF:
			fire = func(core *uarch.Core, _ uint64) {
				for j := 0; j < burst; j++ {
					core.ForceIntPRFBit(reg, (bit+j)%64, val)
				}
			}
		case coverage.FPRF:
			fire = func(core *uarch.Core, _ uint64) {
				for j := 0; j < burst; j++ {
					core.ForceFPPRFBit(reg, (bit+j)%128, val)
				}
			}
		default:
			fire = func(core *uarch.Core, _ uint64) {
				for j := 0; j < burst; j++ {
					core.ForceCacheBit((bit+j)%core.NumCacheBits(), val)
				}
			}
		}
		cfg.Events = []uarch.CycleEvent{{Start: sp.start, End: sp.end, Fire: fire}}
		return cfg
	}

	// Functional units: gate-level stuck-at.
	if fu != nil {
		cfg.FU = fu.hooks
	} else {
		cfg.FU = FUHooksFor(c.Target, &gates.StuckAt{Gate: sp.gate, Value: sp.val})
	}
	if c.Type == Intermittent {
		cfg.FUWindow = [2]uint64{sp.start, sp.end}
		switch {
		case c.Target == coverage.IntAdder || c.Target == coverage.IntMul:
			// native semantics are bit-exact: FUOutside stays nil
		case fu != nil:
			cfg.FUOutside = fu.clean
		default:
			cfg.FUOutside = FUHooksFor(c.Target, nil)
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
	switch c.Target {
	case coverage.IRF:
		return golden.IRFIntervals
	case coverage.FPRF:
		return golden.FPRFIntervals
	case coverage.L1D:
		return golden.L1DIntervals
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
	for j := 0; j < max(c.BurstLen, 1); j++ {
		var cell int
		switch c.Target {
		case coverage.IRF:
			cell = sp.reg*64 + (sp.bit+j)%64
		case coverage.FPRF:
			b := (sp.bit + j) % 128
			cell = (2*sp.reg+b/64)*64 + b%64
		default:
			cell = ((sp.bit + j) % (c.Cfg.L1D.SizeBytes * 8)) / 8 // the L1D log is per byte
		}
		if rec.Consumed(cell, sp.start) {
			return false
		}
	}
	return true
}

// flushGrade is a transient L1D flip graded from the golden output: its
// outcome and final signature, and for ValidateAll's error the first
// flipped byte only the final flush reads, the address the flush wrote
// it to and the start of its flush-only window.
type flushGrade struct {
	out   Outcome
	sig   uint64
	byte  int
	addr  uint64
	start uint64
}

// flushGraded grades a transient L1D flip without simulation when every
// bit of its burst is either unconsumed or inside its byte's flush-only
// window (uarch.FlushLog): no access reads the flipped bits before the
// final flush writes them back, so the faulty run ends at the golden
// run's cycle with the golden final state except for those bits. They
// are flipped at their flushed addresses in a copy of that state and the
// signature recomputed: SDC if it changed, Masked if not (a byte outside
// every writable region is not part of the signature).
func (c *Campaign) flushGraded(sp faultSpec, rec *ace.IntervalRecorder, golden *uarch.Result) (flushGrade, bool) {
	fl := golden.L1DFlush
	if c.Target != coverage.L1D || fl == nil {
		return flushGrade{}, false
	}
	var g flushGrade
	var final *arch.State
	for j := 0; j < max(c.BurstLen, 1); j++ {
		bit := (sp.bit + j) % (c.Cfg.L1D.SizeBytes * 8)
		if !rec.Consumed(bit/8, sp.start) {
			continue
		}
		addr, start, ok := fl.Window(bit / 8)
		if !ok || sp.start <= start {
			return flushGrade{}, false
		}
		if final == nil {
			final = fl.FinalState()
			g = flushGrade{byte: bit / 8, addr: addr, start: start}
		}
		mem := final.Mem.(*arch.Memory)
		var b [1]byte
		if mem.ReadBytes(addr, b[:]) != nil {
			return flushGrade{}, false
		}
		b[0] ^= 1 << uint(bit%8)
		if mem.WriteBytes(addr, b[:]) != nil {
			return flushGrade{}, false
		}
	}
	if final == nil {
		return flushGrade{}, false
	}
	if g.sig = final.Signature(); g.sig != golden.Signature {
		g.out = SDC
	}
	return g, true
}

// validateFlush re-simulates a flush-graded injection to completion and
// fails unless it ends at the golden run's final cycle with the graded
// outcome and signature.
func (c *Campaign) validateFlush(sp faultSpec, g flushGrade, golden *uarch.Result, cks []*uarch.Checkpoint) error {
	res := c.simulate(c.cfgFor(sp, golden, nil), sp.start, cks)
	if out := classify(res, golden); out != g.out || res.Signature != g.sig || res.Cycles != golden.Cycles {
		return fmt.Errorf(
			"inject: flush grader unsound: injection %d (cycle %d, cache byte %d flushed to %#x, window start %d) graded %v (signature %#x) but simulates as %v (signature %#x) ending at cycle %d (golden %d)",
			sp.idx, sp.start, g.byte, g.addr, g.start, g.out, g.sig, out, res.Signature, res.Cycles, golden.Cycles)
	}
	return nil
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

// simulate runs one injection configuration, resuming from the nearest
// checkpoint at or before from, the fault's first active cycle. The
// prefix before that cycle is bit-identical to the golden run (the fault
// has not manifested yet), so resuming cannot change the outcome. The
// golden run keeps a checkpoint every uarch.CheckpointSpacing cycles from
// cycle 0 on, so a fast-forward run always finds one at most that many
// cycles back (inject.resume.distance); only the references that pass
// none (NoFastForward, ValidateAll's functional-unit re-simulation) and a
// golden run that ended at cycle 0 start from reset.
func (c *Campaign) simulate(cfg uarch.Config, from uint64, cks []*uarch.Checkpoint) *uarch.Result {
	if ck := nearestCheckpoint(cks, from); ck != nil {
		c.Obs.Counter("inject.resume.checkpoint").Inc()
		c.Obs.Histogram("inject.resume.distance").Observe(int64(from - ck.Cycle()))
		return uarch.RunFromCheckpoint(ck, cfg)
	}
	c.Obs.Counter("inject.resume.reset").Inc()
	return uarch.Run(c.Prog, c.Init(), cfg)
}

// runSpec grades one injection. A functional-unit fault is first graded
// against the golden operand stream when the campaign has one (fu
// non-nil): one that changes no golden result is Masked unsimulated
// (premasked), any other is simulated from its first activation. When
// the campaign carries a golden delta trajectory (traj non-nil), the
// faulty run compares itself against it from the fault's quiesce cycle
// on and stops at the first full state match — Masked by construction,
// without simulating the tail. Under ValidateAll every such early
// termination is re-simulated to completion and the campaign fails if
// the full run is not Masked, and every stream-graded fault is
// re-simulated from reset (validateFU).
func (c *Campaign) runSpec(sp faultSpec, golden *uarch.Result, cks []*uarch.Checkpoint,
	traj *uarch.DeltaTrajectory, fu *fuGrader) (out Outcome, premasked bool, err error) {
	from := sp.start
	if fu != nil {
		act, ok := fu.activation(sp, c.Type == Intermittent)
		if !ok {
			if c.ValidateAll {
				err = c.validateFU(sp, golden, nil, 0)
			}
			return Masked, true, err
		}
		from = act
	}
	cfg := c.cfgFor(sp, golden, fu)
	if traj != nil {
		cfg.DeltaCompare = traj
		cfg.DeltaQuiesce = c.deltaQuiesce(sp)
	}
	res := c.simulate(cfg, from, cks)
	out = classify(res, golden)
	if traj != nil {
		if res.Reconverged {
			c.Obs.Counter("inject.delta.converged").Inc()
			var saved uint64
			if golden.Cycles > res.Cycles {
				saved = golden.Cycles - res.Cycles
			}
			c.Obs.Counter("inject.delta.cycles_saved").Add(int64(saved))
			c.Obs.Histogram("inject.delta.saved_cycles").Observe(int64(saved))
			if c.ValidateAll {
				full := cfg
				full.DeltaCompare = nil
				full.DeltaQuiesce = 0
				if fullOut := classify(c.simulate(full, from, cks), golden); fullOut != Masked {
					return out, false, fmt.Errorf(
						"inject: delta termination unsound: injection %d (cycle %d) reconverged at cycle %d but simulates as %v",
						sp.idx, sp.start, res.Cycles, fullOut)
				}
			}
		} else {
			c.Obs.Counter("inject.delta.diverged").Inc()
		}
	}
	if fu != nil && c.ValidateAll {
		return out, false, c.validateFU(sp, golden, res, from)
	}
	return out, false, nil
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
// takes: the width of the entry a burst wraps inside, or 1 for the sites
// whose faults are single-bit only.
func (c *Campaign) burstWidth() int {
	switch c.Target {
	case coverage.IRF:
		return 64
	case coverage.FPRF:
		return 128
	case coverage.L1D:
		return c.Cfg.L1D.LineBytes * 8
	}
	return 1
}

// Validate reports whether Target, Type, BurstLen and Cfg name a fault
// model deriveSpec and cfgFor implement. Anything else is refused here —
// by RunRange, and by the fleet's doors before a job is made durable —
// because the injector would otherwise run a different model under the
// requested label: a "transient" functional-unit campaign is the
// permanent one, a "permanent" bit-array campaign the windowed one, and
// a burst wider than its entry flips bits back.
func (c *Campaign) Validate() error {
	if c.Target < 0 || c.Target >= coverage.NumStructures {
		return fmt.Errorf("inject: unknown target structure %d (valid: %s)",
			int(c.Target), coverage.ValidNames())
	}
	var ok bool
	var models string
	switch {
	case c.Target.IsFunctionalUnit():
		ok = c.Type == Permanent || c.Type == Intermittent
		models = "permanent or intermittent: a gate stuck-at for the whole run or a window of it"
	case c.Target > coverage.FPMul:
		ok = c.Type == Transient
		models = "transient only"
	default:
		ok = c.Type == Transient || c.Type == Intermittent
		models = "transient or intermittent; a whole-run stuck-at is intermittent with IntermittentLen (faultsim -window) >= 4x the golden run's cycles"
	}
	if !ok {
		return fmt.Errorf("inject: target %v has no %v fault model (%s)", c.Target, c.Type, models)
	}
	if w := c.burstWidth(); c.BurstLen < 0 || c.BurstLen > w {
		return fmt.Errorf("inject: burst length %d outside 0..%d for target %v (0 or 1 = single-bit; only IRF, FPRF and L1D take wider bursts, up to their entry width)",
			c.BurstLen, w, c.Target)
	}
	if c.Target == coverage.L2Tags && c.Cfg.L2.SizeBytes == 0 {
		return fmt.Errorf("inject: target %v requires an enabled L2 (Cfg.L2.SizeBytes > 0)",
			c.Target)
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
// The fast path (default) simulates one instrumented golden run, proves
// un-consumed transient flips and never-activated functional-unit faults
// masked without simulating them, grades L1D flips that only the final
// flush reads from the golden output (flushGraded), sorts the remaining
// injections by fault cycle and resumes each from the nearest checkpoint
// preceding its first active cycle. Per-outcome counts are bit-identical to the
// NoFastForward path for a fixed seed (asserted by tests across all
// structures and by ValidateAll).
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
	golden, cks, traj := ga.Result, ga.Checkpoints, ga.Trajectory
	if !c.deltaEligible() {
		traj = nil // a shared bundle carries one whoever asks
	}
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
			"cycles": golden.Cycles, "checkpoints": len(cks), "ipc": ipc,
		})
	}

	stopClassify := c.Obs.Phase("inject.phase.classify")
	var nl *gates.Netlist
	if c.Target.IsFunctionalUnit() {
		nl = targetNetlist(c.Target)
	}
	specs := make([]faultSpec, 0, n)
	for i := lo; i < hi; i++ {
		specs = append(specs, c.deriveSpec(i, golden.Cycles, nl))
	}

	outcomes := make([]Outcome, n)
	pre := make([]bool, n)
	var flushed map[int]flushGrade // by spec index
	toRun := make([]faultSpec, 0, n)
	rec := c.recorderFor(golden)
	for _, sp := range specs {
		if rec != nil && c.Type == Transient {
			if c.preMasked(sp, rec, golden.Cycles) {
				outcomes[sp.idx-lo] = Masked
				pre[sp.idx-lo] = true
				if !c.ValidateAll {
					continue
				}
			} else if g, ok := c.flushGraded(sp, rec, golden); ok {
				if flushed == nil {
					flushed = map[int]flushGrade{}
				}
				flushed[sp.idx] = g
				outcomes[sp.idx-lo] = g.out
				if !c.ValidateAll {
					continue
				}
			}
		}
		toRun = append(toRun, sp)
	}
	sort.SliceStable(toRun, func(a, b int) bool { return toRun[a].start < toRun[b].start })
	stopClassify()

	// Functional-unit faults are graded against the operand stream inside
	// the pool, not before it: sixty table passes cost about as much as
	// the whole golden prologue.
	stopSim := c.Obs.Phase("inject.phase.simulate")
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(toRun) {
		workers = len(toRun)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var valErr error
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fu *fuGrader
			if ga.FUStream != nil {
				fu = c.newFUGrader(ga.FUStream)
			}
			for i := range next {
				sp := toRun[i]
				var out Outcome
				var premasked bool
				var err error
				if g, ok := flushed[sp.idx]; ok {
					out, err = g.out, c.validateFlush(sp, g, golden, cks)
				} else {
					out, premasked, err = c.runSpec(sp, golden, cks, traj, fu)
				}
				if err == nil && pre[sp.idx-lo] && out != Masked {
					err = fmt.Errorf(
						"inject: pre-classifier unsound: injection %d (cycle %d reg %d bit %d) simulated as %v",
						sp.idx, sp.start, sp.reg, sp.bit, out)
				}
				switch {
				case err != nil:
					mu.Lock()
					if valErr == nil {
						valErr = err
					}
					mu.Unlock()
				case premasked:
					// outcomes[...] is already Masked. Each index has one
					// writer; pre is read again only after wg.Wait.
					pre[sp.idx-lo] = true
				case !pre[sp.idx-lo]:
					outcomes[sp.idx-lo] = out
				}
			}
		}()
	}
	for i := range toRun {
		next <- i
	}
	close(next)
	wg.Wait()
	stopSim()
	if valErr != nil {
		span.End(obs.Fields{"error": valErr.Error()})
		return nil, valErr
	}
	if c.Obs.Enabled() {
		premasked := 0
		for _, p := range pre {
			if p {
				premasked++
			}
		}
		simulated := n - premasked - len(flushed)
		if c.ValidateAll {
			simulated = n
		}
		c.Obs.Counter("inject.premasked").Add(int64(premasked))
		c.Obs.Counter("inject.flushgraded").Add(int64(len(flushed)))
		c.Obs.Counter("inject.simulated").Add(int64(simulated))
		c.Obs.Gauge("inject.premask.rate").Set(float64(premasked) / float64(n))
	}

	st.Outcomes = outcomes
	for _, o := range outcomes {
		switch o {
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
