// Package uarch implements an execution-driven out-of-order core model:
// the "detailed simulation-based microarchitecture engine" at the heart
// of the Harpocrates loop (the role gem5 plays in the paper).
//
// The model renames onto physical register files, issues out of order
// from an issue queue across latency-accurate functional units, executes
// loads through a write-back L1 data cache with store-to-load forwarding,
// predicts branches with a gshare predictor and squashes mispredicted
// wrong-path work, and retires in order through a reorder buffer.
// Architectural semantics come from internal/arch, so the timing model
// and the golden reference can never disagree about values.
//
// Hardware coverage is measured as the run goes: ACE lifetimes of the
// physical register files and the L1D data array by one
// ace.IntervalRecorder per array, fed at the cycle of every access
// (wrong-path reads included), and IBR of the functional units, credited
// at commit. Fault injection hooks allow flipping any PRF or cache data
// bit at any cycle and rerouting arithmetic through gate-level unit
// models.
//
// Documented simplifications (see DESIGN.md): memory-operand instructions
// execute as a single fused micro-op with combined latency; loads wait
// until all older stores have executed (no memory-dependence
// speculation); store commits do not stall on misses; wrong-path
// instructions execute but cannot raise faults or IBR events (their
// register and cache reads do count as ACE).
package uarch

import (
	"fmt"
	"io"

	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
)

// CycleEvent is one scheduled state mutation of the sparse fault-event
// schedule (Config.Events). Fire is invoked at the start of every cycle
// in [Start, End); End == 0 is shorthand for Start+1 (a one-shot event,
// e.g. a transient bit flip). While a multi-cycle window is active the
// run loop ticks cycle by cycle so the forcing semantics match the old
// per-cycle OnCycle hooks exactly; outside every window the loop is free
// to skip stalled cycles.
type CycleEvent struct {
	Start, End uint64
	Fire       func(c *Core, cycle uint64)
}

// last returns the first cycle past the event's active window.
func (e *CycleEvent) last() uint64 {
	if e.End == 0 {
		return e.Start + 1
	}
	return e.End
}

// CacheConfig describes the L1 data cache.
type CacheConfig struct {
	SizeBytes   int
	Ways        int
	LineBytes   int
	HitLatency  int
	MissLatency int
}

// NumSets returns the number of cache sets.
func (c CacheConfig) NumSets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Config parameterizes the core. The defaults mirror a modern x86
// out-of-order core (paper §III-B1: "microarchitectural parameters and
// sizes based on publicly available data for commercial x86 CPUs").
type Config struct {
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int
	FetchQueue  int

	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int

	IntPRF  int // physical integer register file entries (ACE target)
	FPPRF   int
	FlagPRF int

	NumIntALU  int
	NumIntMul  int
	NumIntDiv  int
	NumFPAdd   int
	NumFPMul   int
	NumFPDiv   int
	NumVecALU  int
	NumBranch  int
	NumMemPort int

	GshareBits        int
	MispredictPenalty int

	L1D CacheConfig
	// L2 is a unified second-level cache modelled as a tag array (timing
	// only; SizeBytes 0 disables it, making L1 misses cost
	// L1D.MissLatency).
	L2 CacheConfig
	// MemLatency is the cost of an access missing both levels.
	MemLatency int
	// EnablePrefetch turns on the L2 next-line prefetcher.
	EnablePrefetch bool

	// MaxCycles is the watchdog limit: a run simulates at most MaxCycles
	// cycles (cycle numbers 0..MaxCycles-1) and reports TimedOut with
	// Result.Cycles == MaxCycles when it reaches the limit unfinished.
	// 0 means a generous default.
	MaxCycles uint64

	// TrackIRF / TrackL1D / TrackFPRF / TrackIBR enable coverage
	// instrumentation: a bit array's ACE coverage (Result.IRFVuln,
	// L1DVuln, FPRFVuln, the consumed cell-cycles of its
	// ace.IntervalRecorder) and the functional units' IBR. A run resumed
	// from a checkpoint tracks nothing.
	TrackIRF  bool
	TrackL1D  bool
	TrackFPRF bool
	TrackIBR  bool
	// ACEIgnoreWidths makes every IRF read consume all 64 bits of its
	// register, whatever the operand width (ablation; see internal/ace).
	ACEIgnoreWidths bool

	// RecordIRFIntervals / RecordFPRFIntervals / RecordL1DIntervals
	// have the corresponding bit array's ace.IntervalRecorder keep its
	// consumed-interval log, recorded directly at access time (including
	// wrong-path work, so the log is conservative), and surface it on
	// Result. The fault injector uses the logs to prove transient flips
	// masked without simulating them; RecordL1DIntervals also records
	// what the final flush wrote back (Result.L1DFlush). Pure
	// observation: enabling a recorder cannot change simulated behaviour.
	RecordIRFIntervals  bool
	RecordFPRFIntervals bool
	RecordL1DIntervals  bool

	// FU reroutes arithmetic through external functional-unit models
	// (gate-level netlists carrying permanent faults). FUWindow bounds
	// the cycles in which the hooks are active (intermittent faults);
	// a zero window means always active. FUOutside, if set, applies
	// outside the window (e.g. the fault-free netlist, so golden and
	// faulty runs share arithmetic semantics).
	//
	// The hook and writer fields are excluded from JSON so the scalar
	// configuration can travel over the internal/dist wire protocol;
	// workers rebuild hooks locally from the campaign parameters.
	FU        *arch.FUHooks `json:"-"`
	FUOutside *arch.FUHooks `json:"-"`
	FUWindow  [2]uint64

	// DebugScrub poisons the scratch execution state before each µop so
	// that a missing source dependency shows up as a wrong value instead
	// of being hidden by stale-but-plausible data. Test-only (slow).
	DebugScrub bool

	// NondetSalt seeds nondeterministic instructions, as in arch.State.
	NondetSalt uint64

	// OnCycle, if set, is invoked at the start of every cycle, after the
	// cycle's trajectory point and checkpoint capture and before its
	// events. Because the hook is opaque — the core cannot know which
	// cycles it cares about — setting it forces the naive cycle-by-cycle
	// run loop. Nothing in the simulator or the injector sets it: faults
	// go on Events and checkpoints come from Checkpoints, both of which
	// keep cycle skipping available. It remains for tests and probes that
	// observe every cycle.
	OnCycle func(c *Core, cycle uint64) `json:"-"`

	// Events is a sparse schedule of state mutations: each event's Fire
	// hook runs at the start of every cycle in [Start, End) (End == 0
	// means Start+1, a one-shot). Unlike OnCycle the schedule tells the
	// run loop exactly which cycles need forcing, so the loop may jump
	// over stalled cycles outside every window: a transient flip is one
	// event at its cycle, an intermittent stuck-at window is one event
	// spanning it (forced every cycle inside, skip-free), and everything
	// between events can fast-forward. Excluded from JSON like the other
	// hook fields (workers rebuild events from campaign parameters).
	Events []CycleEvent `json:"-"`

	// DeltaRecord, if set, makes the run record a golden-trajectory point
	// (cycle, retire count, committed-stream digest, machine-state hash)
	// every DeltaRecord.Interval cycles — the reference side of delta
	// resimulation (see delta.go). Purely observational. Excluded from
	// JSON like the other instrumentation fields.
	DeltaRecord *DeltaTrajectory `json:"-"`

	// Checkpoints, if set to an empty slice, makes the run capture a
	// Checkpoint at the top of every cycle that is a multiple of
	// CheckpointSpacing, cycle 0 included, after the cycle's trajectory
	// point, and append it to the slice — the fast-forward snapshots of a
	// campaign's golden run. Each shares the cache chunks the run did not
	// write since the previous one. A run holding maxCheckpoints releases
	// every other one (cycle 0 stays) and doubles the spacing. Purely
	// observational, and capture cycles are wake points, so the run still
	// skips stalled cycles. Excluded from JSON like the other
	// instrumentation fields.
	Checkpoints *[]*Checkpoint `json:"-"`

	// DeltaCompare, if set, makes the run compare itself against the
	// given golden trajectory at every point cycle at or after
	// DeltaQuiesce: a full match means every subsequent cycle would be
	// identical to the golden run's, so the run stops immediately with
	// Result.Reconverged set (outcome Masked by construction).
	DeltaCompare *DeltaTrajectory `json:"-"`

	// DeltaQuiesce is the first cycle at which the run's fault can no
	// longer mutate state (one past a transient flip, the end of an
	// intermittent window); compare points before it are ignored —
	// matching the golden hash before the fault has finished manifesting
	// proves nothing.
	DeltaQuiesce uint64 `json:"-"`

	// NoCycleSkip forces the naive cycle-by-cycle loop even when no
	// OnCycle hook is set — the ablation/debug knob the differential
	// tests and benchmarks use to compare the event-driven loop against
	// the reference loop.
	NoCycleSkip bool

	// Trace, if set, receives one line per committed instruction
	// (cycle, sequence number, PC, disassembly) — a debugging aid, slow.
	Trace io.Writer `json:"-"`
}

// WithDefaults returns c with every unset (zero) width, capacity and
// latency field filled from DefaultConfig, field-wise — fields the
// caller did set (cache geometry, tracking flags, hooks, a custom PRF
// size) are preserved. Optional features follow two special rules:
//
//   - A configuration with no structural field set at all ("give me the
//     reference core") additionally takes the default L2 and prefetcher,
//     matching DefaultConfig exactly.
//   - Once any structural field is set, L2.SizeBytes == 0 keeps the L2
//     disabled and EnablePrefetch == false keeps the prefetcher off; a
//     partially specified enabled L2 (SizeBytes > 0) has its remaining
//     zero fields filled from the default L2.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	structZero := c.FetchWidth == 0 && c.RenameWidth == 0 && c.IssueWidth == 0 &&
		c.CommitWidth == 0 && c.FetchQueue == 0 &&
		c.ROBSize == 0 && c.IQSize == 0 && c.LQSize == 0 && c.SQSize == 0 &&
		c.IntPRF == 0 && c.FPPRF == 0 && c.FlagPRF == 0 &&
		c.NumIntALU == 0 && c.NumIntMul == 0 && c.NumIntDiv == 0 &&
		c.NumFPAdd == 0 && c.NumFPMul == 0 && c.NumFPDiv == 0 &&
		c.NumVecALU == 0 && c.NumBranch == 0 && c.NumMemPort == 0 &&
		c.GshareBits == 0 && c.MispredictPenalty == 0 &&
		c.L1D == (CacheConfig{}) && c.L2 == (CacheConfig{}) && c.MemLatency == 0
	if structZero {
		c.L2 = d.L2
		c.EnablePrefetch = d.EnablePrefetch
	}
	fill := func(p *int, def int) {
		if *p == 0 {
			*p = def
		}
	}
	fill(&c.FetchWidth, d.FetchWidth)
	fill(&c.RenameWidth, d.RenameWidth)
	fill(&c.IssueWidth, d.IssueWidth)
	fill(&c.CommitWidth, d.CommitWidth)
	fill(&c.FetchQueue, d.FetchQueue)
	fill(&c.ROBSize, d.ROBSize)
	fill(&c.IQSize, d.IQSize)
	fill(&c.LQSize, d.LQSize)
	fill(&c.SQSize, d.SQSize)
	fill(&c.IntPRF, d.IntPRF)
	fill(&c.FPPRF, d.FPPRF)
	fill(&c.FlagPRF, d.FlagPRF)
	fill(&c.NumIntALU, d.NumIntALU)
	fill(&c.NumIntMul, d.NumIntMul)
	fill(&c.NumIntDiv, d.NumIntDiv)
	fill(&c.NumFPAdd, d.NumFPAdd)
	fill(&c.NumFPMul, d.NumFPMul)
	fill(&c.NumFPDiv, d.NumFPDiv)
	fill(&c.NumVecALU, d.NumVecALU)
	fill(&c.NumBranch, d.NumBranch)
	fill(&c.NumMemPort, d.NumMemPort)
	fill(&c.GshareBits, d.GshareBits)
	fill(&c.MispredictPenalty, d.MispredictPenalty)
	fill(&c.L1D.SizeBytes, d.L1D.SizeBytes)
	fill(&c.L1D.Ways, d.L1D.Ways)
	fill(&c.L1D.LineBytes, d.L1D.LineBytes)
	fill(&c.L1D.HitLatency, d.L1D.HitLatency)
	fill(&c.L1D.MissLatency, d.L1D.MissLatency)
	if c.L2.SizeBytes > 0 {
		fill(&c.L2.Ways, d.L2.Ways)
		fill(&c.L2.LineBytes, d.L2.LineBytes)
		fill(&c.L2.HitLatency, d.L2.HitLatency)
	}
	fill(&c.MemLatency, d.MemLatency)
	return c
}

// Validate reports whether c describes a core the model can build, for
// configurations that arrive from outside the process (a queued job, a
// pushed shard): every width, capacity and unit count positive and under
// a bound that keeps one request from allocating without limit, register
// files with something left to rename onto, cache geometry that divides.
// A zero field is an error here, not a default (WithDefaults is for
// that): the sender's configuration is hashed into cache keys as sent.
func (c Config) Validate() error {
	const maxWidth, maxEntries = 64, 1 << 14
	for _, f := range []struct {
		name      string
		v, lo, hi int
	}{
		{"FetchWidth", c.FetchWidth, 1, maxWidth},
		{"RenameWidth", c.RenameWidth, 1, maxWidth},
		{"IssueWidth", c.IssueWidth, 1, maxWidth},
		{"CommitWidth", c.CommitWidth, 1, maxWidth},
		{"FetchQueue", c.FetchQueue, 1, maxEntries},
		{"ROBSize", c.ROBSize, 1, maxEntries},
		{"IQSize", c.IQSize, 1, maxEntries},
		{"LQSize", c.LQSize, 1, maxEntries},
		{"SQSize", c.SQSize, 1, maxEntries},
		// The rename map starts out holding one physical register per
		// architectural one (and one flags register).
		{"IntPRF", c.IntPRF, isa.NumGPR + 1, maxEntries},
		{"FPPRF", c.FPPRF, isa.NumXMM + 1, maxEntries},
		{"FlagPRF", c.FlagPRF, 2, maxEntries},
		{"NumIntALU", c.NumIntALU, 1, maxWidth},
		{"NumIntMul", c.NumIntMul, 1, maxWidth},
		{"NumIntDiv", c.NumIntDiv, 1, maxWidth},
		{"NumFPAdd", c.NumFPAdd, 1, maxWidth},
		{"NumFPMul", c.NumFPMul, 1, maxWidth},
		{"NumFPDiv", c.NumFPDiv, 1, maxWidth},
		{"NumVecALU", c.NumVecALU, 1, maxWidth},
		{"NumBranch", c.NumBranch, 1, maxWidth},
		{"NumMemPort", c.NumMemPort, 1, maxWidth},
		{"GshareBits", c.GshareBits, 1, 24},
	} {
		if f.v < f.lo || f.v > f.hi {
			return fmt.Errorf("uarch: config: %s = %d, want %d..%d", f.name, f.v, f.lo, f.hi)
		}
	}
	if err := c.L1D.validGeometry("L1D", 1<<24); err != nil {
		return err
	}
	if c.L2.SizeBytes != 0 { // 0 disables the L2
		return c.L2.validGeometry("L2", 1<<28)
	}
	return nil
}

// validGeometry checks that the cache divides into at least one set of
// whole lines; the line size is a power of two because the data array
// masks addresses with it.
func (c CacheConfig) validGeometry(name string, maxBytes int) error {
	switch {
	case c.LineBytes < 8 || c.LineBytes > 4096 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("uarch: config: %s.LineBytes = %d, want a power of two in 8..4096", name, c.LineBytes)
	case c.Ways < 1 || c.Ways > 1024:
		return fmt.Errorf("uarch: config: %s.Ways = %d, want 1..1024", name, c.Ways)
	case c.SizeBytes < c.Ways*c.LineBytes || c.SizeBytes > maxBytes || c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("uarch: config: %s.SizeBytes = %d, want a multiple of Ways*LineBytes = %d up to %d",
			name, c.SizeBytes, c.Ways*c.LineBytes, maxBytes)
	}
	return nil
}

// TrackFor returns c with the coverage tracking that grades st switched
// on: a bit array's ACE coverage, IBR for the functional units, and
// nothing for the SFI-only fault sites (decoder, gshare, LSQ, ROB
// metadata, L2 tags), which have no coverage metric.
func (c Config) TrackFor(st coverage.Structure) Config {
	switch {
	case st == coverage.IRF:
		c.TrackIRF = true
	case st == coverage.L1D:
		c.TrackL1D = true
	case st == coverage.FPRF:
		c.TrackFPRF = true
	case st.IsFunctionalUnit():
		c.TrackIBR = true
	}
	return c
}

// DefaultConfig returns the reference core configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		RenameWidth: 4,
		IssueWidth:  8,
		CommitWidth: 4,
		FetchQueue:  16,

		ROBSize: 224,
		IQSize:  96,
		LQSize:  72,
		SQSize:  56,

		IntPRF:  180,
		FPPRF:   168,
		FlagPRF: 48,

		NumIntALU:  3,
		NumIntMul:  1,
		NumIntDiv:  1,
		NumFPAdd:   1,
		NumFPMul:   1,
		NumFPDiv:   1,
		NumVecALU:  2,
		NumBranch:  1,
		NumMemPort: 2,

		GshareBits:        12,
		MispredictPenalty: 12,

		L1D: CacheConfig{
			SizeBytes:   32 * 1024,
			Ways:        8,
			LineBytes:   64,
			HitLatency:  4,
			MissLatency: 40, // used when the L2 is disabled
		},
		L2: CacheConfig{
			SizeBytes:  256 * 1024,
			Ways:       8,
			LineBytes:  64,
			HitLatency: 14,
		},
		MemLatency:     120,
		EnablePrefetch: true,
	}
}
