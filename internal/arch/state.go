package arch

import (
	"fmt"

	"harpocrates/internal/isa"
)

// CrashKind classifies architectural crash causes, mirroring the fault
// outcome taxonomy of the paper's SFI methodology (§II-E).
type CrashKind uint8

// Crash kinds.
const (
	CrashNone CrashKind = iota
	CrashBadAddress
	CrashDivide
	CrashInvalidOpcode
	CrashPrivileged
	CrashBadBranch
	CrashMisaligned
	CrashWatchdog
)

var crashNames = []string{
	"none", "bad-address", "divide-error", "invalid-opcode",
	"privileged", "bad-branch", "misaligned", "watchdog",
}

func (k CrashKind) String() string {
	if int(k) < len(crashNames) {
		return crashNames[k]
	}
	return fmt.Sprintf("crash?%d", uint8(k))
}

// Exception maps a crash kind to the HX86 architectural exception a
// real core would deliver for it. Kinds with no trap semantics — a wild
// branch leaving the program image, or the simulator watchdog — report
// isa.ExcNone: they are crashes/hangs, not architecturally detected
// faults.
func (k CrashKind) Exception() isa.Exception {
	switch k {
	case CrashDivide:
		return isa.ExcDivide
	case CrashInvalidOpcode:
		return isa.ExcInvalidOpcode
	case CrashPrivileged:
		return isa.ExcGeneralProtection
	case CrashBadAddress:
		return isa.ExcPageFault
	case CrashMisaligned:
		return isa.ExcAlignment
	default:
		return isa.ExcNone
	}
}

// CrashError is an architectural fault raised during execution.
type CrashError struct {
	Addr uint64 // faulting address for memory crashes
	PC   int    // instruction index, filled by the executor
	Kind CrashKind

	// Exc, when set, overrides the Kind-derived architectural exception
	// (e.g. a push/pop fault is #SS, not the generic #PF its
	// bad-address kind would imply).
	Exc isa.Exception
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("crash at pc=%d: %v (addr=%#x)", e.PC, e.Kind, e.Addr)
}

// Exception returns the architectural exception the crash corresponds
// to: the explicit override if one was recorded, else the kind's
// default mapping. Nil-safe (nil reports isa.ExcNone).
func (e *CrashError) Exception() isa.Exception {
	if e == nil {
		return isa.ExcNone
	}
	if e.Exc != isa.ExcNone {
		return e.Exc
	}
	return e.Kind.Exception()
}

// FUHooks reroutes selected arithmetic through external functional-unit
// models (gate-level netlists during permanent/intermittent fault
// campaigns). A nil field means native Go semantics. All hooks operate at
// the full unit width; narrower operations pass zero-extended operands
// and the executor masks the result.
type FUHooks struct {
	// IntAdd computes sum = a + b + carryIn on the 64-bit integer adder.
	IntAdd func(a, b uint64, carryIn bool) uint64
	// IntMul computes the 128-bit product of two unsigned 64-bit values
	// on the integer multiplier array.
	IntMul func(a, b uint64) (lo, hi uint64)
	// FPAdd64 adds two IEEE-754 doubles (bit patterns) on the FP adder.
	FPAdd64 func(a, b uint64) uint64
	// FPMul64 multiplies two IEEE-754 doubles on the FP multiplier.
	FPMul64 func(a, b uint64) uint64
	// FPAdd32 adds two IEEE-754 singles on the FP adder.
	FPAdd32 func(a, b uint32) uint32
	// FPMul32 multiplies two IEEE-754 singles on the FP multiplier.
	FPMul32 func(a, b uint32) uint32
}

// State is the complete architectural state of an HX86 hart.
type State struct {
	GPR   [isa.NumGPR]uint64
	XMM   [isa.NumXMM][2]uint64
	Flags isa.Flags
	PC    int // instruction index into the program
	Mem   MemBus

	// FU, when non-nil, reroutes arithmetic through external unit models.
	FU *FUHooks

	// NondetSalt seeds the value streams of nondeterministic instructions
	// (RDTSC, RDRAND, CPUID). Two runs with different salts produce
	// different outputs iff the program executes such an instruction,
	// which is how the determinism filter detects them.
	NondetSalt uint64
	nondetCtr  uint64

	// InstRet counts retired instructions.
	InstRet uint64
}

// NewState returns a zeroed state bound to mem.
func NewState(mem MemBus) *State { return &State{Mem: mem} }

// Clone deep-copies the state. It requires the memory bus to be a plain
// *Memory (clone a state before handing it to a timing model, not after).
func (s *State) Clone() *State {
	c := *s
	mem, ok := s.Mem.(*Memory)
	if !ok {
		panic("arch: Clone requires a plain *Memory bus")
	}
	c.Mem = mem.Clone()
	if s.FU != nil {
		fu := *s.FU
		c.FU = &fu
	}
	return &c
}

// Signature computes a 64-bit digest of the architectural output: all
// GPRs (except RSP, which is an implementation address), all XMM
// registers, the flags, and the content of every writable memory region.
// This is the "final state of architectural registers and a signature
// over accessed memory regions" the paper's wrapper computes (§V-D).
// The memory part is Memory.Digest — the one definition of the memory
// signature, maintained incrementally across writes — so, like Clone,
// Signature requires a plain *Memory bus. The digest is only ever
// compared against digests computed in the same process; its exact value
// carries no meaning.
func (s *State) Signature() uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	put := func(v uint64) { h = (h ^ v) * prime }
	for r, v := range s.GPR {
		if isa.Reg(r) == isa.RSP {
			continue
		}
		put(v)
	}
	for _, x := range s.XMM {
		put(x[0])
		put(x[1])
	}
	put(uint64(s.Flags))
	put(s.Mem.(*Memory).Digest())
	return h
}

// NondetCounter returns the number of nondeterministic values drawn so
// far. The counter determines every future nondet value (given the
// salt), so state-equivalence checks — delta resimulation's reconvergence
// hash in particular — must include it: two states that agree everywhere
// else but have drawn a different number of nondet values diverge again
// at the next RDTSC/RDRAND.
func (s *State) NondetCounter() uint64 { return s.nondetCtr }

// RestoreNondetCounter rewinds the nondeterministic stream to a saved
// position — for deserializing a checkpointed execution state, whose
// future nondet values must replay identically.
func (s *State) RestoreNondetCounter(n uint64) { s.nondetCtr = n }

// nondet produces the next value of the nondeterministic stream
// (splitmix64 over salt+counter).
func (s *State) nondet() uint64 {
	s.nondetCtr++
	z := s.NondetSalt + s.nondetCtr*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
