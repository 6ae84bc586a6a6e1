// Package coverage defines the hardware-coverage metrics Harpocrates
// optimizes (paper §II-C/D): ACE-based vulnerability for bit-array
// structures and the Input Bit Ratio (IBR) for functional units, plus
// the mapping from instruction variants to the functional unit whose
// datapath they exercise.
package coverage

import (
	"fmt"
	"math/bits"
	"strings"

	"harpocrates/internal/isa"
)

// Structure identifies one of the six target hardware structures of the
// paper's evaluation (§III-B2), in the paper's order.
type Structure int

// Target structures: the paper's six plus the FP physical register
// file, an extension target demonstrating that the methodology applies
// to "any other hardware structure" (§III-B2), and the post-paper
// microarchitectural sites (decoder, store buffer). ACE-tracked bit
// arrays come first, then the functional units, then the new sites.
// Gshare, ROBMeta and L2Tags name structures that are not fault
// targets (inject refuses them, saying why); they keep their values
// because NumStructures sizes the coverage block of the HXCK loop
// checkpoint. Order is part of the dist wire protocol (names travel,
// but Snapshot arrays index by Structure), so new structures must only
// ever be appended.
const (
	IRF      Structure = iota // physical (integer) register file
	L1D                       // L1 data cache
	FPRF                      // physical FP (XMM) register file (extension)
	IntAdder                  // integer adder
	IntMul                    // integer multiplier
	FPAdd                     // SSE FP adder
	FPMul                     // SSE FP multiplier
	Decoder                   // instruction-fetch bytes before decode
	Gshare                    // branch-predictor counters: not a fault target, kept for NumStructures
	LSQ                       // store-buffer (captured store data/address)
	ROBMeta                   // ROB next-PC metadata: not a fault target, kept for NumStructures
	L2Tags                    // L2 tag array: not a fault target, kept for NumStructures

	NumStructures
)

var structNames = [NumStructures]string{
	"IRF", "L1D", "FPRF", "IntAdder", "IntMul", "SSE-FPAdd", "SSE-FPMul",
	"Decoder", "Gshare", "LSQ", "ROBMeta", "L2Tags",
}

func (s Structure) String() string {
	if s >= 0 && s < NumStructures {
		return structNames[s]
	}
	return fmt.Sprintf("struct?%d", int(s))
}

// structAliases is the single parsing table behind Parse: every name,
// canonical or alias, is stored lowercased. The canonical String()
// forms are added programmatically so a newly appended Structure parses
// without touching this table.
var structAliases = map[string]Structure{
	"intadd":      IntAdder,
	"adder":       IntAdder,
	"intmul":      IntMul,
	"multiplier":  IntMul,
	"fpadd":       FPAdd,
	"fpmul":       FPMul,
	"dec":         Decoder,
	"decode":      Decoder,
	"bpred":       Gshare,
	"bp":          Gshare,
	"sq":          LSQ,
	"storebuffer": LSQ,
	"rob":         ROBMeta,
	"l2":          L2Tags,
	"l2tag":       L2Tags,
}

func init() {
	for s := Structure(0); s < NumStructures; s++ {
		structAliases[strings.ToLower(structNames[s])] = s
	}
}

// ValidNames returns the canonical structure names, comma-separated —
// shared by every parser error message that lists them.
func ValidNames() string {
	names := make([]string, NumStructures)
	for s := Structure(0); s < NumStructures; s++ {
		names[s] = structNames[s]
	}
	return strings.Join(names, ", ")
}

// Parse maps a structure name to its Structure, case-insensitively. It
// accepts the canonical String() form plus the short aliases the
// command-line tools use (irf, l1d, fprf, intadd, adder, intmul,
// multiplier, fpadd, fpmul, dec, bpred, sq, rob, l2, ...).
func Parse(name string) (Structure, error) {
	if s, ok := structAliases[strings.ToLower(strings.TrimSpace(name))]; ok {
		return s, nil
	}
	return 0, fmt.Errorf("unknown structure %q (valid: %s)", name, ValidNames())
}

// IsFunctionalUnit reports whether the structure is a functional unit
// (graded with IBR and permanent gate faults) rather than a bit array
// or microarchitectural site (graded with ACE/SFI and transient
// faults).
func (s Structure) IsFunctionalUnit() bool { return s >= IntAdder && s <= FPMul }

// Snapshot is the per-run coverage summary produced by the
// microarchitectural simulator. It is the quantitative feedback the
// Harpocrates loop grades candidates with.
type Snapshot struct {
	Cycles       uint64
	Instructions uint64

	// IRFVuln, L1DVuln and FPRFVuln are the ACE vulnerability of the
	// physical integer register file, the L1D data array and the FP
	// register file (0..1), when tracking was enabled.
	IRFVuln  float64
	L1DVuln  float64
	FPRFVuln float64

	// IBR is the Input Bit Ratio per functional-unit structure
	// (IntAdder..FPMul indices; bit-array slots stay zero).
	IBR [NumStructures]float64

	// UnitUses counts operations executed on each structure's datapath.
	UnitUses [NumStructures]uint64
}

// Value returns the paper's coverage metric for the given structure:
// ACE vulnerability for IRF/L1D, IBR for the functional units.
func (s *Snapshot) Value(st Structure) float64 {
	switch st {
	case IRF:
		return s.IRFVuln
	case L1D:
		return s.L1DVuln
	case FPRF:
		return s.FPRFVuln
	default:
		return s.IBR[st]
	}
}

// Metric is a named objective function over a coverage snapshot: the
// fitness function of the Harpocrates loop. Any function of the snapshot
// qualifies (paper §IV-B: "any 'quality' metric can be used").
type Metric struct {
	Name  string
	Score func(*Snapshot) float64
}

// MetricFor returns the default coverage metric for a target structure.
func MetricFor(st Structure) Metric {
	return Metric{
		Name:  st.String() + "-coverage",
		Score: func(s *Snapshot) float64 { return s.Value(st) },
	}
}

// FUOf maps an instruction variant to the functional-unit structure whose
// arithmetic datapath it exercises, or ok=false for variants that drive
// none of the four modelled units. Only value-computing operations count:
// a MOV issued to an integer ALU port does not toggle the adder array.
func FUOf(v *isa.Variant) (Structure, bool) {
	switch v.Op {
	case isa.OpADD, isa.OpSUB, isa.OpADC, isa.OpSBB, isa.OpCMP,
		isa.OpINC, isa.OpDEC, isa.OpNEG,
		isa.OpXADD, isa.OpADCX, isa.OpADOX, isa.OpCMPXCHG:
		return IntAdder, true
	case isa.OpMUL, isa.OpIMUL, isa.OpIMULRR, isa.OpIMULRRI:
		return IntMul, true
	// Only the double-precision datapath operations count for the SSE FP
	// units: they are exactly the operations routed through the
	// gate-level unit models during fault campaigns, so IBR stays a
	// faithful proxy of fault-detecting utilization. (Single-precision
	// and compare operations execute on separate paths that the
	// injection target does not model.)
	case isa.OpADDSD, isa.OpSUBSD, isa.OpADDPD, isa.OpSUBPD:
		return FPAdd, true
	case isa.OpMULSD, isa.OpMULPD:
		return FPMul, true
	}
	return 0, false
}

// FUInputBits is the input datapath width (bits per use) of each
// functional-unit structure: two 64-bit operands.
const FUInputBits = 128

// SigBits returns the number of significant bits of a 64-bit operand
// pattern (position of the highest set bit). This is the "effective input
// bits" measure of IBR (paper footnote 5): a unit fed narrow values
// toggles fewer input bits.
func SigBits(v uint64) int { return 64 - bits.LeadingZeros64(v) }

// IBRCounter accumulates effective input bits for one functional unit.
type IBRCounter struct {
	EffBits uint64
	Uses    uint64
}

// OnUse records one use of the unit with two operand patterns.
func (c *IBRCounter) OnUse(a, b uint64) {
	c.EffBits += uint64(SigBits(a) + SigBits(b))
	c.Uses++
}

// Value computes IBR over a run of totalCycles: accumulated effective
// input bits divided by the theoretical maximum (full-width inputs every
// cycle).
func (c *IBRCounter) Value(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 0
	}
	return float64(c.EffBits) / (FUInputBits * float64(totalCycles))
}
