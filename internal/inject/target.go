package inject

import (
	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gates"
	"harpocrates/internal/uarch"
)

// target is one structure's fault model, stated once: deriveSpec draws
// from its ranges, cfgFor applies its fault, the golden run records what
// its grading rungs read, and Validate accepts exactly its models.
type target struct {
	models models

	// Bit arrays and microarchitectural sites: a fault draws an entry
	// below entries (nil: no entry draw), then a bit below bits, and flips
	// (transient) or forces (intermittent) burst bits from there,
	// wrapping modulo bits. burst is the widest burst (nil: single-bit
	// only).
	entries, bits, burst func(cfg *uarch.Config) int
	flip                 func(c *uarch.Core, entry, bit int)
	force                func(c *uarch.Core, entry, bit int, val bool)

	// ACE-tracked bit arrays: the interval-log cell holding an entry's
	// bit, the Record*Intervals flag the golden run keeps the log under,
	// and the Result field it lands in.
	cell   func(entry, bit int) int
	record func(cfg *uarch.Config) *bool
	log    func(r *uarch.Result) *ace.IntervalRecorder

	// Functional units: the netlist gates are drawn from, the hook set
	// routing the unit through it carrying a stuck-at, the result width,
	// whether native arithmetic is bit-exact with the netlist (the golden
	// run then skips it, and outside an intermittent window the core's
	// own arithmetic stands in for the fault-free unit), and the class
	// folded into the golden key (golden.go).
	netlist    func() *gates.Netlist
	hooks      func(fault *gates.StuckAt) *arch.FUHooks
	resultBits int
	exact      bool
	class      uint64
}

// models are the fault types a structure implements, its default
// (DefaultFaultType) first, and how Validate's refusal describes them;
// a structure with none is not a fault target.
type models struct {
	types []FaultType
	doc   string
}

var (
	arrayModels = models{[]FaultType{Transient, Intermittent},
		"transient or intermittent; a whole-run stuck-at is intermittent with IntermittentLen (faultsim -window) >= 4x the golden run's cycles"}
	unitModels = models{[]FaultType{Permanent, Intermittent},
		"permanent or intermittent: a gate stuck-at for the whole run or a window of it"}
	siteModels = models{[]FaultType{Transient}, "transient only"}
)

// fixed is a draw range that does not depend on the core.
func fixed(n int) func(*uarch.Config) int { return func(*uarch.Config) int { return n } }

// targets holds one row per coverage.Structure.
var targets = [coverage.NumStructures]target{
	coverage.IRF: {
		models:  arrayModels,
		entries: func(cfg *uarch.Config) int { return cfg.IntPRF },
		bits:    fixed(64),
		burst:   fixed(64),
		flip:    (*uarch.Core).FlipIntPRFBit,
		force:   (*uarch.Core).ForceIntPRFBit,
		cell:    func(reg, b int) int { return reg*64 + b },
		record:  func(cfg *uarch.Config) *bool { return &cfg.RecordIRFIntervals },
		log:     func(r *uarch.Result) *ace.IntervalRecorder { return r.IRFIntervals },
	},
	coverage.L1D: {
		models: arrayModels,
		// The whole data array is one bit range: a burst runs on into the
		// next line and wraps at the array's end.
		bits:   func(cfg *uarch.Config) int { return cfg.L1D.SizeBytes * 8 },
		burst:  func(cfg *uarch.Config) int { return cfg.L1D.LineBytes * 8 },
		flip:   func(c *uarch.Core, _, bit int) { c.FlipCacheBit(bit) },
		force:  func(c *uarch.Core, _, bit int, val bool) { c.ForceCacheBit(bit, val) },
		cell:   func(_, b int) int { return b / 8 }, // the L1D log is per byte
		record: func(cfg *uarch.Config) *bool { return &cfg.RecordL1DIntervals },
		log:    func(r *uarch.Result) *ace.IntervalRecorder { return r.L1DIntervals },
	},
	coverage.FPRF: {
		models:  arrayModels,
		entries: func(cfg *uarch.Config) int { return cfg.FPPRF },
		bits:    fixed(128),
		burst:   fixed(128),
		flip:    (*uarch.Core).FlipFPPRFBit,
		force:   (*uarch.Core).ForceFPPRFBit,
		cell:    func(reg, b int) int { return reg*128 + b },
		record:  func(cfg *uarch.Config) *bool { return &cfg.RecordFPRFIntervals },
		log:     func(r *uarch.Result) *ace.IntervalRecorder { return r.FPRFIntervals },
	},
	coverage.IntAdder: {
		models:  unitModels,
		netlist: gates.IntAdder64Netlist,
		hooks: func(f *gates.StuckAt) *arch.FUHooks {
			return &arch.FUHooks{IntAdd: gates.NewIntAdderUnit(f).Add}
		},
		resultBits: 64,
		exact:      true,
		class:      3,
	},
	coverage.IntMul: {
		models:  unitModels,
		netlist: gates.IntMul64Netlist,
		hooks: func(f *gates.StuckAt) *arch.FUHooks {
			return &arch.FUHooks{IntMul: gates.NewIntMulUnit(f).Mul}
		},
		resultBits: 128,
		exact:      true,
		class:      4,
	},
	// The SSE units inject into the double-precision datapath; the
	// single-precision one runs fault-free, in golden and faulty runs
	// alike.
	coverage.FPAdd: {
		models:  unitModels,
		netlist: gates.FPAdd64Netlist,
		hooks: func(f *gates.StuckAt) *arch.FUHooks {
			return &arch.FUHooks{FPAdd64: gates.NewFPAdd64Unit(f).Op64, FPAdd32: gates.NewFPAdd32Unit(nil).Op32}
		},
		resultBits: 64,
		class:      1,
	},
	coverage.FPMul: {
		models:  unitModels,
		netlist: gates.FPMul64Netlist,
		hooks: func(f *gates.StuckAt) *arch.FUHooks {
			return &arch.FUHooks{FPMul64: gates.NewFPMul64Unit(f).Op64, FPMul32: gates.NewFPMul32Unit(nil).Op32}
		},
		resultBits: 64,
		class:      2,
	},
	coverage.Decoder: {
		models: siteModels,
		// Reduced modulo the fetched instruction's encoded length when the
		// armed fault is consumed; the generous range keeps every byte of
		// the longest encoding reachable.
		bits: fixed(1024),
		flip: func(c *uarch.Core, _, bit int) { c.ArmDecoderFault(bit) },
	},
	coverage.LSQ: {
		models:  siteModels,
		entries: func(cfg *uarch.Config) int { return cfg.SQSize },
		bits:    fixed(256),
		flip:    (*uarch.Core).FlipStoreBufferBit,
	},
	// Structures that are not fault targets: a flip in them (almost)
	// never changes what a program computes, so a campaign on one is
	// Masked throughout and cannot tell two programs apart. Their rows
	// have no models, and Validate refuses them with the reason.
	coverage.Gshare: {models: models{doc: "not a fault target: a gshare counter steers only speculation, " +
		"so a flip changes timing, never a result"}},
	coverage.ROBMeta: {models: models{doc: "not a fault target: retirement follows the fetched path, " +
		"so a flipped next-PC reaches the program only through an issued branch's writeback " +
		"or the end-of-program check, and nearly every flip is Masked"}},
	coverage.L2Tags: {models: models{doc: "not a fault target: the L2 holds tags only and data comes from memory, " +
		"so a flipped tag changes hit/miss timing, never a result"}},
}

// row returns the campaign's target row. Validate has checked Target.
func (c *Campaign) row() *target { return &targets[c.Target] }
