package uarch

import (
	"harpocrates/internal/arch"
	"harpocrates/internal/isa"
)

// Register classes for renaming.
const (
	clsInt  = 0
	clsFP   = 1
	clsFlag = 2
)

// archRef is an architectural register reference gathered from a
// variant's operand specs before renaming.
type archRef struct {
	cls  uint8
	arch uint8
	bits uint16 // read width in bits (sources)
}

// rsrc is a renamed source operand.
type rsrc struct {
	archRef
	phys uint16
}

// rdst is a renamed destination operand.
type rdst struct {
	cls  uint8
	arch uint8
	phys uint16
	old  uint16 // previous mapping, freed at commit
}

// uop states.
type uopState uint8

const (
	uWaiting uopState = iota
	uIssued
	uDone
)

// storeWrite is one captured store (applied to the cache at commit).
type storeWrite struct {
	addr uint64
	data uint64
	size uint8
}

// ibrEvent is one functional-unit use, buffered per µop and credited to
// the IBR counters at commit.
type ibrEvent struct {
	unit uint8
	a, b uint64
}

// ratSnapshot is the rename map, one slot per architectural register:
// the integer registers, then the XMM registers, then the flags. A branch
// keeps a copy of it for recovery.
type ratSnapshot [isa.NumGPR + isa.NumXMM + 1]uint16

// ratBase is where each register class's slots start in a ratSnapshot,
// archRegs how many it has.
var (
	ratBase  = [3]uint8{clsInt: 0, clsFP: isa.NumGPR, clsFlag: isa.NumGPR + isa.NumXMM}
	archRegs = [3]int{clsInt: isa.NumGPR, clsFP: isa.NumXMM, clsFlag: 1}
)

// ratSlot returns the rename-map slot of architectural register arch of
// class cls.
func ratSlot(cls, arch uint8) uint8 { return ratBase[cls] + arch }

// The ISA bounds a µop's lists (DESIGN.md §4.7): summarize asserts the
// first two as it predecodes an instruction, and TestUopListBounds checks
// that no instruction passes any of the four and some reaches each.
const (
	maxSrcs   = 6
	maxDsts   = 4
	maxWrites = 2
	maxIBR    = 2
)

// uop is one in-flight instruction (fused micro-op), plain data: its
// lists are inline arrays with a count each, its variant an ID, and its
// instruction reached through Core.instOf, so copying one is a struct
// assignment and TestUopIsPlainData finds no pointer in it.
type uop struct {
	seq    uint64
	pc     int
	doneAt uint64

	memLat, predNext, actualNext int

	writes [maxWrites]storeWrite
	ibr    [maxIBR]ibrEvent
	err    arch.CrashError // what execute raised: Kind is CrashNone if nothing

	srcs [maxSrcs]rsrc
	dsts [maxDsts]rdst
	snap ratSnapshot

	nSrcs, nDsts, nWrites, nIBR uint8

	st      uopState
	pending uint8 // sources not yet ready while waiting (wake-up count)
	poison  bool  // fetched from an invalid PC: crashes if committed
	mutated bool  // decoder fault: executes the core's corrupted decInst
	bad     bool  // decoder fault: fetched bytes undecodable, #UD at execute

	isLoad, isStore, snapValid, squashed bool

	vid isa.VariantID // 0 for poison and undecodable µops
}

func (u *uop) sources() []rsrc      { return u.srcs[:u.nSrcs] }
func (u *uop) dests() []rdst        { return u.dsts[:u.nDsts] }
func (u *uop) stores() []storeWrite { return u.writes[:u.nWrites] }

// variant returns the variant u executes (the zero variant for poison
// and undecodable µops).
func (u *uop) variant() *isa.Variant { return isa.Lookup(u.vid) }

// instOf returns the instruction u executes: the core's corrupted decInst
// for a mutated µop, its program instruction otherwise. Poison and
// undecodable µops have none.
func (c *Core) instOf(u *uop) *isa.Inst {
	if u.mutated {
		return &c.decInst
	}
	return &c.prog[u.pc]
}

// crashed reports whether execute raised a crash.
func (u *uop) crashed() bool { return u.err.Kind != arch.CrashNone }

// reset empties u's lists and clears the state rename does not set.
func (u *uop) reset() {
	u.nSrcs, u.nDsts, u.nWrites, u.nIBR = 0, 0, 0, 0
	u.st, u.doneAt, u.memLat, u.err = uWaiting, 0, 0, arch.CrashError{}
	u.snapValid, u.squashed = false, false
}

// collectRefs gathers the architectural sources and destinations of an
// instruction, including implicit operands, partial-width merges and
// flags — the dependence information the renamer needs (and exactly the
// hazards the paper's §V-B discussion of implicit x86 operands is about).
func collectRefs(in *isa.Inst, v *isa.Variant, srcs []archRef, dsts []archRef) ([]archRef, []archRef) {
	addSrc := func(cls, arch uint8, bits uint16) {
		srcs = append(srcs, archRef{cls: cls, arch: arch, bits: bits})
	}
	addDst := func(cls, arch uint8) {
		dsts = append(dsts, archRef{cls: cls, arch: arch})
	}

	for i := 0; i < int(in.NOps); i++ {
		spec := v.Ops[i]
		op := &in.Ops[i]
		switch spec.Kind {
		case isa.KReg:
			if spec.Acc&isa.AccR != 0 {
				bits := uint16(spec.Width.Bits())
				if spec.Acc&isa.AccW != 0 && spec.Width < isa.W32 {
					// A partial-width read-modify-write merges the full
					// old register into the new physical register, so
					// all 64 bits are architecturally consumed.
					bits = 64
				}
				addSrc(clsInt, uint8(op.Reg), bits)
			}
			if spec.Acc&isa.AccW != 0 {
				if spec.Width < isa.W32 && spec.Acc&isa.AccR == 0 {
					// Partial-width write merges with the old value.
					addSrc(clsInt, uint8(op.Reg), 64)
				}
				addDst(clsInt, uint8(op.Reg))
			}
		case isa.KXmm:
			if spec.Acc&isa.AccR != 0 {
				bits := uint16(64)
				if spec.Width == isa.W128 || spec.Acc&isa.AccW != 0 && !xmmFullWrite(v, in) {
					// A scalar read-modify-write (ADDSD's destination)
					// keeps the old upper lane in the new physical
					// register, so all 128 bits are consumed.
					bits = 128
				}
				addSrc(clsFP, uint8(op.X), bits)
			}
			if spec.Acc&isa.AccW != 0 {
				if spec.Width != isa.W128 && !xmmFullWrite(v, in) && spec.Acc&isa.AccR == 0 {
					// Scalar writes preserve the upper lane.
					addSrc(clsFP, uint8(op.X), 128)
				}
				addDst(clsFP, uint8(op.X))
			}
		case isa.KMem:
			addSrc(clsInt, uint8(op.Mem.Base), 64)
			if op.Mem.HasIndex {
				addSrc(clsInt, uint8(op.Mem.Index), 64)
			}
		}
	}
	for _, r := range v.ImplicitIn {
		addSrc(clsInt, uint8(r), 64)
	}
	for _, r := range v.ImplicitOut {
		if v.Width < isa.W32 {
			addSrc(clsInt, uint8(r), 64) // partial-width merge
		}
		addDst(clsInt, uint8(r))
	}
	if v.FlagsRead != 0 {
		addSrc(clsFlag, 0, 8)
	}
	if v.FlagsWritten != 0 {
		if v.FlagsRead == 0 && (v.FlagsWritten != isa.AllFlags || flagsCondWritten(v)) {
			addSrc(clsFlag, 0, 8) // partial or conditional flag update merges
		}
		addDst(clsFlag, 0)
	}
	return srcs, dsts
}

// predecoded is what rename needs of one instruction: its variant, its
// operands as collectRefs derives them, the destinations it claims per
// register class and whether it takes a load or store queue slot.
type predecoded struct {
	v          *isa.Variant
	off        uint32 // refs[off:] holds the nSrc sources, then the nDst destinations
	nSrc, nDst uint8
	need       [3]uint8 // destinations per register class (clsInt, clsFP, clsFlag)
	isLoad     bool
	isStore    bool
}

// summarize derives an entry, all but its ref offset, from the operands
// collectRefs gave for an instruction of variant v.
func summarize(v *isa.Variant, srcs, dsts []archRef) predecoded {
	if len(srcs) > maxSrcs || len(dsts) > maxDsts {
		panic("uarch: " + v.String() + " has more sources or destinations than a µop holds")
	}
	e := predecoded{
		v:       v,
		nSrc:    uint8(len(srcs)),
		nDst:    uint8(len(dsts)),
		isLoad:  v.ReadsMem() || v.Op == isa.OpPOP,
		isStore: v.WritesMem() || v.Op == isa.OpPUSH,
	}
	for _, d := range dsts {
		e.need[d.cls]++
	}
	return e
}

// predecode is a program's rename table: one entry per PC over one flat
// ref array. Core.init builds a fresh one for every program and every
// copy of the core shares it; nothing writes it afterwards, so a
// checkpoint may keep reading it after the core it came from was
// reinitialized for another program.
type predecode struct {
	ops  []predecoded
	refs []archRef
}

func newPredecode(prog []isa.Inst) *predecode {
	// Generated programs average 3.1–3.4 refs per instruction: one
	// allocation for the refs, as a rule.
	p := &predecode{ops: make([]predecoded, len(prog)), refs: make([]archRef, 0, 4*len(prog))}
	var srcs, dsts []archRef
	for pc := range prog {
		in := &prog[pc]
		v := isa.Lookup(in.V)
		srcs, dsts = collectRefs(in, v, srcs[:0], dsts[:0])
		e := summarize(v, srcs, dsts)
		e.off = uint32(len(p.refs))
		p.refs = append(append(p.refs, srcs...), dsts...)
		p.ops[pc] = e
	}
	return p
}

// operands returns entry e's sources and destinations.
func (p *predecode) operands(e *predecoded) (srcs, dsts []archRef) {
	mid := e.off + uint32(e.nSrc)
	return p.refs[e.off:mid], p.refs[mid : mid+uint32(e.nDst)]
}

// flagsCondWritten marks variants that may leave the flags untouched at
// runtime despite declaring them written (shifts by a count of zero).
func flagsCondWritten(v *isa.Variant) bool {
	switch v.Op {
	case isa.OpSHL, isa.OpSHR, isa.OpSAR, isa.OpROL, isa.OpROR:
		return true
	}
	return false
}

// xmmFullWrite reports variants whose xmm destination is fully written
// even at scalar width (no upper-lane merge).
func xmmFullWrite(v *isa.Variant, in *isa.Inst) bool {
	switch v.Op {
	case isa.OpMOVQXR:
		return true
	case isa.OpMOVSD:
		// movsd xmm, m64 zeroes the upper lane; movsd xmm, xmm merges.
		return in.Ops[1].Kind == isa.KMem
	}
	return false
}
