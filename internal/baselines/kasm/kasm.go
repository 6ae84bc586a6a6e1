// Package kasm is a tiny assembler for writing HX86 kernels by hand:
// labels, branch fixups, and mnemonic helpers over the variant table.
// The MiBench and OpenDCDiag baseline workloads are written with it.
package kasm

import (
	"fmt"

	"harpocrates/internal/isa"
	"harpocrates/internal/prog"
)

// Find locates a variant by family, width and operand kinds; it panics
// if no such variant exists (kernel construction is static).
func Find(op isa.Op, w isa.Width, kinds ...isa.OpKind) isa.VariantID {
	for _, id := range isa.ByOp(op) {
		v := isa.Lookup(id)
		if v.Width != w || len(v.Ops) != len(kinds) {
			continue
		}
		ok := true
		for i, k := range kinds {
			if v.Ops[i].Kind != k {
				ok = false
			}
		}
		if ok {
			return id
		}
	}
	panic(fmt.Sprintf("kasm: no variant op=%d w=%v kinds=%v", op, w, kinds))
}

// FindCond locates a conditional variant (Jcc/SETcc/CMOVcc) by condition
// code, width and operand kinds.
func FindCond(op isa.Op, c isa.Cond, w isa.Width, kinds ...isa.OpKind) isa.VariantID {
	for _, id := range isa.ByOp(op) {
		v := isa.Lookup(id)
		if v.Cond != c || v.Width != w || len(v.Ops) != len(kinds) {
			continue
		}
		ok := true
		for i, k := range kinds {
			if v.Ops[i].Kind != k {
				ok = false
			}
		}
		if ok {
			return id
		}
	}
	panic(fmt.Sprintf("kasm: no cond variant op=%d cond=%v", op, c))
}

// Common variant IDs, resolved once.
var (
	vMovRR    = Find(isa.OpMOV, isa.W64, isa.KReg, isa.KReg)
	vMovRI    = Find(isa.OpMOV, isa.W64, isa.KReg, isa.KImm) // imm32 sign-extended
	vMovAbs   isa.VariantID
	vMovRM    = Find(isa.OpMOV, isa.W64, isa.KReg, isa.KMem)
	vMovMR    = Find(isa.OpMOV, isa.W64, isa.KMem, isa.KReg)
	vMovMR8   = Find(isa.OpMOV, isa.W8, isa.KMem, isa.KReg)
	vMovzxB64 isa.VariantID
	vAddRR    = Find(isa.OpADD, isa.W64, isa.KReg, isa.KReg)
	vAddRM    = Find(isa.OpADD, isa.W64, isa.KReg, isa.KMem)
	vSubRR    = Find(isa.OpSUB, isa.W64, isa.KReg, isa.KReg)
	vSubRI    = Find(isa.OpSUB, isa.W64, isa.KReg, isa.KImm)
	vAndRI    = Find(isa.OpAND, isa.W64, isa.KReg, isa.KImm)
	vAndRR    = Find(isa.OpAND, isa.W64, isa.KReg, isa.KReg)
	vOrRR     = Find(isa.OpOR, isa.W64, isa.KReg, isa.KReg)
	vXorRR    = Find(isa.OpXOR, isa.W64, isa.KReg, isa.KReg)
	vXorRI    = Find(isa.OpXOR, isa.W64, isa.KReg, isa.KImm)
	vCmpRR    = Find(isa.OpCMP, isa.W64, isa.KReg, isa.KReg)
	vCmpRI    = Find(isa.OpCMP, isa.W64, isa.KReg, isa.KImm)
	vTestRR   = Find(isa.OpTEST, isa.W64, isa.KReg, isa.KReg)
	vShlRI    = Find(isa.OpSHL, isa.W64, isa.KReg, isa.KImm)
	vShrRI    = Find(isa.OpSHR, isa.W64, isa.KReg, isa.KImm)
	vSarRI    = Find(isa.OpSAR, isa.W64, isa.KReg, isa.KImm)
	vRolRI    = Find(isa.OpROL, isa.W64, isa.KReg, isa.KImm)
	vRorRI    = Find(isa.OpROR, isa.W64, isa.KReg, isa.KImm)
	vIncR     = Find(isa.OpINC, isa.W64, isa.KReg)
	vDecR     = Find(isa.OpDEC, isa.W64, isa.KReg)
	vImulRR   = Find(isa.OpIMULRR, isa.W64, isa.KReg, isa.KReg)
	vImulRRI  = Find(isa.OpIMULRRI, isa.W64, isa.KReg, isa.KReg, isa.KImm)
	vJmp      = Find(isa.OpJMP, isa.W32, isa.KImm)

	vAddSD     = Find(isa.OpADDSD, isa.W64, isa.KXmm, isa.KXmm)
	vSubSD     = Find(isa.OpSUBSD, isa.W64, isa.KXmm, isa.KXmm)
	vMulSD     = Find(isa.OpMULSD, isa.W64, isa.KXmm, isa.KXmm)
	vDivSD     = Find(isa.OpDIVSD, isa.W64, isa.KXmm, isa.KXmm)
	vSqrtSD    = Find(isa.OpSQRTSD, isa.W64, isa.KXmm, isa.KXmm)
	vMovSDxm   = Find(isa.OpMOVSD, isa.W64, isa.KXmm, isa.KMem)
	vMovSDmx   = Find(isa.OpMOVSD, isa.W64, isa.KMem, isa.KXmm)
	vMovSDxx   = Find(isa.OpMOVSD, isa.W64, isa.KXmm, isa.KXmm)
	vUcomiSD   = Find(isa.OpUCOMISD, isa.W64, isa.KXmm, isa.KXmm)
	vCvtSI2SDq isa.VariantID
)

func init() {
	// movabsq is the MOV variant with a 64-bit immediate spec.
	for _, id := range isa.ByOp(isa.OpMOV) {
		v := isa.Lookup(id)
		if len(v.Ops) == 2 && v.Ops[1].Kind == isa.KImm && v.Ops[1].Width == isa.W64 {
			vMovAbs = id
		}
	}
	for _, id := range isa.ByOp(isa.OpMOVZX) {
		v := isa.Lookup(id)
		if v.Width == isa.W64 && v.Ops[1].Width == isa.W8 && v.Ops[1].Kind == isa.KMem {
			vMovzxB64 = id
		}
	}
	for _, id := range isa.ByOp(isa.OpCVTSI2SD) {
		v := isa.Lookup(id)
		if len(v.Ops) == 2 && v.Ops[1].Kind == isa.KReg && v.Ops[1].Width == isa.W64 {
			vCvtSI2SDq = id
		}
	}
}

// Builder assembles a kernel.
type Builder struct {
	insts  []isa.Inst
	labels map[string]int
	fixups []fixup
}

type fixup struct {
	idx   int
	label string
}

// New returns an empty builder.
func New() *Builder {
	return &Builder{labels: map[string]int{}}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// I emits a raw instruction.
func (b *Builder) I(v isa.VariantID, ops ...isa.Operand) {
	b.insts = append(b.insts, isa.MakeInst(v, ops...))
}

// Label defines a jump target at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic("kasm: duplicate label " + name)
	}
	b.labels[name] = len(b.insts)
}

// Build patches branch targets and returns the instruction sequence.
func (b *Builder) Build() []isa.Inst {
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			panic("kasm: undefined label " + f.label)
		}
		b.insts[f.idx].Ops[0].Imm = int64(target - (f.idx + 1))
	}
	b.fixups = nil
	return b.insts
}

// --- control flow ------------------------------------------------------

// Jmp emits an unconditional jump to a label.
func (b *Builder) Jmp(label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.I(vJmp, isa.ImmOp(0))
}

// Jcc emits a conditional jump to a label.
func (b *Builder) Jcc(c isa.Cond, label string) {
	id := FindCond(isa.OpJcc, c, isa.W32, isa.KImm)
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.I(id, isa.ImmOp(0))
}

// --- integer helpers -----------------------------------------------------

// MovRI loads a 64-bit constant (movabsq when it does not fit a
// sign-extended imm32).
func (b *Builder) MovRI(r isa.Reg, v int64) {
	if v == int64(int32(v)) {
		b.I(vMovRI, isa.RegOp(r), isa.ImmOp(v))
	} else {
		b.I(vMovAbs, isa.RegOp(r), isa.ImmOp(v))
	}
}

func (b *Builder) MovRR(d, s isa.Reg)       { b.I(vMovRR, isa.RegOp(d), isa.RegOp(s)) }
func (b *Builder) AddRR(d, s isa.Reg)       { b.I(vAddRR, isa.RegOp(d), isa.RegOp(s)) }
func (b *Builder) SubRR(d, s isa.Reg)       { b.I(vSubRR, isa.RegOp(d), isa.RegOp(s)) }
func (b *Builder) SubRI(d isa.Reg, v int64) { b.I(vSubRI, isa.RegOp(d), isa.ImmOp(v)) }
func (b *Builder) AndRI(d isa.Reg, v int64) { b.I(vAndRI, isa.RegOp(d), isa.ImmOp(v)) }
func (b *Builder) AndRR(d, s isa.Reg)       { b.I(vAndRR, isa.RegOp(d), isa.RegOp(s)) }
func (b *Builder) OrRR(d, s isa.Reg)        { b.I(vOrRR, isa.RegOp(d), isa.RegOp(s)) }
func (b *Builder) XorRR(d, s isa.Reg)       { b.I(vXorRR, isa.RegOp(d), isa.RegOp(s)) }
func (b *Builder) XorRI(d isa.Reg, v int64) { b.I(vXorRI, isa.RegOp(d), isa.ImmOp(v)) }
func (b *Builder) CmpRR(a, c isa.Reg)       { b.I(vCmpRR, isa.RegOp(a), isa.RegOp(c)) }
func (b *Builder) CmpRI(a isa.Reg, v int64) { b.I(vCmpRI, isa.RegOp(a), isa.ImmOp(v)) }
func (b *Builder) TestRR(a, c isa.Reg)      { b.I(vTestRR, isa.RegOp(a), isa.RegOp(c)) }
func (b *Builder) ShlRI(d isa.Reg, n int64) { b.I(vShlRI, isa.RegOp(d), isa.ImmOp(n)) }
func (b *Builder) ShrRI(d isa.Reg, n int64) { b.I(vShrRI, isa.RegOp(d), isa.ImmOp(n)) }
func (b *Builder) SarRI(d isa.Reg, n int64) { b.I(vSarRI, isa.RegOp(d), isa.ImmOp(n)) }
func (b *Builder) RolRI(d isa.Reg, n int64) { b.I(vRolRI, isa.RegOp(d), isa.ImmOp(n)) }
func (b *Builder) RorRI(d isa.Reg, n int64) { b.I(vRorRI, isa.RegOp(d), isa.ImmOp(n)) }
func (b *Builder) Inc(d isa.Reg)            { b.I(vIncR, isa.RegOp(d)) }
func (b *Builder) Dec(d isa.Reg)            { b.I(vDecR, isa.RegOp(d)) }
func (b *Builder) ImulRR(d, s isa.Reg)      { b.I(vImulRR, isa.RegOp(d), isa.RegOp(s)) }
func (b *Builder) ImulRRI(d, s isa.Reg, v int64) {
	b.I(vImulRRI, isa.RegOp(d), isa.RegOp(s), isa.ImmOp(v))
}

// CmovRR emits a conditional move.
func (b *Builder) CmovRR(c isa.Cond, d, s isa.Reg) {
	b.I(FindCond(isa.OpCMOVcc, c, isa.W64, isa.KReg, isa.KReg), isa.RegOp(d), isa.RegOp(s))
}

// --- memory helpers ----------------------------------------------------

// Load emits mov r64 <- [base+disp].
func (b *Builder) Load(r, base isa.Reg, disp int32) {
	b.I(vMovRM, isa.RegOp(r), isa.MemOp(base, disp))
}

// LoadIdx emits mov r64 <- [base+index*scale+disp].
func (b *Builder) LoadIdx(r, base, index isa.Reg, scale uint8, disp int32) {
	b.I(vMovRM, isa.RegOp(r), isa.MemIdxOp(base, index, scale, disp))
}

// Store emits mov [base+disp] <- r64.
func (b *Builder) Store(base isa.Reg, disp int32, r isa.Reg) {
	b.I(vMovMR, isa.MemOp(base, disp), isa.RegOp(r))
}

// StoreIdx emits mov [base+index*scale+disp] <- r64.
func (b *Builder) StoreIdx(base, index isa.Reg, scale uint8, disp int32, r isa.Reg) {
	b.I(vMovMR, isa.MemIdxOp(base, index, scale, disp), isa.RegOp(r))
}

// LoadBZXIdx zero-extends a byte into 64 bits; StoreBIdx stores one byte.
func (b *Builder) LoadBZXIdx(r, base, index isa.Reg, scale uint8, disp int32) {
	b.I(vMovzxB64, isa.RegOp(r), isa.MemIdxOp(base, index, scale, disp))
}

func (b *Builder) StoreBIdx(base, index isa.Reg, scale uint8, disp int32, r isa.Reg) {
	b.I(vMovMR8, isa.MemIdxOp(base, index, scale, disp), isa.RegOp(r))
}

// AddRM emits add r64, [base+idx*scale+disp].
func (b *Builder) AddRMIdx(r, base, index isa.Reg, scale uint8, disp int32) {
	b.I(vAddRM, isa.RegOp(r), isa.MemIdxOp(base, index, scale, disp))
}

// --- floating point ------------------------------------------------------

func (b *Builder) AddSD(d, s isa.XReg)  { b.I(vAddSD, isa.XmmOp(d), isa.XmmOp(s)) }
func (b *Builder) SubSD(d, s isa.XReg)  { b.I(vSubSD, isa.XmmOp(d), isa.XmmOp(s)) }
func (b *Builder) MulSD(d, s isa.XReg)  { b.I(vMulSD, isa.XmmOp(d), isa.XmmOp(s)) }
func (b *Builder) DivSD(d, s isa.XReg)  { b.I(vDivSD, isa.XmmOp(d), isa.XmmOp(s)) }
func (b *Builder) SqrtSD(d, s isa.XReg) { b.I(vSqrtSD, isa.XmmOp(d), isa.XmmOp(s)) }
func (b *Builder) MovSDxx(d, s isa.XReg) {
	b.I(vMovSDxx, isa.XmmOp(d), isa.XmmOp(s))
}
func (b *Builder) UcomiSD(a, c isa.XReg) { b.I(vUcomiSD, isa.XmmOp(a), isa.XmmOp(c)) }

// LoadSD emits movsd xmm <- [base+disp].
func (b *Builder) LoadSD(x isa.XReg, base isa.Reg, disp int32) {
	b.I(vMovSDxm, isa.XmmOp(x), isa.MemOp(base, disp))
}

// LoadSDIdx emits movsd xmm <- [base+index*scale+disp].
func (b *Builder) LoadSDIdx(x isa.XReg, base, index isa.Reg, scale uint8, disp int32) {
	b.I(vMovSDxm, isa.XmmOp(x), isa.MemIdxOp(base, index, scale, disp))
}

// StoreSDIdx emits movsd [base+index*scale+disp] <- xmm.
func (b *Builder) StoreSDIdx(base, index isa.Reg, scale uint8, disp int32, x isa.XReg) {
	b.I(vMovSDmx, isa.MemIdxOp(base, index, scale, disp), isa.XmmOp(x))
}

// StoreSD emits movsd [base+disp] <- xmm.
func (b *Builder) StoreSD(base isa.Reg, disp int32, x isa.XReg) {
	b.I(vMovSDmx, isa.MemOp(base, disp), isa.XmmOp(x))
}

// CvtSI2SD converts a 64-bit integer register to double.
func (b *Builder) CvtSI2SD(x isa.XReg, r isa.Reg) {
	b.I(vCvtSI2SDq, isa.XmmOp(x), isa.RegOp(r))
}

// --- program assembly -----------------------------------------------------

// Kernel wraps a built instruction sequence and a data region into a
// runnable program. The data region starts at prog.DataBase; a standard
// stack is attached. R15 is conventionally the kernel's data base
// pointer.
func Kernel(name string, insts []isa.Inst, data []byte) *prog.Program {
	// Pad the region to cache-line alignment.
	if rem := len(data) % 64; rem != 0 {
		data = append(data, make([]byte, 64-rem)...)
	}
	p := &prog.Program{
		Name:  name,
		Insts: insts,
		Regions: []prog.RegionSpec{
			{Name: "data", Base: prog.DataBase, Data: data, Writable: true},
			{Name: "stack", Base: prog.StackBase, Size: prog.StackSize, Writable: true},
		},
	}
	p.InitGPR[isa.RSP] = prog.StackBase + prog.StackSize
	p.InitGPR[isa.R15] = prog.DataBase
	return p
}
