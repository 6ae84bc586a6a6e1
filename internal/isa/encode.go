package isa

import (
	"errors"
	"fmt"
)

// Decoding errors. The SiliFuzz baseline depends on decode failures being
// distinguishable: random byte strings must frequently fail to decode,
// mirroring how raw-byte mutation produces illegal x86 (paper Fig. 8:
// "more than 2 out of 3 produced sequences being eventually unusable").
var (
	ErrInvalidOpcode = errors.New("isa: invalid opcode")
	ErrTruncated     = errors.New("isa: truncated instruction")
)

// idxInFam[id] is the variant's selector index within its family.
var idxInFam []uint8

func buildEncoding() {
	for i := range opcodeOf {
		opcodeOf[i] = -1
	}
	for i := range familyOf {
		familyOf[i] = OpINVALID
	}
	next := 1 // opcode 0x00 stays invalid
	for op := Op(1); op < NumOpsExt; op++ {
		if len(byOp[op]) == 0 {
			continue
		}
		if next >= 256 {
			panic("isa: opcode space exhausted")
		}
		opcodeOf[op] = next
		familyOf[next] = op
		next++
	}
	numILP = next - 1

	idxInFam = make([]uint8, len(table))
	for op := Op(1); op < NumOpsExt; op++ {
		for i, id := range byOp[op] {
			if i > 255 {
				panic("isa: family too large for one-byte selector")
			}
			idxInFam[id] = uint8(i)
		}
	}
}

// NumOpcodeSlots returns how many of the 256 first-byte opcode slots are
// assigned (the rest decode as invalid).
func NumOpcodeSlots() int { return numILP }

// EncodedLen returns the encoded size of an instruction in bytes.
func EncodedLen(in *Inst) int {
	v := Lookup(in.V)
	n := 2
	for i := 0; i < int(in.NOps); i++ {
		n += operandLen(&v.Ops[i], &in.Ops[i])
	}
	return n
}

func operandLen(spec *OperandSpec, op *Operand) int {
	switch spec.Kind {
	case KReg, KXmm:
		return 1
	case KImm:
		w := spec.Width
		if w > W64 {
			w = W64
		}
		return int(w)
	case KMem:
		n := 1 + 4
		if op.Mem.HasIndex {
			n++
		}
		return n
	}
	return 0
}

// Encode appends the byte encoding of in to dst and returns the extended
// slice. The encoding is: [family opcode byte] [variant selector byte]
// then one field per explicit operand (registers one byte; immediates in
// little-endian at the operand-spec width; memory as a mode byte, an
// optional index byte, and a 32-bit displacement).
func Encode(dst []byte, in *Inst) []byte {
	v := Lookup(in.V)
	oc := opcodeOf[v.Op]
	if oc < 0 {
		panic(fmt.Sprintf("isa: op %d has no opcode", v.Op))
	}
	dst = append(dst, byte(oc), idxInFam[in.V])
	for i := 0; i < int(in.NOps); i++ {
		dst = encodeOperand(dst, &v.Ops[i], &in.Ops[i])
	}
	return dst
}

func encodeOperand(dst []byte, spec *OperandSpec, op *Operand) []byte {
	switch spec.Kind {
	case KReg:
		return append(dst, byte(op.Reg))
	case KXmm:
		return append(dst, byte(op.X))
	case KImm:
		w := spec.Width
		if w > W64 {
			w = W64
		}
		u := uint64(op.Imm)
		for i := 0; i < int(w); i++ {
			dst = append(dst, byte(u>>(8*i)))
		}
		return dst
	case KMem:
		m := op.Mem
		mode := byte(m.Base) & 0x0f
		if m.HasIndex {
			mode |= 0x10
			mode |= scaleLog2(m.Scale) << 5
		}
		dst = append(dst, mode)
		if m.HasIndex {
			dst = append(dst, byte(m.Index))
		}
		u := uint32(m.Disp)
		return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return dst
}

func scaleLog2(s uint8) byte {
	switch s {
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	default:
		return 0
	}
}

// Decode decodes one instruction from buf. It returns the instruction,
// the number of bytes consumed, and an error for invalid opcodes or a
// truncated buffer. Register fields decode modulo the register count, so
// any register byte is valid (invalidity comes from unassigned opcode
// slots and truncation, as in dense CISC encodings).
func Decode(buf []byte) (Inst, int, error) {
	if len(buf) < 2 {
		return Inst{}, 0, ErrTruncated
	}
	fam := familyOf[buf[0]]
	if fam == OpINVALID {
		return Inst{}, 1, ErrInvalidOpcode
	}
	vars := byOp[fam]
	v := Lookup(vars[int(buf[1])%len(vars)])
	in := Inst{V: v.ID, NOps: uint8(len(v.Ops))}
	pos := 2
	for i, spec := range v.Ops {
		var op Operand
		var n int
		var err error
		op, n, err = decodeOperand(buf[pos:], spec)
		if err != nil {
			return Inst{}, pos, err
		}
		in.Ops[i] = op
		pos += n
	}
	return in, pos, nil
}

func decodeOperand(buf []byte, spec OperandSpec) (Operand, int, error) {
	switch spec.Kind {
	case KReg:
		if len(buf) < 1 {
			return Operand{}, 0, ErrTruncated
		}
		return Operand{Kind: KReg, Reg: Reg(buf[0] % NumGPR)}, 1, nil
	case KXmm:
		if len(buf) < 1 {
			return Operand{}, 0, ErrTruncated
		}
		return Operand{Kind: KXmm, X: XReg(buf[0] % NumXMM)}, 1, nil
	case KImm:
		w := spec.Width
		if w > W64 {
			w = W64
		}
		if len(buf) < int(w) {
			return Operand{}, 0, ErrTruncated
		}
		var u uint64
		for i := 0; i < int(w); i++ {
			u |= uint64(buf[i]) << (8 * i)
		}
		// Sign-extend.
		shift := 64 - 8*uint(w)
		v := int64(u<<shift) >> shift
		return Operand{Kind: KImm, Imm: v}, int(w), nil
	case KMem:
		if len(buf) < 1 {
			return Operand{}, 0, ErrTruncated
		}
		mode := buf[0]
		m := MemRef{Base: Reg(mode & 0x0f), Scale: 1}
		pos := 1
		if mode&0x10 != 0 {
			if len(buf) < 2 {
				return Operand{}, 0, ErrTruncated
			}
			m.HasIndex = true
			m.Index = Reg(buf[1] % NumGPR)
			m.Scale = 1 << ((mode >> 5) & 3)
			pos = 2
		}
		if len(buf) < pos+4 {
			return Operand{}, 0, ErrTruncated
		}
		m.Disp = int32(uint32(buf[pos]) | uint32(buf[pos+1])<<8 | uint32(buf[pos+2])<<16 | uint32(buf[pos+3])<<24)
		return Operand{Kind: KMem, Mem: m}, pos + 4, nil
	}
	return Operand{}, 0, nil
}

// DecodeAll decodes a whole buffer into an instruction sequence, stopping
// at the first error. It returns the instructions decoded so far and the
// error (nil if the buffer was fully consumed).
func DecodeAll(buf []byte) ([]Inst, error) {
	var out []Inst
	for len(buf) > 0 {
		in, n, err := Decode(buf)
		if err != nil {
			return out, err
		}
		out = append(out, in)
		buf = buf[n:]
	}
	return out, nil
}
