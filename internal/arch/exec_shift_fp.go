package arch

import (
	"math"
	"math/bits"

	"harpocrates/internal/isa"
)

// execShift implements shifts and rotates, including rotate-through-carry
// with the count == register-width corner case that crashed gem5 v22
// (paper §VI-D): the carry bit participates in a (width+1)-bit rotation,
// so a rotate by exactly `width` moves the carry into the top bit and is
// NOT a no-op.
func (s *State) execShift(in *isa.Inst, v *isa.Variant) *CrashError {
	w := v.Width
	nbits := uint(w.Bits())
	var count uint64
	if in.NOps >= 2 && in.Ops[1].Kind == isa.KImm {
		count = uint64(in.Ops[1].Imm)
	} else {
		count = s.GPR[isa.RCX]
	}
	if w == isa.W64 {
		count &= 63
	} else {
		count &= 31
	}
	a, err := s.readOp(&in.Ops[0], w)
	if err != nil {
		return err
	}
	cf := s.Flags&isa.CF != 0
	var res uint64
	switch v.Op {
	case isa.OpSHL:
		if count == 0 {
			return s.writeOp(&in.Ops[0], w, a)
		}
		res = a << count
		outBit := false
		if count <= uint64(nbits) {
			outBit = (a>>(uint64(nbits)-count))&1 != 0
		}
		s.setBool(isa.CF, outBit)
		s.setBool(isa.OF, (res&w.SignBit() != 0) != outBit)
		s.setZSP(res, w)

	case isa.OpSHR:
		if count == 0 {
			return s.writeOp(&in.Ops[0], w, a)
		}
		res = a >> count
		outBit := false
		if count <= 64 {
			outBit = (a>>(count-1))&1 != 0
		}
		s.setBool(isa.CF, outBit)
		s.setBool(isa.OF, a&w.SignBit() != 0)
		s.setZSP(res, w)

	case isa.OpSAR:
		if count == 0 {
			return s.writeOp(&in.Ops[0], w, a)
		}
		sa := int64(signExtend(a, w))
		if count >= 63 {
			count = 63
		}
		res = uint64(sa >> count)
		s.setBool(isa.CF, (uint64(sa)>>(count-1))&1 != 0)
		s.setBool(isa.OF, false)
		s.setZSP(res, w)

	case isa.OpROL:
		n := count % uint64(nbits)
		res = a
		if n != 0 {
			res = (a<<n | a>>(uint64(nbits)-n)) & w.Mask()
		}
		if count != 0 {
			s.setBool(isa.CF, res&1 != 0)
			s.setBool(isa.OF, (res&w.SignBit() != 0) != (res&1 != 0))
		}

	case isa.OpROR:
		n := count % uint64(nbits)
		res = a
		if n != 0 {
			res = (a>>n | a<<(uint64(nbits)-n)) & w.Mask()
		}
		if count != 0 {
			s.setBool(isa.CF, res&w.SignBit() != 0)
			top2 := (res >> (nbits - 2)) & 3
			s.setBool(isa.OF, top2 == 1 || top2 == 2)
		}

	case isa.OpRCL:
		n := count % uint64(nbits+1)
		res = a
		ncf := cf
		if n != 0 {
			ncf = (a>>(uint64(nbits)-n))&1 != 0
			res = a << n
			if cf {
				res |= 1 << (n - 1)
			}
			if n > 1 {
				res |= a >> (uint64(nbits) + 1 - n)
			}
			res &= w.Mask()
		}
		s.setBool(isa.CF, ncf)
		s.setBool(isa.OF, (res&w.SignBit() != 0) != ncf)

	case isa.OpRCR:
		n := count % uint64(nbits+1)
		res = a
		ncf := cf
		if n != 0 {
			ncf = (a>>(n-1))&1 != 0
			res = a >> n
			if cf {
				res |= 1 << (uint64(nbits) - n)
			}
			if n > 1 {
				res |= a << (uint64(nbits) + 1 - n)
			}
			res &= w.Mask()
		}
		s.setBool(isa.CF, ncf)
		s.setBool(isa.OF, (res&w.SignBit() != 0) != (a&w.SignBit() != 0))
	}
	return s.writeOp(&in.Ops[0], w, res)
}

func (s *State) execDiv(in *isa.Inst, v *isa.Variant) *CrashError {
	w := v.Width
	nbits := uint(w.Bits())
	lo := s.ReadGPR(isa.RAX, w)
	hi := s.ReadGPR(isa.RDX, w)
	d, err := s.readOp(&in.Ops[0], w)
	if err != nil {
		return err
	}
	if d == 0 {
		return &CrashError{Kind: CrashDivide}
	}
	var q, r uint64
	if v.Op == isa.OpDIV {
		if w == isa.W64 {
			if hi >= d {
				return &CrashError{Kind: CrashDivide} // quotient overflow
			}
			q, r = bits.Div64(hi, lo, d)
		} else {
			dividend := hi<<nbits | lo
			q = dividend / d
			r = dividend % d
			if q > w.Mask() {
				return &CrashError{Kind: CrashDivide}
			}
		}
	} else { // IDIV
		sd := int64(signExtend(d, w))
		if w == isa.W64 {
			// Signed 128/64 division via magnitudes.
			negDividend := hi&(1<<63) != 0
			mlo, mhi := lo, hi
			if negDividend {
				mlo = -lo
				mhi = ^hi
				if lo == 0 {
					mhi++
				}
			}
			md := uint64(sd)
			negDiv := sd < 0
			if negDiv {
				md = uint64(-sd)
			}
			if mhi >= md {
				return &CrashError{Kind: CrashDivide}
			}
			uq, ur := bits.Div64(mhi, mlo, md)
			negQ := negDividend != negDiv
			if (negQ && uq > 1<<63) || (!negQ && uq > 1<<63-1) {
				return &CrashError{Kind: CrashDivide}
			}
			q = uq
			if negQ {
				q = -uq
			}
			r = ur
			if negDividend {
				r = -ur
			}
		} else {
			dividend := int64(signExtend(hi<<nbits|lo, isa.Width(2*w)))
			iq := dividend / sd
			ir := dividend % sd
			limit := int64(1) << (nbits - 1)
			if iq >= limit || iq < -limit {
				return &CrashError{Kind: CrashDivide}
			}
			q = uint64(iq)
			r = uint64(ir)
		}
	}
	s.WriteGPR(isa.RAX, w, q)
	s.WriteGPR(isa.RDX, w, r)
	return nil
}

func (s *State) execBitScan(in *isa.Inst, v *isa.Variant) *CrashError {
	w := v.Width
	nbits := w.Bits()
	a, err := s.readOp(&in.Ops[1], w)
	if err != nil {
		return err
	}
	var res uint64
	switch v.Op {
	case isa.OpBSF:
		if a == 0 {
			s.Flags |= isa.ZF
			return nil // destination unchanged (we define x86's "undefined")
		}
		s.Flags &^= isa.ZF
		res = uint64(bits.TrailingZeros64(a))
	case isa.OpBSR:
		if a == 0 {
			s.Flags |= isa.ZF
			return nil
		}
		s.Flags &^= isa.ZF
		res = uint64(63 - bits.LeadingZeros64(a))
	case isa.OpPOPCNT:
		res = uint64(bits.OnesCount64(a))
		s.Flags &^= isa.AllFlags
		if res == 0 {
			s.Flags |= isa.ZF
		}
	case isa.OpLZCNT:
		res = uint64(bits.LeadingZeros64(a) - (64 - nbits))
		s.setBool(isa.CF, a == 0)
		s.setBool(isa.ZF, res == 0)
	case isa.OpTZCNT:
		if a == 0 {
			res = uint64(nbits)
		} else {
			res = uint64(bits.TrailingZeros64(a))
		}
		s.setBool(isa.CF, a == 0)
		s.setBool(isa.ZF, res == 0)
	}
	s.WriteGPR(in.Ops[0].Reg, w, res)
	return nil
}

// writeX writes a 128-bit (or narrower) value to an xmm or memory
// operand.
func (s *State) writeX(op *isa.Operand, w isa.Width, val [2]uint64) *CrashError {
	switch op.Kind {
	case isa.KXmm:
		s.XMM[op.X] = val
		return nil
	case isa.KMem:
		addr := s.EffAddr(op.Mem)
		if w == isa.W128 {
			if addr&15 != 0 {
				return &CrashError{Kind: CrashMisaligned, Addr: addr}
			}
			return s.Mem.Write128(addr, val)
		}
		return s.Mem.Write(addr, uint64(w), val[0])
	}
	return &CrashError{Kind: CrashInvalidOpcode}
}

func f64(b uint64) float64  { return math.Float64frombits(b) }
func b64(f float64) uint64  { return math.Float64bits(f) }
func f32(b uint64) float32  { return math.Float32frombits(uint32(b)) }
func b32l(f float32) uint64 { return uint64(math.Float32bits(f)) }

func (s *State) execSSE(in *isa.Inst, v *isa.Variant) *CrashError {
	switch v.Op {
	case isa.OpADDSD, isa.OpSUBSD, isa.OpMULSD, isa.OpDIVSD, isa.OpMINSD, isa.OpMAXSD:
		src, err := s.readX(&in.Ops[1], isa.W64)
		if err != nil {
			return err
		}
		x := in.Ops[0].X
		a, b := s.XMM[x][0], src[0]
		var r uint64
		switch v.Op {
		case isa.OpADDSD:
			r = s.fpAdd64(a, b)
		case isa.OpSUBSD:
			r = s.fpSub64(a, b)
		case isa.OpMULSD:
			r = s.fpMul64(a, b)
		case isa.OpDIVSD:
			r = b64(f64(a) / f64(b))
		case isa.OpMINSD:
			if f64(a) < f64(b) {
				r = a
			} else {
				r = b
			}
		case isa.OpMAXSD:
			if f64(a) > f64(b) {
				r = a
			} else {
				r = b
			}
		}
		s.XMM[x][0] = r

	case isa.OpSQRTSD:
		src, err := s.readX(&in.Ops[1], isa.W64)
		if err != nil {
			return err
		}
		s.XMM[in.Ops[0].X][0] = b64(math.Sqrt(f64(src[0])))

	case isa.OpADDSS, isa.OpSUBSS, isa.OpMULSS, isa.OpDIVSS:
		src, err := s.readX(&in.Ops[1], isa.W32)
		if err != nil {
			return err
		}
		x := in.Ops[0].X
		a := uint32(s.XMM[x][0])
		b := uint32(src[0])
		var r uint32
		switch v.Op {
		case isa.OpADDSS:
			r = s.fpAdd32(a, b)
		case isa.OpSUBSS:
			r = s.fpAdd32(a, b^(1<<31))
		case isa.OpMULSS:
			r = s.fpMul32(a, b)
		case isa.OpDIVSS:
			r = math.Float32bits(math.Float32frombits(a) / math.Float32frombits(b))
		}
		s.XMM[x][0] = s.XMM[x][0]&^0xffffffff | uint64(r)

	case isa.OpADDPD, isa.OpSUBPD, isa.OpMULPD, isa.OpDIVPD:
		src, err := s.readX(&in.Ops[1], isa.W128)
		if err != nil {
			return err
		}
		x := in.Ops[0].X
		for lane := 0; lane < 2; lane++ {
			a, b := s.XMM[x][lane], src[lane]
			switch v.Op {
			case isa.OpADDPD:
				s.XMM[x][lane] = s.fpAdd64(a, b)
			case isa.OpSUBPD:
				s.XMM[x][lane] = s.fpSub64(a, b)
			case isa.OpMULPD:
				s.XMM[x][lane] = s.fpMul64(a, b)
			case isa.OpDIVPD:
				s.XMM[x][lane] = b64(f64(a) / f64(b))
			}
		}

	case isa.OpCVTSI2SD:
		srcW := v.Ops[1].Width
		a, err := s.readOp(&in.Ops[1], srcW)
		if err != nil {
			return err
		}
		s.XMM[in.Ops[0].X][0] = b64(float64(int64(signExtend(a, srcW))))

	case isa.OpCVTSD2SI, isa.OpCVTTSD2SI:
		f := f64(s.XMM[in.Ops[1].X][0])
		var g float64
		if v.Op == isa.OpCVTSD2SI {
			g = math.RoundToEven(f)
		} else {
			g = math.Trunc(f)
		}
		w := v.Width
		indefinite := uint64(1) << (uint(w.Bits()) - 1)
		var res uint64
		limit := math.Ldexp(1, w.Bits()-1)
		if math.IsNaN(g) || g >= limit || g < -limit {
			res = indefinite
		} else {
			res = uint64(int64(g))
		}
		s.WriteGPR(in.Ops[0].Reg, w, res)

	case isa.OpCVTSD2SS:
		src, err := s.readX(&in.Ops[1], isa.W64)
		if err != nil {
			return err
		}
		x := in.Ops[0].X
		s.XMM[x][0] = s.XMM[x][0]&^0xffffffff | b32l(float32(f64(src[0])))

	case isa.OpCVTSS2SD:
		src, err := s.readX(&in.Ops[1], isa.W32)
		if err != nil {
			return err
		}
		s.XMM[in.Ops[0].X][0] = b64(float64(f32(src[0])))

	case isa.OpMOVSD:
		switch {
		case in.Ops[0].Kind == isa.KXmm && in.Ops[1].Kind == isa.KXmm:
			s.XMM[in.Ops[0].X][0] = s.XMM[in.Ops[1].X][0]
		case in.Ops[0].Kind == isa.KXmm:
			src, err := s.readX(&in.Ops[1], isa.W64)
			if err != nil {
				return err
			}
			s.XMM[in.Ops[0].X] = [2]uint64{src[0], 0}
		default:
			return s.writeX(&in.Ops[0], isa.W64, s.XMM[in.Ops[1].X])
		}

	case isa.OpMOVAPD:
		if in.Ops[0].Kind == isa.KXmm {
			src, err := s.readX(&in.Ops[1], isa.W128)
			if err != nil {
				return err
			}
			s.XMM[in.Ops[0].X] = src
		} else {
			return s.writeX(&in.Ops[0], isa.W128, s.XMM[in.Ops[1].X])
		}

	case isa.OpMOVQXR:
		s.XMM[in.Ops[0].X] = [2]uint64{s.GPR[in.Ops[1].Reg], 0}

	case isa.OpMOVQRX:
		s.GPR[in.Ops[0].Reg] = s.XMM[in.Ops[1].X][0]

	case isa.OpPXOR, isa.OpPAND, isa.OpPOR, isa.OpPADDQ, isa.OpPADDD, isa.OpPSUBQ, isa.OpPMULLD:
		src, err := s.readX(&in.Ops[1], isa.W128)
		if err != nil {
			return err
		}
		x := in.Ops[0].X
		for lane := 0; lane < 2; lane++ {
			a, b := s.XMM[x][lane], src[lane]
			switch v.Op {
			case isa.OpPXOR:
				s.XMM[x][lane] = a ^ b
			case isa.OpPAND:
				s.XMM[x][lane] = a & b
			case isa.OpPOR:
				s.XMM[x][lane] = a | b
			case isa.OpPADDQ:
				s.XMM[x][lane] = a + b
			case isa.OpPSUBQ:
				s.XMM[x][lane] = a - b
			case isa.OpPADDD:
				s.XMM[x][lane] = (a+b)&0xffffffff | (a>>32+b>>32)<<32
			case isa.OpPMULLD:
				lo := uint32(a) * uint32(b)
				hi := uint32(a>>32) * uint32(b>>32)
				s.XMM[x][lane] = uint64(lo) | uint64(hi)<<32
			}
		}

	case isa.OpUCOMISD:
		src, err := s.readX(&in.Ops[1], isa.W64)
		if err != nil {
			return err
		}
		a := f64(s.XMM[in.Ops[0].X][0])
		b := f64(src[0])
		s.Flags &^= isa.AllFlags
		switch {
		case math.IsNaN(a) || math.IsNaN(b):
			s.Flags |= isa.ZF | isa.PF | isa.CF
		case a < b:
			s.Flags |= isa.CF
		case a == b:
			s.Flags |= isa.ZF
		}

	case isa.OpSHUFPD:
		src, err := s.readX(&in.Ops[1], isa.W128)
		if err != nil {
			return err
		}
		x := in.Ops[0].X
		imm := uint64(in.Ops[2].Imm)
		s.XMM[x] = [2]uint64{s.XMM[x][imm&1], src[(imm>>1)&1]}

	case isa.OpUNPCKLPD:
		src, err := s.readX(&in.Ops[1], isa.W128)
		if err != nil {
			return err
		}
		x := in.Ops[0].X
		s.XMM[x] = [2]uint64{s.XMM[x][0], src[0]}

	case isa.OpUNPCKHPD:
		src, err := s.readX(&in.Ops[1], isa.W128)
		if err != nil {
			return err
		}
		x := in.Ops[0].X
		s.XMM[x] = [2]uint64{s.XMM[x][1], src[1]}

	default:
		return &CrashError{Kind: CrashInvalidOpcode}
	}
	return nil
}
