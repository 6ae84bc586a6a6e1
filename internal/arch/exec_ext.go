package arch

import (
	"math"
	"math/bits"

	"harpocrates/internal/isa"
)

// execExt implements the extended instruction families (isa/table_ext.go).
// It is called from the main dispatch's default arm.
func (s *State) execExt(in *isa.Inst, v *isa.Variant) (bool, *CrashError) {
	w := v.Width
	switch v.Op {
	case isa.OpSHLD, isa.OpSHRD:
		a, err := s.readOp(&in.Ops[0], w)
		if err != nil {
			return true, err
		}
		b, err := s.readOp(&in.Ops[1], w)
		if err != nil {
			return true, err
		}
		nbits := uint64(w.Bits())
		n := uint64(in.Ops[2].Imm)
		if w == isa.W64 {
			n &= 63
		} else {
			n &= 31
		}
		n %= nbits // keep within the double-shift window
		if n == 0 {
			return true, nil
		}
		var res uint64
		var outBit bool
		if v.Op == isa.OpSHLD {
			res = (a<<n | b>>(nbits-n)) & w.Mask()
			outBit = (a>>(nbits-n))&1 != 0
		} else {
			res = (a>>n | b<<(nbits-n)) & w.Mask()
			outBit = (a>>(n-1))&1 != 0
		}
		s.setBool(isa.CF, outBit)
		s.setBool(isa.OF, (res&w.SignBit() != 0) != (a&w.SignBit() != 0))
		s.setZSP(res, w)
		return true, s.writeOp(&in.Ops[0], w, res)

	case isa.OpANDN, isa.OpBEXTR, isa.OpBLSI, isa.OpBLSR, isa.OpBLSMSK,
		isa.OpRORX, isa.OpSHLX, isa.OpSHRX, isa.OpSARX, isa.OpBZHI:
		return true, s.execBMI(in, v)

	case isa.OpXADD:
		a, err := s.readOp(&in.Ops[0], w)
		if err != nil {
			return true, err
		}
		b, err := s.readOp(&in.Ops[1], w)
		if err != nil {
			return true, err
		}
		sum, cf, of := s.addCore(a, b, false, w)
		s.setBool(isa.CF, cf)
		s.setBool(isa.OF, of)
		s.setZSP(sum, w)
		if err := s.writeOp(&in.Ops[1], w, a); err != nil {
			return true, err
		}
		return true, s.writeOp(&in.Ops[0], w, sum)

	case isa.OpMOVBE:
		b, err := s.readOp(&in.Ops[1], w)
		if err != nil {
			return true, err
		}
		var res uint64
		switch w {
		case isa.W16:
			res = uint64(bits.ReverseBytes16(uint16(b)))
		case isa.W32:
			res = uint64(bits.ReverseBytes32(uint32(b)))
		default:
			res = bits.ReverseBytes64(b)
		}
		return true, s.writeOp(&in.Ops[0], w, res)

	case isa.OpCMPXCHG:
		dst, err := s.readOp(&in.Ops[0], w)
		if err != nil {
			return true, err
		}
		src, err := s.readOp(&in.Ops[1], w)
		if err != nil {
			return true, err
		}
		acc := s.ReadGPR(isa.RAX, w)
		_, cf, of := s.subCore(acc, dst, false, w)
		s.setBool(isa.CF, cf)
		s.setBool(isa.OF, of)
		s.setZSP(acc-dst, w)
		if acc == dst {
			s.Flags |= isa.ZF
			return true, s.writeOp(&in.Ops[0], w, src)
		}
		s.Flags &^= isa.ZF
		s.WriteGPR(isa.RAX, w, dst)
		return true, nil

	case isa.OpADCX, isa.OpADOX:
		a, err := s.readOp(&in.Ops[0], w)
		if err != nil {
			return true, err
		}
		b, err := s.readOp(&in.Ops[1], w)
		if err != nil {
			return true, err
		}
		flag := isa.CF
		if v.Op == isa.OpADOX {
			flag = isa.OF
		}
		res, carry, _ := s.addCore(a, b, s.Flags&flag != 0, w)
		s.setBool(flag, carry)
		return true, s.writeOp(&in.Ops[0], w, res)

	case isa.OpCSEX:
		half := w / 2
		s.WriteGPR(isa.RAX, w, signExtend(s.ReadGPR(isa.RAX, half), half))
		return true, nil

	case isa.OpCSPLIT:
		var fill uint64
		if s.ReadGPR(isa.RAX, w)&w.SignBit() != 0 {
			fill = w.Mask()
		}
		s.WriteGPR(isa.RDX, w, fill)
		return true, nil

	case isa.OpLAHF:
		s.WriteGPR(isa.RAX, isa.W16, s.ReadGPR(isa.RAX, isa.W8)|uint64(s.Flags)<<8)
		return true, nil

	case isa.OpSAHF:
		ah := isa.Flags(s.GPR[isa.RAX] >> 8)
		keep := s.Flags & isa.OF
		s.Flags = ah&(isa.CF|isa.PF|isa.ZF|isa.SF) | keep
		return true, nil

	case isa.OpCLC:
		s.Flags &^= isa.CF
		return true, nil
	case isa.OpSTC:
		s.Flags |= isa.CF
		return true, nil
	case isa.OpCMC:
		s.Flags ^= isa.CF
		return true, nil

	case isa.OpADDPS, isa.OpSUBPS, isa.OpMULPS, isa.OpDIVPS, isa.OpMINPS, isa.OpMAXPS:
		return true, s.execPS(in, v)

	case isa.OpMINSS, isa.OpMAXSS, isa.OpSQRTSS:
		src, err := s.readX(&in.Ops[1], isa.W32)
		if err != nil {
			return true, err
		}
		x := in.Ops[0].X
		a := f32(s.XMM[x][0])
		b := math.Float32frombits(uint32(src[0]))
		var r float32
		switch v.Op {
		case isa.OpMINSS:
			r = b
			if a < b {
				r = a
			}
		case isa.OpMAXSS:
			r = b
			if a > b {
				r = a
			}
		case isa.OpSQRTSS:
			r = float32(math.Sqrt(float64(b)))
		}
		s.XMM[x][0] = s.XMM[x][0]&^0xffffffff | b32l(r)
		return true, nil

	case isa.OpANDPD, isa.OpANDNPD, isa.OpORPD, isa.OpXORPD:
		src, err := s.readX(&in.Ops[1], isa.W128)
		if err != nil {
			return true, err
		}
		x := in.Ops[0].X
		for lane := 0; lane < 2; lane++ {
			a, b := s.XMM[x][lane], src[lane]
			switch v.Op {
			case isa.OpANDPD:
				s.XMM[x][lane] = a & b
			case isa.OpANDNPD:
				s.XMM[x][lane] = ^a & b
			case isa.OpORPD:
				s.XMM[x][lane] = a | b
			case isa.OpXORPD:
				s.XMM[x][lane] = a ^ b
			}
		}
		return true, nil

	case isa.OpPSLLQ, isa.OpPSRLQ, isa.OpPSLLD, isa.OpPSRLD:
		x := in.Ops[0].X
		n := uint(in.Ops[1].Imm) & 0xff
		for lane := 0; lane < 2; lane++ {
			a := s.XMM[x][lane]
			switch v.Op {
			case isa.OpPSLLQ:
				if n >= 64 {
					a = 0
				} else {
					a <<= n
				}
			case isa.OpPSRLQ:
				if n >= 64 {
					a = 0
				} else {
					a >>= n
				}
			case isa.OpPSLLD:
				if n >= 32 {
					a = 0
				} else {
					a = (a << n & 0xffffffff) | (a >> 32 << n & 0xffffffff << 32)
				}
			case isa.OpPSRLD:
				if n >= 32 {
					a = 0
				} else {
					a = (a & 0xffffffff >> n) | (a >> 32 >> n << 32)
				}
			}
			s.XMM[x][lane] = a
		}
		return true, nil

	case isa.OpPSUBD, isa.OpPMULUDQ, isa.OpPCMPEQD, isa.OpPCMPEQQ, isa.OpPCMPGTD:
		src, err := s.readX(&in.Ops[1], isa.W128)
		if err != nil {
			return true, err
		}
		x := in.Ops[0].X
		for lane := 0; lane < 2; lane++ {
			a, b := s.XMM[x][lane], src[lane]
			switch v.Op {
			case isa.OpPSUBD:
				s.XMM[x][lane] = (a-b)&0xffffffff | (a>>32-b>>32)<<32
			case isa.OpPMULUDQ:
				// Low 32-bit lanes multiplied into full 64-bit products.
				s.XMM[x][lane] = (a & 0xffffffff) * (b & 0xffffffff)
			case isa.OpPCMPEQD:
				var r uint64
				if uint32(a) == uint32(b) {
					r = 0xffffffff
				}
				if uint32(a>>32) == uint32(b>>32) {
					r |= 0xffffffff << 32
				}
				s.XMM[x][lane] = r
			case isa.OpPCMPEQQ:
				if a == b {
					s.XMM[x][lane] = ^uint64(0)
				} else {
					s.XMM[x][lane] = 0
				}
			case isa.OpPCMPGTD:
				var r uint64
				if int32(a) > int32(b) {
					r = 0xffffffff
				}
				if int32(a>>32) > int32(b>>32) {
					r |= 0xffffffff << 32
				}
				s.XMM[x][lane] = r
			}
		}
		return true, nil

	case isa.OpPSHUFD:
		src, err := s.readX(&in.Ops[1], isa.W128)
		if err != nil {
			return true, err
		}
		imm := uint(in.Ops[2].Imm)
		dw := func(i uint) uint64 {
			sel := imm >> (2 * i) & 3
			return src[sel/2] >> (32 * (sel % 2)) & 0xffffffff
		}
		s.XMM[in.Ops[0].X] = [2]uint64{dw(0) | dw(1)<<32, dw(2) | dw(3)<<32}
		return true, nil

	case isa.OpCVTSI2SS:
		srcW := v.Ops[1].Width
		a, err := s.readOp(&in.Ops[1], srcW)
		if err != nil {
			return true, err
		}
		x := in.Ops[0].X
		s.XMM[x][0] = s.XMM[x][0]&^0xffffffff | b32l(float32(int64(signExtend(a, srcW))))
		return true, nil

	case isa.OpCVTSS2SI, isa.OpCVTTSS2SI:
		f := float64(f32(s.XMM[in.Ops[1].X][0]))
		var g float64
		if v.Op == isa.OpCVTSS2SI {
			g = math.RoundToEven(f)
		} else {
			g = math.Trunc(f)
		}
		limit := math.Ldexp(1, w.Bits()-1)
		var res uint64
		if math.IsNaN(g) || g >= limit || g < -limit {
			res = uint64(1) << (uint(w.Bits()) - 1)
		} else {
			res = uint64(int64(g))
		}
		s.WriteGPR(in.Ops[0].Reg, w, res)
		return true, nil

	case isa.OpCVTPS2PD:
		src := s.XMM[in.Ops[1].X][0]
		s.XMM[in.Ops[0].X] = [2]uint64{
			b64(float64(math.Float32frombits(uint32(src)))),
			b64(float64(math.Float32frombits(uint32(src >> 32)))),
		}
		return true, nil

	case isa.OpCVTPD2PS:
		src := s.XMM[in.Ops[1].X]
		lo := uint64(math.Float32bits(float32(f64(src[0]))))
		hi := uint64(math.Float32bits(float32(f64(src[1]))))
		s.XMM[in.Ops[0].X] = [2]uint64{lo | hi<<32, 0}
		return true, nil

	case isa.OpUCOMISS:
		src, err := s.readX(&in.Ops[1], isa.W32)
		if err != nil {
			return true, err
		}
		a := f32(s.XMM[in.Ops[0].X][0])
		b := math.Float32frombits(uint32(src[0]))
		s.Flags &^= isa.AllFlags
		switch {
		case a != a || b != b: // NaN
			s.Flags |= isa.ZF | isa.PF | isa.CF
		case a < b:
			s.Flags |= isa.CF
		case a == b:
			s.Flags |= isa.ZF
		}
		return true, nil

	case isa.OpMOVMSKPD:
		x := s.XMM[in.Ops[1].X]
		s.GPR[in.Ops[0].Reg] = x[0]>>63 | x[1]>>63<<1
		return true, nil

	case isa.OpMOVMSKPS:
		x := s.XMM[in.Ops[1].X]
		var m uint64
		for i := 0; i < 4; i++ {
			if x[i/2]>>(32*uint(i%2)+31)&1 != 0 {
				m |= 1 << uint(i)
			}
		}
		s.GPR[in.Ops[0].Reg] = m
		return true, nil

	case isa.OpPMOVMSKB:
		x := s.XMM[in.Ops[1].X]
		var m uint64
		for i := 0; i < 16; i++ {
			if x[i/8]>>(8*uint(i%8)+7)&1 != 0 {
				m |= 1 << uint(i)
			}
		}
		s.GPR[in.Ops[0].Reg] = m
		return true, nil

	case isa.OpMOVD:
		if in.Ops[0].Kind == isa.KXmm {
			s.XMM[in.Ops[0].X] = [2]uint64{s.ReadGPR(in.Ops[1].Reg, isa.W32), 0}
		} else {
			s.WriteGPR(in.Ops[0].Reg, isa.W32, s.XMM[in.Ops[1].X][0]&0xffffffff)
		}
		return true, nil

	case isa.OpMOVSS:
		switch {
		case in.Ops[0].Kind == isa.KXmm && in.Ops[1].Kind == isa.KXmm:
			x := in.Ops[0].X
			s.XMM[x][0] = s.XMM[x][0]&^0xffffffff | s.XMM[in.Ops[1].X][0]&0xffffffff
		case in.Ops[0].Kind == isa.KXmm:
			src, err := s.readX(&in.Ops[1], isa.W32)
			if err != nil {
				return true, err
			}
			s.XMM[in.Ops[0].X] = [2]uint64{src[0] & 0xffffffff, 0}
		default:
			return true, s.writeX(&in.Ops[0], isa.W32, [2]uint64{s.XMM[in.Ops[1].X][0] & 0xffffffff, 0})
		}
		return true, nil

	case isa.OpMOVUPD:
		// Unaligned 128-bit move: bypass the movapd alignment check.
		if in.Ops[0].Kind == isa.KXmm {
			val, err := s.Mem.Read128(s.EffAddr(in.Ops[1].Mem))
			if err != nil {
				return true, err
			}
			s.XMM[in.Ops[0].X] = val
		} else {
			return true, s.Mem.Write128(s.EffAddr(in.Ops[0].Mem), s.XMM[in.Ops[1].X])
		}
		return true, nil
	}
	return false, nil
}

func (s *State) execBMI(in *isa.Inst, v *isa.Variant) *CrashError {
	w := v.Width
	nbits := uint64(w.Bits())
	b, err := s.readOp(&in.Ops[1], w)
	if err != nil {
		return err
	}
	var res uint64
	switch v.Op {
	case isa.OpANDN:
		c, err := s.readOp(&in.Ops[2], w)
		if err != nil {
			return err
		}
		res = ^b & c & w.Mask()
		s.setLogicFlags(res, w)
	case isa.OpBEXTR:
		c, err := s.readOp(&in.Ops[2], w)
		if err != nil {
			return err
		}
		start := c & 0xff
		length := c >> 8 & 0xff
		if start >= nbits {
			res = 0
		} else {
			res = b >> start
			if length < 64 {
				res &= 1<<length - 1
			}
			res &= w.Mask()
		}
		s.setLogicFlags(res, w)
	case isa.OpBLSI:
		res = b & -b & w.Mask()
		s.setBool(isa.CF, b != 0)
		s.setZSP(res, w)
		s.Flags &^= isa.OF
	case isa.OpBLSR:
		res = b & (b - 1) & w.Mask()
		s.setBool(isa.CF, b == 0)
		s.setZSP(res, w)
		s.Flags &^= isa.OF
	case isa.OpBLSMSK:
		res = (b ^ (b - 1)) & w.Mask()
		s.setBool(isa.CF, b == 0)
		s.setZSP(res, w)
		s.Flags &^= isa.OF
	case isa.OpRORX:
		n := uint64(in.Ops[2].Imm) % nbits
		if n != 0 {
			res = (b>>n | b<<(nbits-n)) & w.Mask()
		} else {
			res = b
		}
	case isa.OpSHLX, isa.OpSHRX, isa.OpSARX:
		c, err := s.readOp(&in.Ops[2], w)
		if err != nil {
			return err
		}
		n := c & (nbits - 1)
		switch v.Op {
		case isa.OpSHLX:
			res = b << n & w.Mask()
		case isa.OpSHRX:
			res = b >> n
		default:
			res = uint64(int64(signExtend(b, w))>>n) & w.Mask()
		}
	case isa.OpBZHI:
		c, err := s.readOp(&in.Ops[2], w)
		if err != nil {
			return err
		}
		idx := c & 0xff
		res = b
		sat := idx >= nbits
		if !sat {
			res = b & (1<<idx - 1)
		}
		s.setBool(isa.CF, sat)
		s.setZSP(res, w)
		s.Flags &^= isa.OF
	}
	s.WriteGPR(in.Ops[0].Reg, w, res)
	return nil
}

// execPS applies packed-single (4 x float32) arithmetic.
func (s *State) execPS(in *isa.Inst, v *isa.Variant) *CrashError {
	src, err := s.readX(&in.Ops[1], isa.W128)
	if err != nil {
		return err
	}
	x := in.Ops[0].X
	for lane := 0; lane < 2; lane++ {
		for half := uint(0); half < 2; half++ {
			sh := 32 * half
			a := math.Float32frombits(uint32(s.XMM[x][lane] >> sh))
			b := math.Float32frombits(uint32(src[lane] >> sh))
			var r float32
			switch v.Op {
			case isa.OpADDPS:
				r = a + b
			case isa.OpSUBPS:
				r = a - b
			case isa.OpMULPS:
				r = a * b
			case isa.OpDIVPS:
				r = a / b
			case isa.OpMINPS:
				r = b
				if a < b {
					r = a
				}
			case isa.OpMAXPS:
				r = b
				if a > b {
					r = a
				}
			}
			s.XMM[x][lane] = s.XMM[x][lane]&^(uint64(0xffffffff)<<sh) | uint64(math.Float32bits(r))<<sh
		}
	}
	return nil
}
