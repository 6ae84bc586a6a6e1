package isa

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWidthMask(t *testing.T) {
	cases := []struct {
		w    Width
		want uint64
	}{
		{W8, 0xff},
		{W16, 0xffff},
		{W32, 0xffffffff},
		{W64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := c.w.Mask(); got != c.want {
			t.Errorf("Mask(%v) = %#x, want %#x", c.w, got, c.want)
		}
	}
}

func TestWidthSignBit(t *testing.T) {
	if W8.SignBit() != 0x80 {
		t.Errorf("W8 sign bit = %#x", W8.SignBit())
	}
	if W64.SignBit() != 1<<63 {
		t.Errorf("W64 sign bit = %#x", W64.SignBit())
	}
}

func TestCondEvalPairs(t *testing.T) {
	// Every even/odd condition pair must be complementary.
	for c := Cond(0); c < NumCond; c += 2 {
		for f := Flags(0); f <= AllFlags; f++ {
			if c.Eval(f) == (c + 1).Eval(f) {
				t.Fatalf("cond %v and %v agree on flags %v", c, c+1, f)
			}
		}
	}
}

func TestCondReadsCoverEval(t *testing.T) {
	// Eval must only depend on the flags that Reads reports.
	for c := Cond(0); c < NumCond; c++ {
		reads := c.Reads()
		for f := Flags(0); f <= AllFlags; f++ {
			for bit := Flags(1); bit <= OF; bit <<= 1 {
				if reads&bit != 0 {
					continue
				}
				if c.Eval(f) != c.Eval(f^bit) {
					t.Fatalf("cond %v depends on unreported flag %v", c, bit)
				}
			}
		}
	}
}

func TestTableSize(t *testing.T) {
	n := NumVariants()
	if n < 600 {
		t.Fatalf("variant table has %d entries, want >= 600 (paper-scale ISA)", n)
	}
	t.Logf("variant table: %d variants, %d opcode slots assigned", n, NumOpcodeSlots())
}

func TestTableInvariantZeroIsInvalid(t *testing.T) {
	if Lookup(0).Op != OpINVALID {
		t.Fatal("variant 0 must be the invalid instruction")
	}
}

func TestTableOperandSpecsWellFormed(t *testing.T) {
	for i := 1; i < NumVariants(); i++ {
		v := Lookup(VariantID(i))
		if len(v.Ops) > MaxOperands {
			t.Fatalf("%s: too many operands", v)
		}
		for _, s := range v.Ops {
			if s.Kind == KNone {
				t.Fatalf("%s: KNone operand in spec", v)
			}
			if s.Acc == 0 {
				t.Fatalf("%s: operand with no access mode", v)
			}
			if s.Kind == KImm && s.Acc != AccR {
				t.Fatalf("%s: writable immediate", v)
			}
		}
		if v.Unit == UNone && !v.Privileged {
			t.Fatalf("%s: no functional unit", v)
		}
		if v.Latency <= 0 {
			t.Fatalf("%s: nonpositive latency", v)
		}
	}
}

func TestTableMemoryOperandLimit(t *testing.T) {
	// Like x86, at most one explicit memory operand per instruction.
	for i := 1; i < NumVariants(); i++ {
		v := Lookup(VariantID(i))
		n := 0
		for _, s := range v.Ops {
			if s.Kind == KMem {
				n++
			}
		}
		if n > 1 {
			t.Fatalf("%s: %d memory operands", v, n)
		}
	}
}

func TestTableBranchesAreBranchUnit(t *testing.T) {
	for i := 1; i < NumVariants(); i++ {
		v := Lookup(VariantID(i))
		if v.IsBranch != (v.Unit == UBranch) {
			t.Fatalf("%s: IsBranch=%v but unit=%v", v, v.IsBranch, v.Unit)
		}
	}
}

func TestDeterministicExcludesMarked(t *testing.T) {
	for _, id := range Deterministic() {
		v := Lookup(id)
		if v.NonDeterministic || v.Privileged {
			t.Fatalf("%s leaked into Deterministic()", v)
		}
	}
	// And the full set minus exclusions equals the deterministic set.
	n := 0
	for i := 1; i < NumVariants(); i++ {
		if Lookup(VariantID(i)).Deterministic() {
			n++
		}
	}
	if n != len(Deterministic()) {
		t.Fatalf("Deterministic() has %d entries, want %d", len(Deterministic()), n)
	}
}

func TestImplicitOperandsOnWideMul(t *testing.T) {
	// Paper §V-B: MUL variants implicitly clobber RAX (and RDX); the
	// generator must be able to see this to avoid corrupting base
	// registers.
	for _, op := range []Op{OpMUL, OpIMUL, OpDIV, OpIDIV} {
		for _, id := range ByOp(op) {
			v := Lookup(id)
			foundRAX := false
			for _, r := range v.ImplicitOut {
				if r == RAX {
					foundRAX = true
				}
			}
			if !foundRAX {
				t.Fatalf("%s: missing implicit RAX output", v)
			}
		}
	}
}

func TestRotateThroughCarryReadsCF(t *testing.T) {
	for _, op := range []Op{OpRCL, OpRCR, OpADC, OpSBB} {
		for _, id := range ByOp(op) {
			if v := Lookup(id); v.FlagsRead&CF == 0 {
				t.Fatalf("%s: must read CF", v)
			}
		}
	}
}

func randomInst(rng *rand.Rand) Inst {
	det := Deterministic()
	v := Lookup(det[rng.IntN(len(det))])
	in := Inst{V: v.ID, NOps: uint8(len(v.Ops))}
	for i, s := range v.Ops {
		switch s.Kind {
		case KReg:
			in.Ops[i] = RegOp(Reg(rng.IntN(NumGPR)))
		case KXmm:
			in.Ops[i] = XmmOp(XReg(rng.IntN(NumXMM)))
		case KImm:
			w := s.Width
			if w > W64 {
				w = W64
			}
			// Value representable at the encoded width.
			shift := 64 - 8*uint(w)
			in.Ops[i] = ImmOp(int64(rng.Uint64()<<shift) >> shift)
		case KMem:
			m := MemRef{Base: Reg(rng.IntN(NumGPR)), Scale: 1, Disp: int32(rng.Int32())}
			if rng.IntN(2) == 0 {
				m.HasIndex = true
				m.Index = Reg(rng.IntN(NumGPR))
				m.Scale = 1 << rng.IntN(4)
			}
			in.Ops[i] = Operand{Kind: KMem, Mem: m}
		}
	}
	return in
}

func instEqual(a, b Inst) bool {
	if a.V != b.V || a.NOps != b.NOps {
		return false
	}
	for i := 0; i < int(a.NOps); i++ {
		if a.Ops[i] != b.Ops[i] {
			return false
		}
	}
	return true
}

// Property: Decode(Encode(x)) == x for every encodable instruction.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20000; trial++ {
		in := randomInst(rng)
		enc := Encode(nil, &in)
		if len(enc) != EncodedLen(&in) {
			t.Fatalf("%v: EncodedLen=%d, got %d bytes", in, EncodedLen(&in), len(enc))
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: decode error %v (bytes %x)", in, err, enc)
		}
		if n != len(enc) {
			t.Fatalf("%v: decode consumed %d of %d bytes", in, n, len(enc))
		}
		if !instEqual(got, in) {
			t.Fatalf("round trip: encoded %v, decoded %v", in, got)
		}
	}
}

// Property: Decode never panics and never reads past the buffer,
// whatever the input bytes.
func TestDecodeArbitraryBytesSafe(t *testing.T) {
	f := func(buf []byte) bool {
		in, n, err := Decode(buf)
		if err == nil {
			// Consumed bytes must re-encode to the same prefix.
			re := Encode(nil, &in)
			if n != len(re) {
				return false
			}
		}
		return n <= len(buf) || (err == ErrTruncated || err == ErrInvalidOpcode)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInvalidOpcodeByte(t *testing.T) {
	// Byte 0x00 and all unassigned slots must decode as invalid.
	_, _, err := Decode([]byte{0x00, 0x00, 0x00, 0x00})
	if err != ErrInvalidOpcode {
		t.Fatalf("opcode 0: err = %v, want ErrInvalidOpcode", err)
	}
	for b := NumOpcodeSlots() + 1; b < 256; b++ {
		_, _, err := Decode([]byte{byte(b), 0, 0, 0, 0, 0, 0, 0, 0, 0})
		if err != ErrInvalidOpcode {
			t.Fatalf("opcode %#x: err = %v, want ErrInvalidOpcode", b, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 2000; trial++ {
		in := randomInst(rng)
		enc := Encode(nil, &in)
		if len(enc) < 3 {
			continue
		}
		_, _, err := Decode(enc[:len(enc)-1])
		if err != ErrTruncated {
			t.Fatalf("%v truncated: err=%v, want ErrTruncated", in, err)
		}
	}
}

func TestDecodeAllSequence(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var insts []Inst
	var buf []byte
	for i := 0; i < 100; i++ {
		in := randomInst(rng)
		insts = append(insts, in)
		buf = Encode(buf, &in)
	}
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(insts) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(insts))
	}
	for i := range insts {
		if !instEqual(got[i], insts[i]) {
			t.Fatalf("inst %d: got %v, want %v", i, got[i], insts[i])
		}
	}
}

func TestInstString(t *testing.T) {
	adds := ByOp(OpADD)
	if len(adds) == 0 {
		t.Fatal("no ADD variants")
	}
	in := MakeInst(adds[0], RegOp(RAX), RegOp(RBX))
	if s := in.String(); s == "" {
		t.Fatal("empty instruction string")
	}
}

func TestRandomByteValidityFraction(t *testing.T) {
	// Sanity-check the CISC-density property the SiliFuzz baseline relies
	// on: a substantial fraction of random byte strings must fail to
	// decode, and a substantial fraction must succeed.
	rng := rand.New(rand.NewPCG(7, 8))
	ok, bad := 0, 0
	for trial := 0; trial < 5000; trial++ {
		buf := make([]byte, 16)
		for i := range buf {
			buf[i] = byte(rng.Uint32())
		}
		if _, _, err := Decode(buf); err != nil {
			bad++
		} else {
			ok++
		}
	}
	frac := float64(ok) / float64(ok+bad)
	if frac < 0.10 || frac > 0.80 {
		t.Fatalf("random-byte decode validity = %.2f, want within [0.10, 0.80]", frac)
	}
	t.Logf("random-byte single-instruction decode validity: %.2f", frac)
}
