package arch

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"

	"harpocrates/internal/isa"
)

// findVariant3 locates an extended variant by op, width and kinds.
func findVariant3(t testing.TB, op isa.Op, w isa.Width, kinds ...isa.OpKind) isa.VariantID {
	t.Helper()
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
	t.Fatalf("no extended variant op=%d w=%v", op, w)
	return 0
}

func TestExtendedTableSize(t *testing.T) {
	if n := isa.NumVariants(); n < 780 {
		t.Fatalf("variant table has %d entries, want >= 780 after the extension", n)
	}
	t.Logf("extended variant table: %d variants, %d opcode slots", isa.NumVariants(), isa.NumOpcodeSlots())
}

func TestShldShrd(t *testing.T) {
	s := testState(t)
	shld := findVariant3(t, isa.OpSHLD, isa.W64, isa.KReg, isa.KReg, isa.KImm)
	shrd := findVariant3(t, isa.OpSHRD, isa.W64, isa.KReg, isa.KReg, isa.KImm)
	rng := rand.New(rand.NewPCG(61, 62))
	for i := 0; i < 3000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		n := int64(1 + rng.IntN(62))
		s.GPR[isa.RAX], s.GPR[isa.RBX] = a, b
		step1(t, s, isa.MakeInst(shld, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX), isa.ImmOp(n)))
		if want := a<<uint(n) | b>>uint(64-n); s.GPR[isa.RAX] != want {
			t.Fatalf("shld(%#x,%#x,%d) = %#x, want %#x", a, b, n, s.GPR[isa.RAX], want)
		}
		s.GPR[isa.RAX], s.GPR[isa.RBX] = a, b
		step1(t, s, isa.MakeInst(shrd, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX), isa.ImmOp(n)))
		if want := a>>uint(n) | b<<uint(64-n); s.GPR[isa.RAX] != want {
			t.Fatalf("shrd(%#x,%#x,%d) = %#x, want %#x", a, b, n, s.GPR[isa.RAX], want)
		}
	}
}

func TestBMIOps(t *testing.T) {
	s := testState(t)
	rng := rand.New(rand.NewPCG(63, 64))
	andn := findVariant3(t, isa.OpANDN, isa.W64, isa.KReg, isa.KReg, isa.KReg)
	blsi := findVariant3(t, isa.OpBLSI, isa.W64, isa.KReg, isa.KReg)
	blsr := findVariant3(t, isa.OpBLSR, isa.W64, isa.KReg, isa.KReg)
	blsmsk := findVariant3(t, isa.OpBLSMSK, isa.W64, isa.KReg, isa.KReg)
	bzhi := findVariant3(t, isa.OpBZHI, isa.W64, isa.KReg, isa.KReg, isa.KReg)
	shlx := findVariant3(t, isa.OpSHLX, isa.W64, isa.KReg, isa.KReg, isa.KReg)
	for i := 0; i < 3000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		s.GPR[isa.RBX], s.GPR[isa.RCX] = a, b
		step1(t, s, isa.MakeInst(andn, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX), isa.RegOp(isa.RCX)))
		if s.GPR[isa.RAX] != ^a&b {
			t.Fatalf("andn(%#x,%#x) = %#x", a, b, s.GPR[isa.RAX])
		}
		s.GPR[isa.RBX] = a
		step1(t, s, isa.MakeInst(blsi, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
		if s.GPR[isa.RAX] != a&-a {
			t.Fatalf("blsi(%#x) = %#x", a, s.GPR[isa.RAX])
		}
		step1(t, s, isa.MakeInst(blsr, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
		if s.GPR[isa.RAX] != a&(a-1) {
			t.Fatalf("blsr(%#x) = %#x", a, s.GPR[isa.RAX])
		}
		step1(t, s, isa.MakeInst(blsmsk, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
		if s.GPR[isa.RAX] != a^(a-1) {
			t.Fatalf("blsmsk(%#x) = %#x", a, s.GPR[isa.RAX])
		}
		idx := b & 0x7f
		s.GPR[isa.RCX] = idx
		step1(t, s, isa.MakeInst(bzhi, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX), isa.RegOp(isa.RCX)))
		want := a
		if idx < 64 {
			want = a & (1<<idx - 1)
		}
		if s.GPR[isa.RAX] != want {
			t.Fatalf("bzhi(%#x,%d) = %#x, want %#x", a, idx, s.GPR[isa.RAX], want)
		}
		n := b % 64
		s.GPR[isa.RCX] = n
		step1(t, s, isa.MakeInst(shlx, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX), isa.RegOp(isa.RCX)))
		if s.GPR[isa.RAX] != a<<n {
			t.Fatalf("shlx(%#x,%d) = %#x", a, n, s.GPR[isa.RAX])
		}
	}
}

func TestBextr(t *testing.T) {
	s := testState(t)
	bextr := findVariant3(t, isa.OpBEXTR, isa.W64, isa.KReg, isa.KReg, isa.KReg)
	s.GPR[isa.RBX] = 0xdeadbeefcafebabe
	s.GPR[isa.RCX] = 8 | 16<<8 // start 8, length 16
	step1(t, s, isa.MakeInst(bextr, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX), isa.RegOp(isa.RCX)))
	if s.GPR[isa.RAX] != 0xfeba {
		t.Fatalf("bextr = %#x, want 0xfeba", s.GPR[isa.RAX])
	}
}

func TestXadd(t *testing.T) {
	s := testState(t)
	xadd := findVariant3(t, isa.OpXADD, isa.W64, isa.KReg, isa.KReg)
	s.GPR[isa.RAX], s.GPR[isa.RBX] = 10, 32
	step1(t, s, isa.MakeInst(xadd, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 42 || s.GPR[isa.RBX] != 10 {
		t.Fatalf("xadd: rax=%d rbx=%d, want 42, 10", s.GPR[isa.RAX], s.GPR[isa.RBX])
	}
}

func TestCmpxchg(t *testing.T) {
	s := testState(t)
	cx := findVariant3(t, isa.OpCMPXCHG, isa.W64, isa.KReg, isa.KReg)
	// Equal: dst <- src, ZF set.
	s.GPR[isa.RAX], s.GPR[isa.RBX], s.GPR[isa.RCX] = 7, 7, 99
	step1(t, s, isa.MakeInst(cx, isa.RegOp(isa.RBX), isa.RegOp(isa.RCX)))
	if s.GPR[isa.RBX] != 99 || s.Flags&isa.ZF == 0 {
		t.Fatalf("cmpxchg equal: rbx=%d flags=%v", s.GPR[isa.RBX], s.Flags)
	}
	// Not equal: RAX <- dst, ZF clear.
	s.GPR[isa.RAX], s.GPR[isa.RBX], s.GPR[isa.RCX] = 1, 7, 99
	step1(t, s, isa.MakeInst(cx, isa.RegOp(isa.RBX), isa.RegOp(isa.RCX)))
	if s.GPR[isa.RAX] != 7 || s.GPR[isa.RBX] != 7 || s.Flags&isa.ZF != 0 {
		t.Fatalf("cmpxchg unequal: rax=%d rbx=%d", s.GPR[isa.RAX], s.GPR[isa.RBX])
	}
}

func TestMovbe(t *testing.T) {
	s := testState(t)
	ld := findVariant3(t, isa.OpMOVBE, isa.W64, isa.KReg, isa.KMem)
	st := findVariant3(t, isa.OpMOVBE, isa.W64, isa.KMem, isa.KReg)
	s.GPR[isa.RBX] = 0x0102030405060708
	step1(t, s, isa.MakeInst(st, isa.MemOp(isa.RSI, 0), isa.RegOp(isa.RBX)))
	v, _ := s.Mem.Read(0x10000, 8)
	if v != 0x0807060504030201 {
		t.Fatalf("movbe store: %#x", v)
	}
	step1(t, s, isa.MakeInst(ld, isa.RegOp(isa.RCX), isa.MemOp(isa.RSI, 0)))
	if s.GPR[isa.RCX] != 0x0102030405060708 {
		t.Fatalf("movbe load: %#x", s.GPR[isa.RCX])
	}
}

func TestAdcxAdoxIndependentChains(t *testing.T) {
	s := testState(t)
	adcx := findVariant3(t, isa.OpADCX, isa.W64, isa.KReg, isa.KReg)
	adox := findVariant3(t, isa.OpADOX, isa.W64, isa.KReg, isa.KReg)
	s.GPR[isa.RAX] = ^uint64(0)
	s.GPR[isa.RBX] = 1
	s.Flags = isa.OF // OF must be untouched by adcx
	step1(t, s, isa.MakeInst(adcx, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 0 || s.Flags&isa.CF == 0 || s.Flags&isa.OF == 0 {
		t.Fatalf("adcx: rax=%d flags=%v", s.GPR[isa.RAX], s.Flags)
	}
	// adox consumes OF as its carry.
	s.GPR[isa.RAX] = 5
	s.GPR[isa.RBX] = 10
	step1(t, s, isa.MakeInst(adox, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 16 { // 5 + 10 + OF(1)
		t.Fatalf("adox: rax=%d, want 16", s.GPR[isa.RAX])
	}
	if s.Flags&isa.CF == 0 {
		t.Fatal("adox must not disturb CF")
	}
}

func TestSignExtensions(t *testing.T) {
	s := testState(t)
	cdqe := findVariant3(t, isa.OpCSEX, isa.W64)
	cqo := findVariant3(t, isa.OpCSPLIT, isa.W64)
	s.GPR[isa.RAX] = 0x80000000 // negative as int32
	step1(t, s, isa.MakeInst(cdqe))
	if s.GPR[isa.RAX] != 0xffffffff80000000 {
		t.Fatalf("cdqe: %#x", s.GPR[isa.RAX])
	}
	step1(t, s, isa.MakeInst(cqo))
	if s.GPR[isa.RDX] != ^uint64(0) {
		t.Fatalf("cqo: rdx=%#x", s.GPR[isa.RDX])
	}
}

func TestLahfSahfRoundTrip(t *testing.T) {
	s := testState(t)
	lahf := findVariant3(t, isa.OpLAHF, isa.W8)
	sahf := findVariant3(t, isa.OpSAHF, isa.W8)
	s.Flags = isa.CF | isa.ZF
	step1(t, s, isa.MakeInst(lahf))
	s.Flags = isa.SF | isa.OF
	step1(t, s, isa.MakeInst(sahf))
	// CF and ZF restored from AH; OF preserved; SF cleared by AH.
	if s.Flags&isa.CF == 0 || s.Flags&isa.ZF == 0 || s.Flags&isa.OF == 0 || s.Flags&isa.SF != 0 {
		t.Fatalf("sahf restored flags = %v", s.Flags)
	}
}

func TestCarryFlagOps(t *testing.T) {
	s := testState(t)
	clc := findVariant3(t, isa.OpCLC, isa.W8)
	stc := findVariant3(t, isa.OpSTC, isa.W8)
	cmc := findVariant3(t, isa.OpCMC, isa.W8)
	step1(t, s, isa.MakeInst(stc))
	if s.Flags&isa.CF == 0 {
		t.Fatal("stc")
	}
	step1(t, s, isa.MakeInst(cmc))
	if s.Flags&isa.CF != 0 {
		t.Fatal("cmc")
	}
	step1(t, s, isa.MakeInst(cmc))
	step1(t, s, isa.MakeInst(clc))
	if s.Flags&isa.CF != 0 {
		t.Fatal("clc")
	}
}

func TestPackedSingle(t *testing.T) {
	s := testState(t)
	addps := findVariant3(t, isa.OpADDPS, isa.W128, isa.KXmm, isa.KXmm)
	pack := func(a, b, c, d float32) [2]uint64 {
		return [2]uint64{
			uint64(math.Float32bits(a)) | uint64(math.Float32bits(b))<<32,
			uint64(math.Float32bits(c)) | uint64(math.Float32bits(d))<<32,
		}
	}
	s.XMM[0] = pack(1, 2, 3, 4)
	s.XMM[1] = pack(10, 20, 30, 40)
	step1(t, s, isa.MakeInst(addps, isa.XmmOp(0), isa.XmmOp(1)))
	want := pack(11, 22, 33, 44)
	if s.XMM[0] != want {
		t.Fatalf("addps = %#x, want %#x", s.XMM[0], want)
	}
}

func TestVectorShifts(t *testing.T) {
	s := testState(t)
	psllq := findVariant3(t, isa.OpPSLLQ, isa.W128, isa.KXmm, isa.KImm)
	psrld := findVariant3(t, isa.OpPSRLD, isa.W128, isa.KXmm, isa.KImm)
	s.XMM[2] = [2]uint64{0x1, 0x8000000000000000}
	step1(t, s, isa.MakeInst(psllq, isa.XmmOp(2), isa.ImmOp(4)))
	if s.XMM[2] != [2]uint64{0x10, 0} {
		t.Fatalf("psllq: %#x", s.XMM[2])
	}
	s.XMM[2] = [2]uint64{0x80000000_40000000, 0x10000000_20000000}
	step1(t, s, isa.MakeInst(psrld, isa.XmmOp(2), isa.ImmOp(4)))
	if s.XMM[2] != [2]uint64{0x08000000_04000000, 0x01000000_02000000} {
		t.Fatalf("psrld: %#x", s.XMM[2])
	}
}

func TestPshufd(t *testing.T) {
	s := testState(t)
	pshufd := findVariant3(t, isa.OpPSHUFD, isa.W128, isa.KXmm, isa.KXmm, isa.KImm)
	s.XMM[1] = [2]uint64{0x11111111_00000000, 0x33333333_22222222}
	// imm 0b00_01_10_11: dword0<-3, dword1<-2, dword2<-1, dword3<-0
	step1(t, s, isa.MakeInst(pshufd, isa.XmmOp(0), isa.XmmOp(1), isa.ImmOp(0b00011011)))
	if s.XMM[0] != [2]uint64{0x22222222_33333333, 0x00000000_11111111} {
		t.Fatalf("pshufd: %#x", s.XMM[0])
	}
}

func TestPcmpAndMask(t *testing.T) {
	s := testState(t)
	pcmpeqd := findVariant3(t, isa.OpPCMPEQD, isa.W128, isa.KXmm, isa.KXmm)
	movmskps := findVariant3(t, isa.OpMOVMSKPS, isa.W64, isa.KReg, isa.KXmm)
	s.XMM[0] = [2]uint64{0x00000005_00000001, 0x00000009_00000003}
	s.XMM[1] = [2]uint64{0x00000005_00000002, 0x00000008_00000003}
	step1(t, s, isa.MakeInst(pcmpeqd, isa.XmmOp(0), isa.XmmOp(1)))
	if s.XMM[0] != [2]uint64{0xffffffff_00000000, 0x00000000_ffffffff} {
		t.Fatalf("pcmpeqd: %#x", s.XMM[0])
	}
	step1(t, s, isa.MakeInst(movmskps, isa.RegOp(isa.RAX), isa.XmmOp(0)))
	if s.GPR[isa.RAX] != 0b0110 {
		t.Fatalf("movmskps: %#b", s.GPR[isa.RAX])
	}
}

func TestPmuludq(t *testing.T) {
	s := testState(t)
	pm := findVariant3(t, isa.OpPMULUDQ, isa.W128, isa.KXmm, isa.KXmm)
	s.XMM[0] = [2]uint64{0xffffffff, 3}
	s.XMM[1] = [2]uint64{0xffffffff, 5}
	step1(t, s, isa.MakeInst(pm, isa.XmmOp(0), isa.XmmOp(1)))
	hi, lo := bits.Mul64(0xffffffff, 0xffffffff)
	_ = hi
	if s.XMM[0] != [2]uint64{lo, 15} {
		t.Fatalf("pmuludq: %#x", s.XMM[0])
	}
}

func TestCvtSingleRoundTrip(t *testing.T) {
	s := testState(t)
	si2ss := findVariant3(t, isa.OpCVTSI2SS, isa.W32, isa.KXmm, isa.KReg)
	// W32-dst variant with r32 source.
	var id isa.VariantID
	for _, vid := range isa.ByOp(isa.OpCVTSI2SS) {
		if isa.Lookup(vid).Ops[1].Width == isa.W64 {
			id = vid
		}
	}
	_ = si2ss
	ss2si := findVariant3(t, isa.OpCVTSS2SI, isa.W64, isa.KReg, isa.KXmm)
	s.GPR[isa.RBX] = uint64(12345)
	step1(t, s, isa.MakeInst(id, isa.XmmOp(0), isa.RegOp(isa.RBX)))
	step1(t, s, isa.MakeInst(ss2si, isa.RegOp(isa.RCX), isa.XmmOp(0)))
	if s.GPR[isa.RCX] != 12345 {
		t.Fatalf("cvt ss round trip: %d", s.GPR[isa.RCX])
	}
}

func TestMovupdUnaligned(t *testing.T) {
	s := testState(t)
	ld := findVariant3(t, isa.OpMOVUPD, isa.W128, isa.KXmm, isa.KMem)
	st := findVariant3(t, isa.OpMOVUPD, isa.W128, isa.KMem, isa.KXmm)
	s.XMM[3] = [2]uint64{0x1111, 0x2222}
	// Deliberately misaligned address: must NOT crash (unlike movapd).
	step1(t, s, isa.MakeInst(st, isa.MemOp(isa.RSI, 4), isa.XmmOp(3)))
	step1(t, s, isa.MakeInst(ld, isa.XmmOp(4), isa.MemOp(isa.RSI, 4)))
	if s.XMM[4] != s.XMM[3] {
		t.Fatalf("movupd round trip: %#x", s.XMM[4])
	}
}

func TestExtendedOpsInDeterministicPool(t *testing.T) {
	// The new families must be available to the generator.
	found := 0
	for _, id := range isa.Deterministic() {
		op := isa.Lookup(id).Op
		if op >= isa.NumOps && op < isa.NumOpsExt {
			found++
		}
	}
	if found < 100 {
		t.Fatalf("only %d extended variants in the deterministic pool", found)
	}
}
