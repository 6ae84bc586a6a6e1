package arch

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"

	"harpocrates/internal/isa"
)

// testMem builds a memory with a 4 KB writable data region at 0x10000 and
// a 4 KB stack at 0x20000.
func testMem(t testing.TB) *Memory {
	t.Helper()
	m := NewMemory()
	if err := m.AddRegion(Region{Name: "data", Base: 0x10000, Size: 4096, Writable: true}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRegion(Region{Name: "stack", Base: 0x20000, Size: 4096, Writable: true}); err != nil {
		t.Fatal(err)
	}
	return m
}

func testState(t testing.TB) *State {
	s := NewState(testMem(t))
	s.GPR[isa.RSP] = 0x20000 + 4096
	s.GPR[isa.RSI] = 0x10000
	return s
}

// findVariant locates a variant by family and operand kinds/width.
func findVariant(t testing.TB, op isa.Op, w isa.Width, kinds ...isa.OpKind) isa.VariantID {
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
	t.Fatalf("no variant for op=%d w=%v kinds=%v", op, w, kinds)
	return 0
}

// findVariantCond is findVariant filtered by condition code.
func findVariantCond(t testing.TB, op isa.Op, c isa.Cond, kinds ...isa.OpKind) isa.VariantID {
	t.Helper()
	for _, id := range isa.ByOp(op) {
		v := isa.Lookup(id)
		if v.Cond != c || len(v.Ops) != len(kinds) {
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
	t.Fatalf("no cond variant for op=%d cond=%v", op, c)
	return 0
}

func step1(t *testing.T, s *State, in isa.Inst) {
	t.Helper()
	prog := []isa.Inst{in}
	s.PC = 0
	if err := s.Step(prog); err != nil {
		t.Fatalf("%v: %v", in, err)
	}
}

func TestAddFlags(t *testing.T) {
	s := testState(t)
	addRR := findVariant(t, isa.OpADD, isa.W8, isa.KReg, isa.KReg)
	cases := []struct {
		a, b  uint64
		res   uint64
		flags isa.Flags
	}{
		{0x80, 0x80, 0x00, isa.CF | isa.OF | isa.ZF | isa.PF},
		{0x01, 0x7f, 0x80, isa.OF | isa.SF},
		{0xff, 0x01, 0x00, isa.CF | isa.ZF | isa.PF},
		{0x01, 0x02, 0x03, isa.PF},
		{0x00, 0x00, 0x00, isa.ZF | isa.PF},
	}
	for _, c := range cases {
		s.GPR[isa.RAX] = c.a
		s.GPR[isa.RBX] = c.b
		s.Flags = 0
		step1(t, s, isa.MakeInst(addRR, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
		if got := s.GPR[isa.RAX] & 0xff; got != c.res {
			t.Errorf("add8 %#x+%#x = %#x, want %#x", c.a, c.b, got, c.res)
		}
		if s.Flags != c.flags {
			t.Errorf("add8 %#x+%#x flags = %v, want %v", c.a, c.b, s.Flags, c.flags)
		}
	}
}

func TestSubFlags(t *testing.T) {
	s := testState(t)
	subRR := findVariant(t, isa.OpSUB, isa.W8, isa.KReg, isa.KReg)
	cases := []struct {
		a, b  uint64
		res   uint64
		flags isa.Flags
	}{
		{0x00, 0x01, 0xff, isa.CF | isa.SF | isa.PF},
		{0x80, 0x01, 0x7f, isa.OF},
		{0x05, 0x05, 0x00, isa.ZF | isa.PF},
		{0x07, 0x03, 0x04, 0},
	}
	for _, c := range cases {
		s.GPR[isa.RAX] = c.a
		s.GPR[isa.RBX] = c.b
		s.Flags = 0
		step1(t, s, isa.MakeInst(subRR, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
		if got := s.GPR[isa.RAX] & 0xff; got != c.res {
			t.Errorf("sub8 %#x-%#x = %#x, want %#x", c.a, c.b, got, c.res)
		}
		if s.Flags != c.flags {
			t.Errorf("sub8 %#x-%#x flags = %v, want %v", c.a, c.b, s.Flags, c.flags)
		}
	}
}

// Property: 64-bit ADD matches math/bits reference for value, CF and OF.
func TestAddCore64Property(t *testing.T) {
	s := testState(t)
	rng := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 100000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		cin := rng.IntN(2) == 1
		var ci uint64
		if cin {
			ci = 1
		}
		wantSum, wantCarry := bits.Add64(a, b, ci)
		res, cf, of := s.addCore(a, b, cin, isa.W64)
		if res != wantSum || cf != (wantCarry == 1) {
			t.Fatalf("addCore(%#x,%#x,%v) = %#x,%v want %#x,%v", a, b, cin, res, cf, wantSum, wantCarry == 1)
		}
		wantOF := (int64(a) >= 0) == (int64(b) >= 0) && (int64(a) >= 0) != (int64(res) >= 0)
		// With carry-in, derive OF via signed 128-bit reference.
		sa, sb := int64(a), int64(b)
		wide := int64ToWide(sa) + int64ToWide(sb) + int64(ci)
		wantOF = wide != int64(res) && true
		_ = wantOF
		// Signed overflow iff the 65-bit signed sum is unrepresentable.
		sum := sa + sb + int64(ci)
		overflowed := ((sa > 0 && sb >= 0 || sa >= 0 && sb > 0) && sum <= 0 && (sa|sb) != 0 && !(sa == 0 && sb == 0)) ||
			(sa < 0 && sb < 0 && sum >= 0)
		// The branchy reference above is fragile; use the carry-based
		// identity instead: OF = carry-into-msb XOR carry-out-of-msb.
		ciBits := a ^ b ^ res
		coBits := (a & b) | ((a | b) & ciBits)
		refOF := ((ciBits^coBits)>>63)&1 == 1
		_ = overflowed
		if of != refOF {
			t.Fatalf("addCore OF mismatch for %#x+%#x+%v", a, b, cin)
		}
	}
}

func int64ToWide(v int64) int64 { return v }

// Property: subCore matches native subtraction with borrow.
func TestSubCoreProperty(t *testing.T) {
	s := testState(t)
	rng := rand.New(rand.NewPCG(13, 14))
	for i := 0; i < 100000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		bin := rng.IntN(2) == 1
		var bi uint64
		if bin {
			bi = 1
		}
		wantDiff, wantBorrow := bits.Sub64(a, b, bi)
		res, cf, _ := s.subCore(a, b, bin, isa.W64)
		if res != wantDiff || cf != (wantBorrow == 1) {
			t.Fatalf("subCore(%#x,%#x,%v) = %#x,cf=%v want %#x,%v", a, b, bin, res, cf, wantDiff, wantBorrow == 1)
		}
	}
}

func TestPartialWidthWrites(t *testing.T) {
	s := testState(t)
	s.GPR[isa.RAX] = 0xdeadbeefcafebabe
	mov8 := findVariant(t, isa.OpMOV, isa.W8, isa.KReg, isa.KImm)
	step1(t, s, isa.MakeInst(mov8, isa.RegOp(isa.RAX), isa.ImmOp(0x11)))
	if s.GPR[isa.RAX] != 0xdeadbeefcafeba11 {
		t.Errorf("8-bit write must merge: got %#x", s.GPR[isa.RAX])
	}
	mov32 := findVariant(t, isa.OpMOV, isa.W32, isa.KReg, isa.KImm)
	step1(t, s, isa.MakeInst(mov32, isa.RegOp(isa.RAX), isa.ImmOp(0x22)))
	if s.GPR[isa.RAX] != 0x22 {
		t.Errorf("32-bit write must zero-extend: got %#x", s.GPR[isa.RAX])
	}
}

func TestMulImplicitRegisters(t *testing.T) {
	s := testState(t)
	mul64 := findVariant(t, isa.OpMUL, isa.W64, isa.KReg)
	s.GPR[isa.RAX] = 1 << 63
	s.GPR[isa.RBX] = 4
	step1(t, s, isa.MakeInst(mul64, isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 0 || s.GPR[isa.RDX] != 2 {
		t.Errorf("mul: RDX:RAX = %#x:%#x, want 2:0", s.GPR[isa.RDX], s.GPR[isa.RAX])
	}
	if s.Flags&isa.CF == 0 || s.Flags&isa.OF == 0 {
		t.Error("mul with nonzero high half must set CF and OF")
	}
}

func TestIMulSigned(t *testing.T) {
	s := testState(t)
	imul := findVariant(t, isa.OpIMUL, isa.W64, isa.KReg)
	neg3 := uint64(3)
	s.GPR[isa.RAX] = -neg3
	s.GPR[isa.RBX] = 7
	step1(t, s, isa.MakeInst(imul, isa.RegOp(isa.RBX)))
	if int64(s.GPR[isa.RAX]) != -21 {
		t.Errorf("imul: RAX = %d, want -21", int64(s.GPR[isa.RAX]))
	}
	if s.GPR[isa.RDX] != ^uint64(0) {
		t.Errorf("imul: RDX = %#x, want all-ones (sign extension)", s.GPR[isa.RDX])
	}
	if s.Flags&isa.CF != 0 {
		t.Error("imul without overflow must clear CF")
	}
}

func TestDivQuotientRemainder(t *testing.T) {
	s := testState(t)
	div32 := findVariant(t, isa.OpDIV, isa.W32, isa.KReg)
	s.GPR[isa.RDX] = 0
	s.GPR[isa.RAX] = 100
	s.GPR[isa.RBX] = 7
	step1(t, s, isa.MakeInst(div32, isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 14 || s.GPR[isa.RDX] != 2 {
		t.Errorf("div: q=%d r=%d, want 14, 2", s.GPR[isa.RAX], s.GPR[isa.RDX])
	}
}

func TestDivByZeroCrashes(t *testing.T) {
	s := testState(t)
	div := findVariant(t, isa.OpDIV, isa.W64, isa.KReg)
	s.GPR[isa.RBX] = 0
	prog := []isa.Inst{isa.MakeInst(div, isa.RegOp(isa.RBX))}
	err := s.Step(prog)
	if err == nil || err.Kind != CrashDivide {
		t.Fatalf("div by zero: err = %v, want divide crash", err)
	}
}

func TestDivQuotientOverflowCrashes(t *testing.T) {
	s := testState(t)
	div := findVariant(t, isa.OpDIV, isa.W64, isa.KReg)
	s.GPR[isa.RDX] = 5 // dividend high >= divisor -> overflow
	s.GPR[isa.RAX] = 0
	s.GPR[isa.RBX] = 3
	prog := []isa.Inst{isa.MakeInst(div, isa.RegOp(isa.RBX))}
	err := s.Step(prog)
	if err == nil || err.Kind != CrashDivide {
		t.Fatalf("overflowing div: err = %v, want divide crash", err)
	}
}

func TestIDivSigned(t *testing.T) {
	s := testState(t)
	idiv32 := findVariant(t, isa.OpIDIV, isa.W32, isa.KReg)
	n100 := uint32(100)
	s.GPR[isa.RAX] = uint64(-n100)
	s.GPR[isa.RDX] = 0xffffffff // sign extension of -100
	s.GPR[isa.RBX] = 7
	step1(t, s, isa.MakeInst(idiv32, isa.RegOp(isa.RBX)))
	if int32(uint32(s.GPR[isa.RAX])) != -14 || int32(uint32(s.GPR[isa.RDX])) != -2 {
		t.Errorf("idiv: q=%d r=%d, want -14, -2", int32(uint32(s.GPR[isa.RAX])), int32(uint32(s.GPR[isa.RDX])))
	}
}

// TestRCRRotateEqualsWidth is the regression for the gem5 v22 RCR
// emulation bug the paper reports finding (§VI-D): rotate-through-carry
// by exactly the register width must rotate the carry bit through,
// not act as a no-op or crash.
func TestRCRRotateEqualsWidth(t *testing.T) {
	s := testState(t)
	rcr8 := findVariant(t, isa.OpRCR, isa.W8, isa.KReg, isa.KImm)
	s.GPR[isa.RAX] = 0b10110101
	s.Flags = isa.CF // carry set
	step1(t, s, isa.MakeInst(rcr8, isa.RegOp(isa.RAX), isa.ImmOp(8)))
	// 9-bit value CF:val = 1:10110101 rotated right 8 = the original
	// value's low 8 bits shifted... reference: rotate right by 8 of the
	// 9-bit quantity c b7..b0 gives b7..b1 b0->? Compute directly:
	// combined = (1<<8)|0b10110101 = 0x1B5. ror9(0x1B5, 8) =
	// (0x1B5 >> 8 | 0x1B5 << 1) & 0x1FF = 0x1 | 0x16A = 0x16B.
	// Result bits = 0x6B, new CF = bit8 = 1.
	if got := s.GPR[isa.RAX] & 0xff; got != 0x6b {
		t.Errorf("rcr8 by 8: result = %#x, want 0x6b", got)
	}
	if s.Flags&isa.CF == 0 {
		t.Error("rcr8 by 8: CF must be set")
	}
}

// Property: RCL then RCR by the same amount restores value and carry.
func TestRclRcrInverseProperty(t *testing.T) {
	s := testState(t)
	rng := rand.New(rand.NewPCG(15, 16))
	rcl := findVariant(t, isa.OpRCL, isa.W32, isa.KReg, isa.KImm)
	rcr := findVariant(t, isa.OpRCR, isa.W32, isa.KReg, isa.KImm)
	for i := 0; i < 5000; i++ {
		val := uint64(rng.Uint32())
		n := int64(rng.IntN(31)) // stays below the 31-count mask
		cf := rng.IntN(2) == 1
		s.GPR[isa.RAX] = val
		s.Flags = 0
		if cf {
			s.Flags = isa.CF
		}
		step1(t, s, isa.MakeInst(rcl, isa.RegOp(isa.RAX), isa.ImmOp(n)))
		step1(t, s, isa.MakeInst(rcr, isa.RegOp(isa.RAX), isa.ImmOp(n)))
		if s.GPR[isa.RAX]&0xffffffff != val || (s.Flags&isa.CF != 0) != cf {
			t.Fatalf("rcl/rcr(%#x, %d, cf=%v) not inverse: got %#x cf=%v",
				val, n, cf, s.GPR[isa.RAX], s.Flags&isa.CF != 0)
		}
	}
}

// Property: ROL by n then ROR by n is the identity on the value.
func TestRolRorInverseProperty(t *testing.T) {
	s := testState(t)
	rng := rand.New(rand.NewPCG(17, 18))
	rol := findVariant(t, isa.OpROL, isa.W64, isa.KReg, isa.KImm)
	ror := findVariant(t, isa.OpROR, isa.W64, isa.KReg, isa.KImm)
	for i := 0; i < 5000; i++ {
		val := rng.Uint64()
		n := int64(rng.IntN(64))
		s.GPR[isa.RAX] = val
		step1(t, s, isa.MakeInst(rol, isa.RegOp(isa.RAX), isa.ImmOp(n)))
		step1(t, s, isa.MakeInst(ror, isa.RegOp(isa.RAX), isa.ImmOp(n)))
		if s.GPR[isa.RAX] != val {
			t.Fatalf("rol/ror(%#x, %d) not inverse: got %#x", val, n, s.GPR[isa.RAX])
		}
	}
}

func TestShiftMatchesGo(t *testing.T) {
	s := testState(t)
	rng := rand.New(rand.NewPCG(19, 20))
	shl := findVariant(t, isa.OpSHL, isa.W64, isa.KReg, isa.KImm)
	shr := findVariant(t, isa.OpSHR, isa.W64, isa.KReg, isa.KImm)
	sar := findVariant(t, isa.OpSAR, isa.W64, isa.KReg, isa.KImm)
	for i := 0; i < 5000; i++ {
		val := rng.Uint64()
		n := int64(rng.IntN(63) + 1)
		s.GPR[isa.RAX] = val
		step1(t, s, isa.MakeInst(shl, isa.RegOp(isa.RAX), isa.ImmOp(n)))
		if s.GPR[isa.RAX] != val<<uint(n) {
			t.Fatalf("shl(%#x,%d) = %#x", val, n, s.GPR[isa.RAX])
		}
		s.GPR[isa.RAX] = val
		step1(t, s, isa.MakeInst(shr, isa.RegOp(isa.RAX), isa.ImmOp(n)))
		if s.GPR[isa.RAX] != val>>uint(n) {
			t.Fatalf("shr(%#x,%d) = %#x", val, n, s.GPR[isa.RAX])
		}
		s.GPR[isa.RAX] = val
		step1(t, s, isa.MakeInst(sar, isa.RegOp(isa.RAX), isa.ImmOp(n)))
		if s.GPR[isa.RAX] != uint64(int64(val)>>uint(n)) {
			t.Fatalf("sar(%#x,%d) = %#x", val, n, s.GPR[isa.RAX])
		}
	}
}

func TestMemoryLoadStore(t *testing.T) {
	s := testState(t)
	mov := findVariant(t, isa.OpMOV, isa.W64, isa.KMem, isa.KReg)
	movLoad := findVariant(t, isa.OpMOV, isa.W64, isa.KReg, isa.KMem)
	s.GPR[isa.RBX] = 0x1122334455667788
	step1(t, s, isa.MakeInst(mov, isa.MemOp(isa.RSI, 16), isa.RegOp(isa.RBX)))
	step1(t, s, isa.MakeInst(movLoad, isa.RegOp(isa.RCX), isa.MemOp(isa.RSI, 16)))
	if s.GPR[isa.RCX] != 0x1122334455667788 {
		t.Errorf("load after store: %#x", s.GPR[isa.RCX])
	}
}

func TestMemoryOutOfRegionCrashes(t *testing.T) {
	s := testState(t)
	movLoad := findVariant(t, isa.OpMOV, isa.W64, isa.KReg, isa.KMem)
	s.GPR[isa.RDI] = 0x999999 // nowhere
	prog := []isa.Inst{isa.MakeInst(movLoad, isa.RegOp(isa.RCX), isa.MemOp(isa.RDI, 0))}
	err := s.Step(prog)
	if err == nil || err.Kind != CrashBadAddress {
		t.Fatalf("wild load: err = %v, want bad-address crash", err)
	}
}

func TestPushPop(t *testing.T) {
	s := testState(t)
	push := findVariant(t, isa.OpPUSH, isa.W64, isa.KReg)
	pop := findVariant(t, isa.OpPOP, isa.W64, isa.KReg)
	sp0 := s.GPR[isa.RSP]
	s.GPR[isa.RBX] = 0xfeedface
	step1(t, s, isa.MakeInst(push, isa.RegOp(isa.RBX)))
	if s.GPR[isa.RSP] != sp0-8 {
		t.Fatalf("push must decrement RSP by 8")
	}
	step1(t, s, isa.MakeInst(pop, isa.RegOp(isa.RCX)))
	if s.GPR[isa.RCX] != 0xfeedface || s.GPR[isa.RSP] != sp0 {
		t.Fatalf("pop: rcx=%#x rsp=%#x", s.GPR[isa.RCX], s.GPR[isa.RSP])
	}
}

func TestPopEmptyStackCrashes(t *testing.T) {
	// Paper §V-B: "popping the empty stack" must produce a crashing
	// sequence, which the generator has to avoid by construction.
	s := testState(t)
	pop := findVariant(t, isa.OpPOP, isa.W64, isa.KReg)
	s.GPR[isa.RSP] = 0x20000 + 4096 // top of stack: nothing above
	prog := []isa.Inst{isa.MakeInst(pop, isa.RegOp(isa.RCX))}
	if err := s.Step(prog); err == nil || err.Kind != CrashBadAddress {
		t.Fatalf("pop above stack: err = %v, want bad-address", err)
	}
}

func TestBranchTakenNotTaken(t *testing.T) {
	s := testState(t)
	xorV := findVariant(t, isa.OpXOR, isa.W64, isa.KReg, isa.KReg)
	je := findVariantCond(t, isa.OpJcc, isa.CondE, isa.KImm)
	incV := findVariant(t, isa.OpINC, isa.W64, isa.KReg)
	prog := []isa.Inst{
		isa.MakeInst(xorV, isa.RegOp(isa.RAX), isa.RegOp(isa.RAX)), // ZF=1
		isa.MakeInst(je, isa.ImmOp(1)),                             // skip next
		isa.MakeInst(incV, isa.RegOp(isa.RBX)),
		isa.MakeInst(incV, isa.RegOp(isa.RCX)),
	}
	n, err := Run(prog, s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("retired %d instructions, want 3", n)
	}
	if s.GPR[isa.RBX] != 0 || s.GPR[isa.RCX] != 1 {
		t.Fatalf("branch skipped wrong instruction: rbx=%d rcx=%d", s.GPR[isa.RBX], s.GPR[isa.RCX])
	}
}

func TestBranchOutOfProgramCrashes(t *testing.T) {
	s := testState(t)
	jmp := findVariant(t, isa.OpJMP, isa.W32, isa.KImm)
	prog := []isa.Inst{isa.MakeInst(jmp, isa.ImmOp(1000))}
	_, err := Run(prog, s, 100)
	if err == nil || err.Kind != CrashBadBranch {
		t.Fatalf("wild jump: err = %v, want bad-branch", err)
	}
}

func TestInfiniteLoopHitsWatchdog(t *testing.T) {
	s := testState(t)
	jmp := findVariant(t, isa.OpJMP, isa.W32, isa.KImm)
	prog := []isa.Inst{isa.MakeInst(jmp, isa.ImmOp(-1))} // jump to self
	_, err := Run(prog, s, 1000)
	if err == nil || err.Kind != CrashWatchdog {
		t.Fatalf("infinite loop: err = %v, want watchdog", err)
	}
}

func TestPrivilegedCrashes(t *testing.T) {
	s := testState(t)
	hlt := isa.ByOp(isa.OpHLT)[0]
	prog := []isa.Inst{isa.MakeInst(hlt)}
	if err := s.Step(prog); err == nil || err.Kind != CrashPrivileged {
		t.Fatalf("hlt: err = %v, want privileged", err)
	}
}

func TestNondeterministicInstructionsVaryWithSalt(t *testing.T) {
	rd := isa.ByOp(isa.OpRDRAND)[0]
	prog := []isa.Inst{isa.MakeInst(rd, isa.RegOp(isa.RAX))}
	s1 := testState(t)
	s1.NondetSalt = 1
	s2 := testState(t)
	s2.NondetSalt = 2
	if _, err := Run(prog, s1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, s2, 10); err != nil {
		t.Fatal(err)
	}
	if s1.GPR[isa.RAX] == s2.GPR[isa.RAX] {
		t.Fatal("rdrand must differ across salts")
	}
	if s1.Signature() == s2.Signature() {
		t.Fatal("signatures must differ when nondeterministic output differs")
	}
}

func TestSignatureDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	var prog []isa.Inst
	add := findVariant(t, isa.OpADD, isa.W64, isa.KReg, isa.KReg)
	for i := 0; i < 50; i++ {
		prog = append(prog, isa.MakeInst(add, isa.RegOp(isa.Reg(rng.IntN(4))), isa.RegOp(isa.Reg(rng.IntN(4)))))
	}
	run := func() uint64 {
		s := testState(t)
		for i := range s.GPR {
			s.GPR[i] = uint64(i) * 0x0101010101010101
		}
		s.GPR[isa.RSP] = 0x21000
		if _, err := Run(prog, s, 1000); err != nil {
			t.Fatal(err)
		}
		return s.Signature()
	}
	if run() != run() {
		t.Fatal("identical runs must produce identical signatures")
	}
}

func TestSSEAddMul(t *testing.T) {
	s := testState(t)
	addsd := findVariant(t, isa.OpADDSD, isa.W64, isa.KXmm, isa.KXmm)
	mulsd := findVariant(t, isa.OpMULSD, isa.W64, isa.KXmm, isa.KXmm)
	s.XMM[0][0] = math.Float64bits(1.5)
	s.XMM[1][0] = math.Float64bits(2.25)
	step1(t, s, isa.MakeInst(addsd, isa.XmmOp(0), isa.XmmOp(1)))
	if f64(s.XMM[0][0]) != 3.75 {
		t.Errorf("addsd: %v", f64(s.XMM[0][0]))
	}
	step1(t, s, isa.MakeInst(mulsd, isa.XmmOp(0), isa.XmmOp(1)))
	if f64(s.XMM[0][0]) != 8.4375 {
		t.Errorf("mulsd: %v", f64(s.XMM[0][0]))
	}
}

func TestSSEPackedLanes(t *testing.T) {
	s := testState(t)
	addpd := findVariant(t, isa.OpADDPD, isa.W128, isa.KXmm, isa.KXmm)
	s.XMM[2] = [2]uint64{math.Float64bits(1), math.Float64bits(10)}
	s.XMM[3] = [2]uint64{math.Float64bits(2), math.Float64bits(20)}
	step1(t, s, isa.MakeInst(addpd, isa.XmmOp(2), isa.XmmOp(3)))
	if f64(s.XMM[2][0]) != 3 || f64(s.XMM[2][1]) != 30 {
		t.Errorf("addpd lanes: %v %v", f64(s.XMM[2][0]), f64(s.XMM[2][1]))
	}
}

func TestMovapdAlignmentCrash(t *testing.T) {
	s := testState(t)
	movapd := findVariant(t, isa.OpMOVAPD, isa.W128, isa.KXmm, isa.KMem)
	prog := []isa.Inst{isa.MakeInst(movapd, isa.XmmOp(0), isa.MemOp(isa.RSI, 4))}
	if err := s.Step(prog); err == nil || err.Kind != CrashMisaligned {
		t.Fatalf("misaligned movapd: err = %v, want misaligned", err)
	}
}

func TestUcomisdFlags(t *testing.T) {
	s := testState(t)
	uc := findVariant(t, isa.OpUCOMISD, isa.W64, isa.KXmm, isa.KXmm)
	cases := []struct {
		a, b float64
		want isa.Flags
	}{
		{1, 2, isa.CF},
		{2, 1, 0},
		{2, 2, isa.ZF},
		{math.NaN(), 1, isa.ZF | isa.PF | isa.CF},
	}
	for _, c := range cases {
		s.XMM[0][0] = math.Float64bits(c.a)
		s.XMM[1][0] = math.Float64bits(c.b)
		s.Flags = isa.AllFlags
		step1(t, s, isa.MakeInst(uc, isa.XmmOp(0), isa.XmmOp(1)))
		if s.Flags != c.want {
			t.Errorf("ucomisd(%v,%v) flags = %v, want %v", c.a, c.b, s.Flags, c.want)
		}
	}
}

func TestCvtRoundTrip(t *testing.T) {
	s := testState(t)
	si2sd := findVariant(t, isa.OpCVTSI2SD, isa.W64, isa.KXmm, isa.KReg)
	// cvtsi2sdq: the 64-bit-source variant.
	for _, id := range isa.ByOp(isa.OpCVTSI2SD) {
		v := isa.Lookup(id)
		if len(v.Ops) == 2 && v.Ops[1].Kind == isa.KReg && v.Ops[1].Width == isa.W64 {
			si2sd = id
		}
	}
	sd2si := findVariant(t, isa.OpCVTSD2SI, isa.W64, isa.KReg, isa.KXmm)
	n123 := uint64(123456)
	s.GPR[isa.RBX] = -n123
	step1(t, s, isa.MakeInst(si2sd, isa.XmmOp(0), isa.RegOp(isa.RBX)))
	step1(t, s, isa.MakeInst(sd2si, isa.RegOp(isa.RCX), isa.XmmOp(0)))
	if int64(s.GPR[isa.RCX]) != -123456 {
		t.Errorf("cvt round trip: %d", int64(s.GPR[isa.RCX]))
	}
}

func TestFUHooksEquivalentWhenNative(t *testing.T) {
	// Installing hooks that mirror native semantics must not change any
	// result (this validates the hook plumbing used by the gate-level
	// injection campaigns).
	rng := rand.New(rand.NewPCG(23, 24))
	hooks := &FUHooks{
		IntAdd: func(a, b uint64, cin bool) uint64 {
			s := a + b
			if cin {
				s++
			}
			return s
		},
		IntMul: func(a, b uint64) (uint64, uint64) {
			hi, lo := bits.Mul64(a, b)
			return lo, hi
		},
		FPAdd64: func(a, b uint64) uint64 {
			return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
		},
		FPMul64: func(a, b uint64) uint64 {
			return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
		},
	}
	ops := []isa.VariantID{
		findVariant(t, isa.OpADD, isa.W64, isa.KReg, isa.KReg),
		findVariant(t, isa.OpSUB, isa.W32, isa.KReg, isa.KReg),
		findVariant(t, isa.OpADC, isa.W16, isa.KReg, isa.KReg),
		findVariant(t, isa.OpIMULRR, isa.W64, isa.KReg, isa.KReg),
		findVariant(t, isa.OpADDSD, isa.W64, isa.KXmm, isa.KXmm),
		findVariant(t, isa.OpMULSD, isa.W64, isa.KXmm, isa.KXmm),
	}
	for trial := 0; trial < 2000; trial++ {
		var prog []isa.Inst
		for i := 0; i < 10; i++ {
			id := ops[rng.IntN(len(ops))]
			v := isa.Lookup(id)
			if v.Ops[0].Kind == isa.KXmm {
				prog = append(prog, isa.MakeInst(id, isa.XmmOp(isa.XReg(rng.IntN(4))), isa.XmmOp(isa.XReg(rng.IntN(4)))))
			} else {
				prog = append(prog, isa.MakeInst(id, isa.RegOp(isa.Reg(rng.IntN(4))), isa.RegOp(isa.Reg(rng.IntN(4)))))
			}
		}
		mk := func(fu *FUHooks) uint64 {
			s := testState(t)
			s.FU = fu
			for i := 0; i < 4; i++ {
				s.GPR[i] = rng.Uint64() // same values via identical rng? no!
			}
			return 0
		}
		_ = mk
		// Build identical initial values explicitly.
		init := make([]uint64, 8)
		for i := range init {
			init[i] = rng.Uint64()
		}
		run := func(fu *FUHooks) uint64 {
			s := testState(t)
			s.FU = fu
			for i := 0; i < 4; i++ {
				s.GPR[i] = init[i]
				s.XMM[i][0] = init[4+i]
			}
			s.GPR[isa.RSP] = 0x21000
			if _, err := Run(prog, s, 1000); err != nil {
				t.Fatalf("%v", err)
			}
			return s.Signature()
		}
		if run(nil) != run(hooks) {
			t.Fatal("native-equivalent hooks changed program output")
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	s := testState(t)
	s.GPR[isa.RAX] = 7
	c := s.Clone()
	c.GPR[isa.RAX] = 9
	if err := c.Mem.Write(0x10000, 1, 0xff); err != nil {
		t.Fatal(err)
	}
	if s.GPR[isa.RAX] != 7 {
		t.Fatal("clone shares GPRs")
	}
	if v, _ := s.Mem.Read(0x10000, 1); v != 0 {
		t.Fatal("clone shares memory")
	}
	if v, _ := c.Mem.Read(0x10000, 1); v != 0xff {
		t.Fatal("clone lost its own write")
	}
}

func TestRegionOverlapRejected(t *testing.T) {
	m := NewMemory()
	if err := m.AddRegion(Region{Name: "a", Base: 0x1000, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRegion(Region{Name: "b", Base: 0x1800, Size: 0x1000}); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if err := m.AddRegion(Region{Name: "c", Base: ^uint64(0) - 0xfff, Size: 0x2000}); err == nil {
		t.Fatal("region wrapping the address space accepted")
	}
}

func TestCmovWritesRegardless(t *testing.T) {
	s := testState(t)
	cmove := findVariantCond(t, isa.OpCMOVcc, isa.CondE, isa.KReg, isa.KReg)
	// 32-bit cmov with false condition must still zero-extend dst.
	var id isa.VariantID
	for _, vid := range isa.ByOp(isa.OpCMOVcc) {
		v := isa.Lookup(vid)
		if v.Cond == isa.CondE && v.Width == isa.W32 && v.Ops[1].Kind == isa.KReg {
			id = vid
		}
	}
	_ = cmove
	s.GPR[isa.RAX] = 0xffffffff00000001
	s.GPR[isa.RBX] = 5
	s.Flags = 0 // ZF clear: condition false
	step1(t, s, isa.MakeInst(id, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 1 {
		t.Errorf("cmov false must still zero-extend: %#x", s.GPR[isa.RAX])
	}
}

func TestXchgSwaps(t *testing.T) {
	s := testState(t)
	xchg := findVariant(t, isa.OpXCHG, isa.W64, isa.KReg, isa.KReg)
	s.GPR[isa.RAX], s.GPR[isa.RBX] = 1, 2
	step1(t, s, isa.MakeInst(xchg, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 2 || s.GPR[isa.RBX] != 1 {
		t.Fatal("xchg failed")
	}
}

func TestBitScan(t *testing.T) {
	s := testState(t)
	bsf := findVariant(t, isa.OpBSF, isa.W64, isa.KReg, isa.KReg)
	bsr := findVariant(t, isa.OpBSR, isa.W64, isa.KReg, isa.KReg)
	popcnt := findVariant(t, isa.OpPOPCNT, isa.W64, isa.KReg, isa.KReg)
	s.GPR[isa.RBX] = 0x00f0
	step1(t, s, isa.MakeInst(bsf, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 4 {
		t.Errorf("bsf: %d", s.GPR[isa.RAX])
	}
	step1(t, s, isa.MakeInst(bsr, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 7 {
		t.Errorf("bsr: %d", s.GPR[isa.RAX])
	}
	step1(t, s, isa.MakeInst(popcnt, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 4 {
		t.Errorf("popcnt: %d", s.GPR[isa.RAX])
	}
}

func TestMovzxMovsx(t *testing.T) {
	s := testState(t)
	var movzx, movsx isa.VariantID
	for _, id := range isa.ByOp(isa.OpMOVZX) {
		v := isa.Lookup(id)
		if v.Width == isa.W64 && v.Ops[1].Width == isa.W8 && v.Ops[1].Kind == isa.KReg {
			movzx = id
		}
	}
	for _, id := range isa.ByOp(isa.OpMOVSX) {
		v := isa.Lookup(id)
		if v.Width == isa.W64 && v.Ops[1].Width == isa.W8 && v.Ops[1].Kind == isa.KReg {
			movsx = id
		}
	}
	s.GPR[isa.RBX] = 0x80
	step1(t, s, isa.MakeInst(movzx, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 0x80 {
		t.Errorf("movzx: %#x", s.GPR[isa.RAX])
	}
	step1(t, s, isa.MakeInst(movsx, isa.RegOp(isa.RAX), isa.RegOp(isa.RBX)))
	if s.GPR[isa.RAX] != 0xffffffffffffff80 {
		t.Errorf("movsx: %#x", s.GPR[isa.RAX])
	}
}

// rescanDigest computes the memory digest from its definition — the XOR
// of wordDigest over every aligned word of every writable region, the
// last one zero-padded — reading the bytes through the accessor: the
// reference the incrementally maintained digest must always equal.
func rescanDigest(t testing.TB, m *Memory) uint64 {
	t.Helper()
	var d uint64
	for _, r := range m.Regions() {
		if !r.Writable {
			continue
		}
		b := append(m.RegionBytes(r.Name), make([]byte, 7)...)
		for off := uint64(0); off < r.Size; off += 8 {
			d ^= wordDigest(r.Base+off, binary.LittleEndian.Uint64(b[off:]))
		}
	}
	return d
}

// The incremental memory digest must stay equal to a from-scratch scan
// through arbitrary interleavings of Write, Write128 and WriteBytes —
// including sub-word writes, word-straddling spans and the unaligned
// region tail — and must ignore read-only regions and survive cloning.
func TestMemoryDigestIncremental(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	m := NewMemory()
	// 1003-byte writable region: exercises the zero-padded tail word.
	odd := make([]byte, 1003)
	for i := range odd {
		odd[i] = byte(rng.Uint32())
	}
	if err := m.AddRegion(Region{Name: "odd", Base: 0x1000, Size: 1003, Writable: true}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(0x1000, odd); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRegion(Region{Name: "data", Base: 0x10000, Size: 4096, Writable: true}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRegion(Region{Name: "ro", Base: 0x20000, Size: 256}); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Digest(), rescanDigest(t, m); got != want {
		t.Fatalf("initial digest %#x != from-scratch %#x", got, want)
	}
	regions := []struct {
		base, size uint64
	}{{0x1000, 1003}, {0x10000, 4096}}
	for step := 0; step < 500; step++ {
		reg := regions[rng.IntN(len(regions))]
		switch rng.IntN(3) {
		case 0:
			size := uint64(1 + rng.IntN(8))
			addr := reg.base + uint64(rng.Int64N(int64(reg.size-size+1)))
			if err := m.Write(addr, size, rng.Uint64()); err != nil {
				t.Fatal(err)
			}
		case 1:
			if reg.size < 16 {
				continue
			}
			addr := reg.base + uint64(rng.Int64N(int64(reg.size-15)))
			if err := m.Write128(addr, [2]uint64{rng.Uint64(), rng.Uint64()}); err != nil {
				t.Fatal(err)
			}
		case 2:
			n := 1 + rng.IntN(64)
			if uint64(n) > reg.size {
				n = int(reg.size)
			}
			addr := reg.base + uint64(rng.Int64N(int64(reg.size-uint64(n)+1)))
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(rng.Uint32())
			}
			if err := m.WriteBytes(addr, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := m.Digest(), rescanDigest(t, m); got != want {
		t.Fatalf("incremental digest %#x != from-scratch %#x after random writes", got, want)
	}
	// Clones carry the digest; divergent writes diverge it.
	c := m.Clone()
	if c.Digest() != m.Digest() {
		t.Fatal("clone digest differs from source")
	}
	if err := c.Write(0x10010, 8, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if c.Digest() == m.Digest() {
		t.Fatal("clone write did not change its digest")
	}
	if got, want := c.Digest(), rescanDigest(t, c); got != want {
		t.Fatalf("clone incremental digest %#x != from-scratch %#x", got, want)
	}
	if got, want := m.Digest(), rescanDigest(t, m); got != want {
		t.Fatalf("source digest changed by clone write: %#x != %#x", got, want)
	}
	// A zero word contributes nothing: writing a word and then zeros back
	// over it — the page stays present — digests like the untouched memory,
	// whose never-written pages are absent.
	z, untouched := testMem(t), testMem(t).Digest()
	if err := z.Write(0x10ff4, 8, 0x0123456789abcdef); err != nil {
		t.Fatal(err)
	}
	if z.Digest() == untouched {
		t.Fatal("a non-zero word left the digest unchanged")
	}
	if err := z.Write(0x10ff4, 8, 0); err != nil {
		t.Fatal(err)
	}
	if got := z.Digest(); got != untouched {
		t.Fatalf("zeros written back digest %#x, untouched memory %#x", got, untouched)
	}
}
