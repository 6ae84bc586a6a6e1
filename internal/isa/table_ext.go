package isa

// Extended instruction families: BMI-style bit manipulation, double
// shifts, exchange-and-op, byte-order moves, carry-chain arithmetic,
// explicit flag manipulation, packed-single floating point, vector
// shifts/compares/shuffles, and single-precision conversions. Together
// with the base table this brings the generator's reach to ~800 distinct
// variants — the breadth MuSeqGen's x86-64 support gives the paper's
// generator.

// Extended operation families (appended to the base enumeration).
const (
	// Double-precision shifts.
	OpSHLD Op = NumOps + iota
	OpSHRD

	// BMI-style bit manipulation.
	OpANDN
	OpBEXTR
	OpBLSI
	OpBLSR
	OpBLSMSK
	OpRORX
	OpSHLX
	OpSHRX
	OpSARX
	OpBZHI

	// Exchange-and-add / compare-and-exchange / byte-order move.
	OpXADD
	OpMOVBE
	OpCMPXCHG

	// Carry-chain arithmetic (ADX).
	OpADCX
	OpADOX

	// Sign extensions within/out of RAX.
	OpCSEX   // cbw/cwde/cdqe: RAX(w) = sign-extend(RAX(w/2))
	OpCSPLIT // cwd/cdq/cqo:   RDX(w) = sign-fill(RAX(w))

	// Flag register manipulation.
	OpLAHF
	OpSAHF
	OpCLC
	OpSTC
	OpCMC

	// Packed single (4 x 32-bit lanes).
	OpADDPS
	OpSUBPS
	OpMULPS
	OpDIVPS
	OpMINPS
	OpMAXPS

	// Scalar single extras.
	OpMINSS
	OpMAXSS
	OpSQRTSS

	// Bitwise FP logicals.
	OpANDPD
	OpANDNPD
	OpORPD
	OpXORPD

	// Vector shifts by immediate.
	OpPSLLQ
	OpPSRLQ
	OpPSLLD
	OpPSRLD

	// Vector integer extras.
	OpPSUBD
	OpPMULUDQ
	OpPCMPEQD
	OpPCMPEQQ
	OpPCMPGTD
	OpPSHUFD

	// Single-precision conversions and compare.
	OpCVTSI2SS
	OpCVTSS2SI
	OpCVTTSS2SI
	OpCVTPS2PD
	OpCVTPD2PS
	OpUCOMISS

	// Mask extraction and 32-bit GPR<->XMM moves.
	OpMOVMSKPD
	OpMOVMSKPS
	OpPMOVMSKB
	OpMOVD
	OpMOVSS
	OpMOVUPD

	// NumOpsExt is the end of the extended enumeration.
	NumOpsExt
)

func buildTable2() {
	// --- double shifts: shld/shrd r, r, imm8 ---------------------------
	for _, fam := range []struct {
		op   Op
		mnem string
	}{{OpSHLD, "shld"}, {OpSHRD, "shrd"}} {
		for _, w := range wideWidths {
			addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem + w.String(), Width: w, Unit: UIntALU, Latency: 2,
				Ops:       []OperandSpec{rspec(w, AccRW), rspec(w, AccR), ispec(W8)},
				FlagsRead: AllFlags, FlagsWritten: AllFlags})
		}
	}

	// --- BMI ------------------------------------------------------------
	bmiW := []Width{W32, W64}
	for _, w := range bmiW {
		addVariant(Variant{Op: OpANDN, Mnemonic: "andn" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR), rspec(w, AccR)}, FlagsWritten: AllFlags})
		addVariant(Variant{Op: OpBEXTR, Mnemonic: "bextr" + w.String(), Width: w, Unit: UIntALU, Latency: 2,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR), rspec(w, AccR)}, FlagsWritten: AllFlags})
		addVariant(Variant{Op: OpBLSI, Mnemonic: "blsi" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR)}, FlagsWritten: AllFlags})
		addVariant(Variant{Op: OpBLSR, Mnemonic: "blsr" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR)}, FlagsWritten: AllFlags})
		addVariant(Variant{Op: OpBLSMSK, Mnemonic: "blsmsk" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR)}, FlagsWritten: AllFlags})
		addVariant(Variant{Op: OpRORX, Mnemonic: "rorx" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR), ispec(W8)}})
		addVariant(Variant{Op: OpSHLX, Mnemonic: "shlx" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR), rspec(w, AccR)}})
		addVariant(Variant{Op: OpSHRX, Mnemonic: "shrx" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR), rspec(w, AccR)}})
		addVariant(Variant{Op: OpSARX, Mnemonic: "sarx" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR), rspec(w, AccR)}})
		addVariant(Variant{Op: OpBZHI, Mnemonic: "bzhi" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), rspec(w, AccR), rspec(w, AccR)}, FlagsWritten: AllFlags})
	}

	// --- xadd / movbe / cmpxchg ------------------------------------------
	for _, w := range intWidths {
		addVariant(Variant{Op: OpXADD, Mnemonic: "xadd" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccRW), rspec(w, AccRW)}, FlagsWritten: AllFlags})
		addVariant(Variant{Op: OpXADD, Mnemonic: "xadd" + w.String(), Width: w, Unit: UIntALU, Latency: 2,
			Ops: []OperandSpec{mspec(w, AccRW), rspec(w, AccRW)}, FlagsWritten: AllFlags})
		addVariant(Variant{Op: OpCMPXCHG, Mnemonic: "cmpxchg" + w.String(), Width: w, Unit: UIntALU, Latency: 2,
			Ops:        []OperandSpec{rspec(w, AccRW), rspec(w, AccR)},
			ImplicitIn: []Reg{RAX}, ImplicitOut: []Reg{RAX}, FlagsWritten: AllFlags})
		addVariant(Variant{Op: OpCMPXCHG, Mnemonic: "cmpxchg" + w.String(), Width: w, Unit: UIntALU, Latency: 2,
			Ops:        []OperandSpec{mspec(w, AccRW), rspec(w, AccR)},
			ImplicitIn: []Reg{RAX}, ImplicitOut: []Reg{RAX}, FlagsWritten: AllFlags})
	}
	for _, w := range wideWidths {
		addVariant(Variant{Op: OpMOVBE, Mnemonic: "movbe" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccW), mspec(w, AccR)}})
		addVariant(Variant{Op: OpMOVBE, Mnemonic: "movbe" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{mspec(w, AccW), rspec(w, AccR)}})
	}

	// --- ADX carry chains -------------------------------------------------
	for _, w := range bmiW {
		addVariant(Variant{Op: OpADCX, Mnemonic: "adcx" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccRW), rspec(w, AccR)}, FlagsRead: CF, FlagsWritten: CF})
		addVariant(Variant{Op: OpADCX, Mnemonic: "adcx" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccRW), mspec(w, AccR)}, FlagsRead: CF, FlagsWritten: CF})
		addVariant(Variant{Op: OpADOX, Mnemonic: "adox" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccRW), rspec(w, AccR)}, FlagsRead: OF, FlagsWritten: OF})
		addVariant(Variant{Op: OpADOX, Mnemonic: "adox" + w.String(), Width: w, Unit: UIntALU, Latency: 1,
			Ops: []OperandSpec{rspec(w, AccRW), mspec(w, AccR)}, FlagsRead: OF, FlagsWritten: OF})
	}

	// --- sign extensions ----------------------------------------------------
	for _, fam := range []struct {
		op    Op
		mnems [3]string
	}{
		{OpCSEX, [3]string{"cbw", "cwde", "cdqe"}},
		{OpCSPLIT, [3]string{"cwd", "cdq", "cqo"}},
	} {
		for i, w := range wideWidths {
			out := []Reg{RAX}
			if fam.op == OpCSPLIT {
				out = []Reg{RDX}
			}
			addVariant(Variant{Op: fam.op, Mnemonic: fam.mnems[i], Width: w, Unit: UIntALU, Latency: 1,
				ImplicitIn: []Reg{RAX}, ImplicitOut: out})
		}
	}

	// --- flag manipulation ----------------------------------------------------
	addVariant(Variant{Op: OpLAHF, Mnemonic: "lahf", Width: W8, Unit: UIntALU, Latency: 1,
		ImplicitIn: []Reg{RAX}, ImplicitOut: []Reg{RAX}, FlagsRead: AllFlags})
	addVariant(Variant{Op: OpSAHF, Mnemonic: "sahf", Width: W8, Unit: UIntALU, Latency: 1,
		ImplicitIn: []Reg{RAX}, FlagsWritten: CF | PF | ZF | SF})
	addVariant(Variant{Op: OpCLC, Mnemonic: "clc", Width: W8, Unit: UIntALU, Latency: 1, FlagsWritten: CF})
	addVariant(Variant{Op: OpSTC, Mnemonic: "stc", Width: W8, Unit: UIntALU, Latency: 1, FlagsWritten: CF})
	addVariant(Variant{Op: OpCMC, Mnemonic: "cmc", Width: W8, Unit: UIntALU, Latency: 1,
		FlagsRead: CF, FlagsWritten: CF})

	// --- packed single -----------------------------------------------------------
	for _, fam := range []struct {
		op   Op
		mnem string
		unit Unit
		lat  int
	}{
		{OpADDPS, "addps", UFPAdd, 3}, {OpSUBPS, "subps", UFPAdd, 3},
		{OpMULPS, "mulps", UFPMul, 4}, {OpDIVPS, "divps", UFPDiv, 11},
		{OpMINPS, "minps", UFPAdd, 3}, {OpMAXPS, "maxps", UFPAdd, 3},
	} {
		addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem, Width: W128, Unit: fam.unit, Latency: fam.lat,
			Ops: []OperandSpec{xspec(W128, AccRW), xspec(W128, AccR)}})
		addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem, Width: W128, Unit: fam.unit, Latency: fam.lat,
			Ops: []OperandSpec{xspec(W128, AccRW), mspec(W128, AccR)}})
	}

	// --- scalar single extras ------------------------------------------------------
	for _, fam := range []struct {
		op   Op
		mnem string
		unit Unit
		lat  int
	}{{OpMINSS, "minss", UFPAdd, 3}, {OpMAXSS, "maxss", UFPAdd, 3}, {OpSQRTSS, "sqrtss", UFPDiv, 15}} {
		addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem, Width: W32, Unit: fam.unit, Latency: fam.lat,
			Ops: []OperandSpec{xspec(W32, AccRW), xspec(W32, AccR)}})
		addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem, Width: W32, Unit: fam.unit, Latency: fam.lat,
			Ops: []OperandSpec{xspec(W32, AccRW), mspec(W32, AccR)}})
	}

	// --- bitwise FP logicals ----------------------------------------------------------
	for _, fam := range []struct {
		op   Op
		mnem string
	}{{OpANDPD, "andpd"}, {OpANDNPD, "andnpd"}, {OpORPD, "orpd"}, {OpXORPD, "xorpd"}} {
		addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem, Width: W128, Unit: UVecALU, Latency: 1,
			Ops: []OperandSpec{xspec(W128, AccRW), xspec(W128, AccR)}})
		addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem, Width: W128, Unit: UVecALU, Latency: 1,
			Ops: []OperandSpec{xspec(W128, AccRW), mspec(W128, AccR)}})
	}

	// --- vector shifts by immediate ------------------------------------------------------
	for _, fam := range []struct {
		op   Op
		mnem string
	}{{OpPSLLQ, "psllq"}, {OpPSRLQ, "psrlq"}, {OpPSLLD, "pslld"}, {OpPSRLD, "psrld"}} {
		addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem, Width: W128, Unit: UVecALU, Latency: 1,
			Ops: []OperandSpec{xspec(W128, AccRW), ispec(W8)}})
	}

	// --- vector integer extras -----------------------------------------------------------
	for _, fam := range []struct {
		op   Op
		mnem string
		lat  int
	}{
		{OpPSUBD, "psubd", 1}, {OpPMULUDQ, "pmuludq", 4},
		{OpPCMPEQD, "pcmpeqd", 1}, {OpPCMPEQQ, "pcmpeqq", 1}, {OpPCMPGTD, "pcmpgtd", 1},
	} {
		addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem, Width: W128, Unit: UVecALU, Latency: fam.lat,
			Ops: []OperandSpec{xspec(W128, AccRW), xspec(W128, AccR)}})
		addVariant(Variant{Op: fam.op, Mnemonic: fam.mnem, Width: W128, Unit: UVecALU, Latency: fam.lat,
			Ops: []OperandSpec{xspec(W128, AccRW), mspec(W128, AccR)}})
	}
	addVariant(Variant{Op: OpPSHUFD, Mnemonic: "pshufd", Width: W128, Unit: UVecALU, Latency: 1,
		Ops: []OperandSpec{xspec(W128, AccW), xspec(W128, AccR), ispec(W8)}})
	addVariant(Variant{Op: OpPSHUFD, Mnemonic: "pshufd", Width: W128, Unit: UVecALU, Latency: 1,
		Ops: []OperandSpec{xspec(W128, AccW), mspec(W128, AccR), ispec(W8)}})

	// --- single-precision conversions and compare ---------------------------------------------
	addVariant(Variant{Op: OpCVTSI2SS, Mnemonic: "cvtsi2ssl", Width: W32, Unit: UFPAdd, Latency: 4,
		Ops: []OperandSpec{xspec(W32, AccRW), rspec(W32, AccR)}})
	addVariant(Variant{Op: OpCVTSI2SS, Mnemonic: "cvtsi2ssq", Width: W32, Unit: UFPAdd, Latency: 4,
		Ops: []OperandSpec{xspec(W32, AccRW), rspec(W64, AccR)}})
	addVariant(Variant{Op: OpCVTSS2SI, Mnemonic: "cvtss2sil", Width: W32, Unit: UFPAdd, Latency: 4,
		Ops: []OperandSpec{rspec(W32, AccW), xspec(W32, AccR)}})
	addVariant(Variant{Op: OpCVTSS2SI, Mnemonic: "cvtss2siq", Width: W64, Unit: UFPAdd, Latency: 4,
		Ops: []OperandSpec{rspec(W64, AccW), xspec(W32, AccR)}})
	addVariant(Variant{Op: OpCVTTSS2SI, Mnemonic: "cvttss2sil", Width: W32, Unit: UFPAdd, Latency: 4,
		Ops: []OperandSpec{rspec(W32, AccW), xspec(W32, AccR)}})
	addVariant(Variant{Op: OpCVTTSS2SI, Mnemonic: "cvttss2siq", Width: W64, Unit: UFPAdd, Latency: 4,
		Ops: []OperandSpec{rspec(W64, AccW), xspec(W32, AccR)}})
	addVariant(Variant{Op: OpCVTPS2PD, Mnemonic: "cvtps2pd", Width: W128, Unit: UFPAdd, Latency: 4,
		Ops: []OperandSpec{xspec(W128, AccW), xspec(W64, AccR)}})
	addVariant(Variant{Op: OpCVTPD2PS, Mnemonic: "cvtpd2ps", Width: W128, Unit: UFPAdd, Latency: 4,
		Ops: []OperandSpec{xspec(W128, AccW), xspec(W128, AccR)}})
	addVariant(Variant{Op: OpUCOMISS, Mnemonic: "ucomiss", Width: W32, Unit: UFPAdd, Latency: 2,
		Ops: []OperandSpec{xspec(W32, AccR), xspec(W32, AccR)}, FlagsWritten: AllFlags})
	addVariant(Variant{Op: OpUCOMISS, Mnemonic: "ucomiss", Width: W32, Unit: UFPAdd, Latency: 2,
		Ops: []OperandSpec{xspec(W32, AccR), mspec(W32, AccR)}, FlagsWritten: AllFlags})

	// --- mask extraction and GPR<->XMM moves ------------------------------------------------------
	addVariant(Variant{Op: OpMOVMSKPD, Mnemonic: "movmskpd", Width: W64, Unit: UVecALU, Latency: 2,
		Ops: []OperandSpec{rspec(W64, AccW), xspec(W128, AccR)}})
	addVariant(Variant{Op: OpMOVMSKPS, Mnemonic: "movmskps", Width: W64, Unit: UVecALU, Latency: 2,
		Ops: []OperandSpec{rspec(W64, AccW), xspec(W128, AccR)}})
	addVariant(Variant{Op: OpPMOVMSKB, Mnemonic: "pmovmskb", Width: W64, Unit: UVecALU, Latency: 2,
		Ops: []OperandSpec{rspec(W64, AccW), xspec(W128, AccR)}})
	addVariant(Variant{Op: OpMOVD, Mnemonic: "movd", Width: W32, Unit: UVecALU, Latency: 1,
		Ops: []OperandSpec{xspec(W32, AccW), rspec(W32, AccR)}})
	addVariant(Variant{Op: OpMOVD, Mnemonic: "movd", Width: W32, Unit: UVecALU, Latency: 1,
		Ops: []OperandSpec{rspec(W32, AccW), xspec(W32, AccR)}})
	addVariant(Variant{Op: OpMOVSS, Mnemonic: "movss", Width: W32, Unit: UVecALU, Latency: 1,
		Ops: []OperandSpec{xspec(W32, AccRW), xspec(W32, AccR)}})
	addVariant(Variant{Op: OpMOVSS, Mnemonic: "movss", Width: W32, Unit: UVecALU, Latency: 1,
		Ops: []OperandSpec{xspec(W32, AccW), mspec(W32, AccR)}})
	addVariant(Variant{Op: OpMOVSS, Mnemonic: "movss", Width: W32, Unit: UVecALU, Latency: 1,
		Ops: []OperandSpec{mspec(W32, AccW), xspec(W32, AccR)}})
	// movupd performs unaligned 128-bit moves (the executor bypasses the
	// movapd alignment check).
	addVariant(Variant{Op: OpMOVUPD, Mnemonic: "movupd", Width: W128, Unit: UVecALU, Latency: 1,
		Ops: []OperandSpec{xspec(W128, AccW), mspec(W128, AccR)}})
	addVariant(Variant{Op: OpMOVUPD, Mnemonic: "movupd", Width: W128, Unit: UVecALU, Latency: 1,
		Ops: []OperandSpec{mspec(W128, AccW), xspec(W128, AccR)}})
}
