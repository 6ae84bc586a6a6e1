package dcdiag

import (
	"math"
	"math/rand/v2"

	"harpocrates/internal/baselines/kasm"
	"harpocrates/internal/isa"
	"harpocrates/internal/prog"
)

// SVD: one-sided Jacobi rotation sweeps on a square matrix — the suite's
// singular-value-decomposition test and its most FP-intensive kernel
// (multiplies, divides and square roots on data-dependent paths).
func SVD(scale int) *prog.Program {
	const n = 6
	sweeps := 2 * scale
	rng := rand.New(rand.NewPCG(0x57d, 6))
	oneOff := int32(n * n * 8)
	data := make([]byte, n*n*8+16+64)
	for i := 0; i < n*n; i++ {
		putU64(data, i*8, math.Float64bits(rng.Float64()*4-2))
	}
	putU64(data, int(oneOff), math.Float64bits(1.0))
	putU64(data, int(oneOff)+8, math.Float64bits(0.0))

	at := func(i, j int) int32 { return int32((i*n + j) * 8) }

	b := kasm.New()
	b.LoadSD(10, isa.R15, oneOff)   // xmm10 = 1.0
	b.LoadSD(11, isa.R15, oneOff+8) // xmm11 = 0.0
	b.MovRI(isa.R13, 0)
	b.Label("sweep")
	for p := 0; p < n-1; p++ {
		for q := p + 1; q < n; q++ {
			skip := lbl("skip", p, q)
			neg := lbl("neg", p, q)
			tdone := lbl("tdone", p, q)
			// alpha, beta, gamma over column pair (p, q).
			b.MovSDxx(0, 11)
			b.MovSDxx(1, 11)
			b.MovSDxx(2, 11)
			for i := 0; i < n; i++ {
				b.LoadSD(3, isa.R15, at(i, p))
				b.LoadSD(4, isa.R15, at(i, q))
				b.MovSDxx(5, 3)
				b.MulSD(5, 3)
				b.AddSD(0, 5)
				b.MovSDxx(5, 4)
				b.MulSD(5, 4)
				b.AddSD(1, 5)
				b.MovSDxx(5, 3)
				b.MulSD(5, 4)
				b.AddSD(2, 5)
			}
			// Columns already orthogonal: skip.
			b.UcomiSD(2, 11)
			b.Jcc(isa.CondE, skip)
			// zeta = (beta - alpha) / (2 gamma)
			b.MovSDxx(9, 1)
			b.SubSD(9, 0)
			b.MovSDxx(5, 2)
			b.AddSD(5, 2)
			b.DivSD(9, 5)
			// t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2))
			b.MovSDxx(5, 9)
			b.MulSD(5, 9)
			b.AddSD(5, 10)
			b.SqrtSD(5, 5)
			b.UcomiSD(9, 11)
			b.Jcc(isa.CondB, neg)
			b.AddSD(5, 9) // zeta + sqrt
			b.MovSDxx(6, 10)
			b.DivSD(6, 5)
			b.Jmp(tdone)
			b.Label(neg)
			b.MovSDxx(6, 9)
			b.SubSD(6, 5) // zeta - sqrt (negative)
			b.MovSDxx(3, 10)
			b.DivSD(3, 6)
			b.MovSDxx(6, 3)
			b.Label(tdone)
			// c = 1/sqrt(1+t^2); s = c*t
			b.MovSDxx(7, 6)
			b.MulSD(7, 6)
			b.AddSD(7, 10)
			b.SqrtSD(7, 7)
			b.MovSDxx(5, 10)
			b.DivSD(5, 7)
			b.MovSDxx(7, 5)
			b.MovSDxx(8, 7)
			b.MulSD(8, 6)
			// Rotate columns p and q.
			for i := 0; i < n; i++ {
				b.LoadSD(3, isa.R15, at(i, p))
				b.LoadSD(4, isa.R15, at(i, q))
				b.MovSDxx(5, 3)
				b.MulSD(5, 7) // c*ap
				b.MovSDxx(9, 4)
				b.MulSD(9, 8) // s*aq
				b.SubSD(5, 9)
				b.StoreSD(isa.R15, at(i, p), 5)
				b.MovSDxx(5, 3)
				b.MulSD(5, 8) // s*ap
				b.MovSDxx(9, 4)
				b.MulSD(9, 7) // c*aq
				b.AddSD(5, 9)
				b.StoreSD(isa.R15, at(i, q), 5)
			}
			b.Label(skip)
		}
	}
	b.Inc(isa.R13)
	b.CmpRI(isa.R13, int64(sweeps))
	b.Jcc(isa.CondNE, "sweep")
	return kasm.Kernel("dcdiag/svd", b.Build(), data)
}

// Memtest: address-dependent pattern write / read-back verification over
// a buffer (dcdiag's memory subsystem tests; heavy L1D exercise).
func Memtest(scale int) *prog.Program {
	words := 1024 * scale
	// layout: buffer, then mismatch counter.
	data := make([]byte, words*8+8+64)
	kMul := uint64(0x9e3779b97f4a7c15)

	b := kasm.New()
	b.MovRI(isa.R8, 0) // mismatch count
	for pass, pattern := range []int64{0, -1, 0x5555555555555555} {
		wl := lbl("w", pass, 0)
		rl := lbl("r", pass, 0)
		b.MovRI(isa.R9, int64(kMul)) // multiplier (movabs)
		b.MovRI(isa.R10, pattern)
		// Write pass.
		b.MovRI(isa.RSI, 0)
		b.Label(wl)
		b.MovRR(isa.RAX, isa.RSI)
		b.ImulRR(isa.RAX, isa.R9)
		b.XorRR(isa.RAX, isa.R10)
		b.StoreIdx(isa.R15, isa.RSI, 8, 0, isa.RAX)
		b.Inc(isa.RSI)
		b.CmpRI(isa.RSI, int64(words))
		b.Jcc(isa.CondNE, wl)
		// Read-back verify pass.
		b.MovRI(isa.RSI, 0)
		b.Label(rl)
		b.MovRR(isa.RAX, isa.RSI)
		b.ImulRR(isa.RAX, isa.R9)
		b.XorRR(isa.RAX, isa.R10)
		b.LoadIdx(isa.RBX, isa.R15, isa.RSI, 8, 0)
		b.MovRI(isa.RDX, 1)
		b.MovRI(isa.RCX, 0)
		b.CmpRR(isa.RBX, isa.RAX)
		b.CmovRR(isa.CondE, isa.RDX, isa.RCX) // 0 when equal
		b.AddRR(isa.R8, isa.RDX)
		b.Inc(isa.RSI)
		b.CmpRI(isa.RSI, int64(words))
		b.Jcc(isa.CondNE, rl)
	}
	b.Store(isa.R15, int32(words*8), isa.R8)
	return kasm.Kernel("dcdiag/memtest", b.Build(), data)
}
