package mibench

import (
	"math"
	"math/rand/v2"

	"harpocrates/internal/baselines/kasm"
	"harpocrates/internal/isa"
	"harpocrates/internal/prog"
)

// Patricia: pointer-chasing lookups over a binary search tree stored as
// node records (the suite's patricia-trie routing-table workload).
func Patricia(scale int) *prog.Program {
	const nodes = 127 // perfectly balanced over sorted keys
	numQ := 200 * scale
	rng := rand.New(rand.NewPCG(0x9a7, 6))

	keys := make([]uint64, nodes)
	seen := map[uint64]bool{}
	for i := range keys {
		k := rng.Uint64() >> 8
		for seen[k] {
			k = rng.Uint64() >> 8
		}
		seen[k] = true
		keys[i] = k
	}
	// Sort keys (insertion sort; n is tiny).
	for i := 1; i < nodes; i++ {
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	// Build a balanced BST: node records {key, left, right, value},
	// 32 bytes each; index -1 encodes nil. Node 0 is the root.
	type node struct{ key, left, right, value uint64 }
	recs := make([]node, 0, nodes)
	var build func(lo, hi int) int64
	build = func(lo, hi int) int64 {
		if lo > hi {
			return -1
		}
		mid := (lo + hi) / 2
		idx := len(recs)
		recs = append(recs, node{key: keys[mid], value: keys[mid] * 0x9e3779b97f4a7c15})
		l := build(lo, mid-1)
		r := build(mid+1, hi)
		recs[idx].left = uint64(l)
		recs[idx].right = uint64(r)
		return int64(idx)
	}
	build(0, nodes-1)

	qOff := nodes * 32
	resOff := qOff + numQ*8
	data := make([]byte, resOff+64)
	for i, r := range recs {
		putU64(data, i*32, r.key)
		putU64(data, i*32+8, r.left)
		putU64(data, i*32+16, r.right)
		putU64(data, i*32+24, r.value)
	}
	for i := 0; i < numQ; i++ {
		if rng.IntN(2) == 0 {
			putU64(data, qOff+i*8, keys[rng.IntN(nodes)]) // hit
		} else {
			putU64(data, qOff+i*8, rng.Uint64()>>8) // likely miss
		}
	}

	b := kasm.New()
	b.MovRI(isa.R8, 0)  // acc
	b.MovRI(isa.RSI, 0) // query index
	b.Label("qloop")
	b.LoadIdx(isa.RAX, isa.R15, isa.RSI, 8, int32(qOff))
	b.MovRI(isa.RDI, 0) // node index (root)
	b.Label("walk")
	b.CmpRI(isa.RDI, -1)
	b.Jcc(isa.CondE, "nextq")
	b.MovRR(isa.RBX, isa.RDI)
	b.ShlRI(isa.RBX, 5)                        // node byte offset
	b.LoadIdx(isa.RCX, isa.R15, isa.RBX, 1, 0) // node key
	b.CmpRR(isa.RAX, isa.RCX)
	b.Jcc(isa.CondE, "found")
	b.MovRI(isa.RDX, 8) // left child offset
	b.MovRI(isa.R9, 16) // right child offset
	b.CmovRR(isa.CondA, isa.RDX, isa.R9)
	b.AddRR(isa.RBX, isa.RDX)
	b.LoadIdx(isa.RDI, isa.R15, isa.RBX, 1, 0)
	b.Jmp("walk")
	b.Label("found")
	b.LoadIdx(isa.RDX, isa.R15, isa.RBX, 1, 24)
	b.XorRR(isa.R8, isa.RDX)
	b.Label("nextq")
	b.Inc(isa.RSI)
	b.CmpRI(isa.RSI, int64(numQ))
	b.Jcc(isa.CondNE, "qloop")
	b.Store(isa.R15, int32(resOff), isa.R8)
	return kasm.Kernel("mibench/patricia", b.Build(), data)
}

// Stringsearch: naive substring search counting occurrences of an 8-byte
// pattern in a text buffer.
func Stringsearch(scale int) *prog.Program {
	n := 1024 * scale
	rng := rand.New(rand.NewPCG(0x57a7, 7))
	pattern := []byte("HARPOCRA")
	data := make([]byte, n+len(pattern)+8+64)
	for i := 0; i < n; i++ {
		data[i] = byte('a' + rng.IntN(26))
	}
	// Plant a handful of matches.
	for i := 0; i < 5; i++ {
		copy(data[rng.IntN(n-8):], pattern)
	}
	patOff := n
	resOff := n + len(pattern)
	copy(data[patOff:], pattern)

	b := kasm.New()
	b.MovRI(isa.R8, 0)  // match count
	b.MovRI(isa.RSI, 0) // position
	b.Label("pos")
	b.MovRI(isa.RDI, 0) // k
	b.Label("cmp")
	b.MovRR(isa.RBX, isa.RSI)
	b.AddRR(isa.RBX, isa.RDI)
	b.LoadBZXIdx(isa.RAX, isa.R15, isa.RBX, 1, 0)
	b.LoadBZXIdx(isa.RCX, isa.R15, isa.RDI, 1, int32(patOff))
	b.CmpRR(isa.RAX, isa.RCX)
	b.Jcc(isa.CondNE, "miss")
	b.Inc(isa.RDI)
	b.CmpRI(isa.RDI, int64(len(pattern)))
	b.Jcc(isa.CondNE, "cmp")
	b.Inc(isa.R8) // full match
	b.Label("miss")
	b.Inc(isa.RSI)
	b.CmpRI(isa.RSI, int64(n-len(pattern)))
	b.Jcc(isa.CondNE, "pos")
	b.Store(isa.R15, int32(resOff), isa.R8)
	return kasm.Kernel("mibench/stringsearch", b.Build(), data)
}

// Blowfish: a 16-round Feistel cipher with four 256-entry S-boxes and a
// P-array (blowfish_encrypt's structure; 32-bit arithmetic emulated with
// masked 64-bit operations).
func Blowfish(scale int) *prog.Program {
	numBlocks := 24 * scale
	rng := rand.New(rand.NewPCG(0xb10f, 8))
	// layout: P[18] at 0, S[4][256] at 144, blocks (L,R pairs) after.
	sOff := 18 * 8
	blkOff := sOff + 4*256*8
	data := make([]byte, blkOff+numBlocks*16+64)
	for i := 0; i < 18; i++ {
		putU64(data, i*8, uint64(rng.Uint32()))
	}
	for i := 0; i < 4*256; i++ {
		putU64(data, sOff+i*8, uint64(rng.Uint32()))
	}
	for i := 0; i < numBlocks*2; i++ {
		putU64(data, blkOff+i*8, uint64(rng.Uint32()))
	}

	const mask32 = 0xffffffff
	b := kasm.New()
	b.MovRI(isa.RSI, 0) // block index
	b.Label("blk")
	b.MovRR(isa.RBX, isa.RSI)
	b.ShlRI(isa.RBX, 4)                                     // block byte offset
	b.LoadIdx(isa.R8, isa.R15, isa.RBX, 1, int32(blkOff))   // L
	b.LoadIdx(isa.R9, isa.R15, isa.RBX, 1, int32(blkOff+8)) // R
	for r := 0; r < 16; r++ {
		// L ^= P[r]
		b.Load(isa.RAX, isa.R15, int32(r*8))
		b.XorRR(isa.R8, isa.RAX)
		// F(L): split bytes a,b,c,d
		b.MovRR(isa.RAX, isa.R8)
		b.ShrRI(isa.RAX, 24)
		b.AndRI(isa.RAX, 0xff)
		b.LoadIdx(isa.RDX, isa.R15, isa.RAX, 8, int32(sOff)) // S0[a]
		b.MovRR(isa.RAX, isa.R8)
		b.ShrRI(isa.RAX, 16)
		b.AndRI(isa.RAX, 0xff)
		b.AddRMIdx(isa.RDX, isa.R15, isa.RAX, 8, int32(sOff+256*8)) // + S1[b]
		b.AndRI(isa.RDX, mask32)
		b.MovRR(isa.RAX, isa.R8)
		b.ShrRI(isa.RAX, 8)
		b.AndRI(isa.RAX, 0xff)
		b.LoadIdx(isa.RCX, isa.R15, isa.RAX, 8, int32(sOff+512*8)) // S2[c]
		b.XorRR(isa.RDX, isa.RCX)
		b.MovRR(isa.RAX, isa.R8)
		b.AndRI(isa.RAX, 0xff)
		b.AddRMIdx(isa.RDX, isa.R15, isa.RAX, 8, int32(sOff+768*8)) // + S3[d]
		b.AndRI(isa.RDX, mask32)
		// R ^= F; swap
		b.XorRR(isa.R9, isa.RDX)
		b.MovRR(isa.RAX, isa.R8)
		b.MovRR(isa.R8, isa.R9)
		b.MovRR(isa.R9, isa.RAX)
	}
	// Final P mixing: R ^= P[16], L ^= P[17].
	b.Load(isa.RAX, isa.R15, 16*8)
	b.XorRR(isa.R9, isa.RAX)
	b.Load(isa.RAX, isa.R15, 17*8)
	b.XorRR(isa.R8, isa.RAX)
	b.StoreIdx(isa.R15, isa.RBX, 1, int32(blkOff), isa.R8)
	b.StoreIdx(isa.R15, isa.RBX, 1, int32(blkOff+8), isa.R9)
	b.Inc(isa.RSI)
	b.CmpRI(isa.RSI, int64(numBlocks))
	b.Jcc(isa.CondNE, "blk")
	return kasm.Kernel("mibench/blowfish", b.Build(), data)
}

// blowfishRef mirrors the kernel for verification.
func blowfishF(p, s []uint64, l uint64) uint64 {
	a := l >> 24 & 0xff
	bb := l >> 16 & 0xff
	c := l >> 8 & 0xff
	d := l & 0xff
	f := (s[a] + s[256+bb]) & 0xffffffff
	f ^= s[512+c]
	f = (f + s[768+d]) & 0xffffffff
	return f
}

// SHA: SHA-1-style 80-round compression over 512-bit blocks (32-bit
// arithmetic with rotates, the suite's sha workload).
func SHA(scale int) *prog.Program {
	numBlocks := 3 * scale
	rng := rand.New(rand.NewPCG(0x5a1, 9))
	// layout: w[16] scratch at 0, blocks at 128 (one 32-bit word per
	// 8-byte slot), digest (5 words) after.
	blkOff := 128
	digOff := blkOff + numBlocks*16*8
	data := make([]byte, digOff+5*8+64)
	for i := 0; i < numBlocks*16; i++ {
		putU64(data, blkOff+i*8, uint64(rng.Uint32()))
	}

	const mask32 = 0xffffffff
	vNot := kasm.Find(isa.OpNOT, isa.W64, isa.KReg)
	vXorRM := kasm.Find(isa.OpXOR, isa.W64, isa.KReg, isa.KMem)

	b := kasm.New()
	// emitRol32 rotates a 32-bit value held zero-extended in dst.
	emitRol32 := func(dst, tmp isa.Reg, n int64) {
		b.MovRR(tmp, dst)
		b.ShlRI(tmp, n)
		b.ShrRI(dst, 32-n)
		b.OrRR(dst, tmp)
		b.AndRI(dst, mask32)
	}
	// a..e in R8..R12 (64-bit MovRI emits movabs for wide constants).
	b.MovRI(isa.R8, 0x67452301)
	b.MovRI(isa.R9, 0xefcdab89)
	b.MovRI(isa.R10, 0x98badcfe)
	b.MovRI(isa.R11, 0x10325476)
	b.MovRI(isa.R12, 0xc3d2e1f0)

	b.MovRI(isa.R13, 0) // block counter
	b.Label("blk")
	// Load the block's 16 words into the w[] scratch area.
	b.MovRR(isa.RBX, isa.R13)
	b.ShlRI(isa.RBX, 4) // block word offset (16 words per block)
	b.MovRI(isa.RSI, 0)
	b.Label("ldw")
	b.MovRR(isa.RCX, isa.RBX)
	b.AddRR(isa.RCX, isa.RSI)
	b.LoadIdx(isa.RAX, isa.R15, isa.RCX, 8, int32(blkOff))
	b.StoreIdx(isa.R15, isa.RSI, 8, 0, isa.RAX)
	b.Inc(isa.RSI)
	b.CmpRI(isa.RSI, 16)
	b.Jcc(isa.CondNE, "ldw")

	for i := 0; i < 80; i++ {
		if i >= 16 {
			// w[i%16] = rol1(w[(i+13)%16] ^ w[(i+8)%16] ^ w[(i+2)%16] ^ w[i%16])
			b.Load(isa.RAX, isa.R15, int32((i+13)%16*8))
			b.I(vXorRM, isa.RegOp(isa.RAX), isa.MemOp(isa.R15, int32((i+8)%16*8)))
			b.I(vXorRM, isa.RegOp(isa.RAX), isa.MemOp(isa.R15, int32((i+2)%16*8)))
			b.I(vXorRM, isa.RegOp(isa.RAX), isa.MemOp(isa.R15, int32(i%16*8)))
			emitRol32(isa.RAX, isa.RDX, 1)
			b.Store(isa.R15, int32(i%16*8), isa.RAX)
		} else {
			b.Load(isa.RAX, isa.R15, int32(i*8))
		}
		// Round function f and constant k by phase.
		var k int64
		switch {
		case i < 20:
			k = 0x5a827999
			// f = (b & c) | (^b & d)
			b.MovRR(isa.RCX, isa.R9)
			b.AndRR(isa.RCX, isa.R10)
			b.MovRR(isa.RDX, isa.R9)
			b.I(vNot, isa.RegOp(isa.RDX))
			b.AndRR(isa.RDX, isa.R11)
			b.OrRR(isa.RCX, isa.RDX)
		case i < 40:
			k = 0x6ed9eba1
			b.MovRR(isa.RCX, isa.R9)
			b.XorRR(isa.RCX, isa.R10)
			b.XorRR(isa.RCX, isa.R11)
		case i < 60:
			k = 0x8f1bbcdc
			// f = (b&c) | (b&d) | (c&d)
			b.MovRR(isa.RCX, isa.R9)
			b.AndRR(isa.RCX, isa.R10)
			b.MovRR(isa.RDX, isa.R9)
			b.AndRR(isa.RDX, isa.R11)
			b.OrRR(isa.RCX, isa.RDX)
			b.MovRR(isa.RDX, isa.R10)
			b.AndRR(isa.RDX, isa.R11)
			b.OrRR(isa.RCX, isa.RDX)
		default:
			k = 0xca62c1d6
			b.MovRR(isa.RCX, isa.R9)
			b.XorRR(isa.RCX, isa.R10)
			b.XorRR(isa.RCX, isa.R11)
		}
		// tmp = rol5(a) + f + e + k + w
		b.MovRR(isa.RDI, isa.R8)
		emitRol32(isa.RDI, isa.RDX, 5)
		b.AddRR(isa.RDI, isa.RCX)
		b.AddRR(isa.RDI, isa.R12)
		b.MovRI(isa.RDX, k)
		b.AddRR(isa.RDI, isa.RDX)
		b.AddRR(isa.RDI, isa.RAX)
		b.AndRI(isa.RDI, mask32)
		// e=d d=c c=rol30(b) b=a a=tmp
		b.MovRR(isa.R12, isa.R11)
		b.MovRR(isa.R11, isa.R10)
		b.MovRR(isa.R10, isa.R9)
		emitRol32(isa.R10, isa.RDX, 30)
		b.MovRR(isa.R9, isa.R8)
		b.MovRR(isa.R8, isa.RDI)
	}
	b.Inc(isa.R13)
	b.CmpRI(isa.R13, int64(numBlocks))
	b.Jcc(isa.CondNE, "blk")
	b.Store(isa.R15, int32(digOff), isa.R8)
	b.Store(isa.R15, int32(digOff+8), isa.R9)
	b.Store(isa.R15, int32(digOff+16), isa.R10)
	b.Store(isa.R15, int32(digOff+24), isa.R11)
	b.Store(isa.R15, int32(digOff+32), isa.R12)
	return kasm.Kernel("mibench/sha", b.Build(), data)
}

// ADPCM: IMA-ADPCM-style decode of 4-bit samples with step/index tables
// and clamping via conditional moves.
func ADPCM(scale int) *prog.Program {
	n := 512 * scale
	rng := rand.New(rand.NewPCG(0xadc, 10))
	// layout: stepTable[89] at 0, indexTable[16] at 712, nibbles (one per
	// byte) at 840, samples after.
	stepOff := 0
	idxOff := 89 * 8
	nibOff := idxOff + 16*8
	outOff := nibOff + n
	if rem := outOff % 8; rem != 0 {
		outOff += 8 - rem
	}
	data := make([]byte, outOff+n*8+64)
	step := 7.0
	for i := 0; i < 89; i++ {
		putU64(data, stepOff+i*8, uint64(int64(step)))
		step *= 1.1
	}
	idxTab := []int64{-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8}
	for i, v := range idxTab {
		putU64(data, idxOff+i*8, uint64(v))
	}
	for i := 0; i < n; i++ {
		data[nibOff+i] = byte(rng.IntN(16))
	}

	b := kasm.New()
	b.MovRI(isa.R8, 0)  // predicted value
	b.MovRI(isa.R9, 0)  // index
	b.MovRI(isa.RSI, 0) // sample counter
	b.Label("loop")
	b.LoadBZXIdx(isa.RAX, isa.R15, isa.RSI, 1, int32(nibOff)) // nibble
	b.LoadIdx(isa.RBX, isa.R15, isa.R9, 8, int32(stepOff))    // step
	// diff = step>>3 + (bit2?step:0) + (bit1?step>>1:0) + (bit0?step>>2:0)
	b.MovRR(isa.RCX, isa.RBX)
	b.ShrRI(isa.RCX, 3)
	b.MovRI(isa.RDI, 0)
	b.I(kasm.Find(isa.OpBT, isa.W64, isa.KReg, isa.KImm), isa.RegOp(isa.RAX), isa.ImmOp(2))
	b.CmovRR(isa.CondB, isa.RDI, isa.RBX) // CF set by BT
	b.AddRR(isa.RCX, isa.RDI)
	b.MovRR(isa.RDX, isa.RBX)
	b.ShrRI(isa.RDX, 1)
	b.MovRI(isa.RDI, 0)
	b.I(kasm.Find(isa.OpBT, isa.W64, isa.KReg, isa.KImm), isa.RegOp(isa.RAX), isa.ImmOp(1))
	b.CmovRR(isa.CondB, isa.RDI, isa.RDX)
	b.AddRR(isa.RCX, isa.RDI)
	b.MovRR(isa.RDX, isa.RBX)
	b.ShrRI(isa.RDX, 2)
	b.MovRI(isa.RDI, 0)
	b.I(kasm.Find(isa.OpBT, isa.W64, isa.KReg, isa.KImm), isa.RegOp(isa.RAX), isa.ImmOp(0))
	b.CmovRR(isa.CondB, isa.RDI, isa.RDX)
	b.AddRR(isa.RCX, isa.RDI)
	// sign (bit 3): predicted +/- diff
	b.MovRR(isa.RDX, isa.R8)
	b.SubRR(isa.RDX, isa.RCX)
	b.AddRR(isa.RCX, isa.R8)
	b.I(kasm.Find(isa.OpBT, isa.W64, isa.KReg, isa.KImm), isa.RegOp(isa.RAX), isa.ImmOp(3))
	b.CmovRR(isa.CondB, isa.RCX, isa.RDX)
	b.MovRR(isa.R8, isa.RCX)
	// index += indexTable[nibble]; clamp to [0, 88]
	b.LoadIdx(isa.RDX, isa.R15, isa.RAX, 8, int32(idxOff))
	b.AddRR(isa.R9, isa.RDX)
	b.MovRI(isa.RDI, 0)
	b.CmpRI(isa.R9, 0)
	b.CmovRR(isa.CondL, isa.R9, isa.RDI)
	b.MovRI(isa.RDI, 88)
	b.CmpRI(isa.R9, 88)
	b.CmovRR(isa.CondG, isa.R9, isa.RDI)
	// store sample
	b.StoreIdx(isa.R15, isa.RSI, 8, int32(outOff), isa.R8)
	b.Inc(isa.RSI)
	b.CmpRI(isa.RSI, int64(n))
	b.Jcc(isa.CondNE, "loop")
	return kasm.Kernel("mibench/adpcm", b.Build(), data)
}

// FFT: a direct DFT over a power-of-two-length real signal with
// precomputed twiddle tables (the suite's FFT workload; FP heavy).
func FFT(scale int) *prog.Program {
	const n = 32
	passes := scale
	rng := rand.New(rand.NewPCG(0xff7, 11))
	// layout: x[n] at 0, cos[n], sin[n], re[n], im[n].
	cosOff := n * 8
	sinOff := 2 * n * 8
	reOff := 3 * n * 8
	imOff := 4 * n * 8
	data := make([]byte, 5*n*8+64)
	for i := 0; i < n; i++ {
		putU64(data, i*8, math.Float64bits(rng.Float64()*2-1))
		putU64(data, cosOff+i*8, math.Float64bits(math.Cos(2*math.Pi*float64(i)/n)))
		putU64(data, sinOff+i*8, math.Float64bits(math.Sin(2*math.Pi*float64(i)/n)))
	}

	b := kasm.New()
	b.MovRI(isa.R13, 0) // pass
	b.Label("pass")
	b.MovRI(isa.RSI, 0) // k
	b.Label("kloop")
	b.XorRR(isa.RAX, isa.RAX)
	b.CvtSI2SD(0, isa.RAX) // xmm0 = sumRe = 0
	b.MovSDxx(1, 0)        // xmm1 = sumIm = 0
	b.MovRI(isa.RDI, 0)    // index
	b.Label("nloop")
	// idx = (k*index) & (n-1)
	b.MovRR(isa.RBX, isa.RSI)
	b.ImulRR(isa.RBX, isa.RDI)
	b.AndRI(isa.RBX, n-1)
	b.LoadSDIdx(2, isa.R15, isa.RDI, 8, 0)             // xmm2 = x[index]
	b.LoadSDIdx(3, isa.R15, isa.RBX, 8, int32(cosOff)) // xmm3 = cos
	b.MulSD(3, 2)
	b.AddSD(0, 3) // sumRe += x*cos
	b.LoadSDIdx(3, isa.R15, isa.RBX, 8, int32(sinOff))
	b.MulSD(3, 2)
	b.SubSD(1, 3) // sumIm -= x*sin
	b.Inc(isa.RDI)
	b.CmpRI(isa.RDI, n)
	b.Jcc(isa.CondNE, "nloop")
	b.StoreSDIdx(isa.R15, isa.RSI, 8, int32(reOff), 0)
	b.StoreSDIdx(isa.R15, isa.RSI, 8, int32(imOff), 1)
	b.Inc(isa.RSI)
	b.CmpRI(isa.RSI, n)
	b.Jcc(isa.CondNE, "kloop")
	b.Inc(isa.R13)
	b.CmpRI(isa.R13, int64(passes))
	b.Jcc(isa.CondNE, "pass")
	return kasm.Kernel("mibench/fft", b.Build(), data)
}
