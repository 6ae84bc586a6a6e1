package mibench

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// runKernel executes a kernel on the functional emulator and returns the
// final data region contents.
func runKernel(t *testing.T, p *prog.Program) []byte {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := p.NewState()
	if _, err := arch.Run(p.Insts, s, 100_000_000); err != nil {
		t.Fatalf("%s crashed: %v", p.Name, err)
	}
	return s.Mem.(*arch.Memory).RegionBytes("data")
}

func getU64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

func TestBasicmath(t *testing.T) {
	p := Basicmath(1)
	mem := runKernel(t, p)
	if got, want := getU64(mem, 0), basicmathRef(1); got != want {
		t.Fatalf("basicmath = %#x, want %#x", got, want)
	}
}

func TestBitcount(t *testing.T) {
	p := Bitcount(1)
	in := p.Regions[0].Data
	n := 256
	want := uint64(0)
	for i := 0; i < n; i++ {
		v := getU64(in, i*8)
		for v != 0 {
			v &= v - 1
			want++
		}
	}
	mem := runKernel(t, p)
	if got := getU64(mem, n*8); got != want {
		t.Fatalf("bitcount = %d, want %d", got, want)
	}
}

func TestQsortSorts(t *testing.T) {
	p := Qsort(1)
	in := p.Regions[0].Data
	n := 192
	want := make([]uint64, n)
	for i := range want {
		want[i] = getU64(in, i*8)
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	mem := runKernel(t, p)
	for i := 0; i < n; i++ {
		if got := getU64(mem, i*8); got != want[i] {
			t.Fatalf("qsort[%d] = %d, want %d", i, got, want[i])
		}
	}
}

func TestSusan(t *testing.T) {
	p := Susan(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	side := 32
	mem := runKernel(t, p)
	for y := 1; y < side-1; y++ {
		for x := 1; x < side-1; x++ {
			sum := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					sum += int(in[(y+dy)*side+(x+dx)])
				}
			}
			want := byte(sum >> 3)
			if got := mem[side*side+y*side+x]; got != want {
				t.Fatalf("susan(%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestDCT(t *testing.T) {
	p := DCT(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	blocks := 4
	outBase := 512 + blocks*512
	mem := runKernel(t, p)
	coeff := func(k, j int) int64 { return int64(getU64(in, (k*8+j)*8)) }
	for blk := 0; blk < blocks; blk++ {
		base := 512 + blk*512
		for k := 0; k < 8; k++ {
			for c := 0; c < 8; c++ {
				acc := int64(0)
				for j := 0; j < 8; j++ {
					acc += coeff(k, j) * int64(getU64(in, base+(j*8+c)*8))
				}
				want := uint64(acc >> 3)
				if got := getU64(mem, outBase+blk*512+(k*8+c)*8); got != want {
					t.Fatalf("dct blk %d out[%d][%d] = %d, want %d", blk, k, c, got, want)
				}
			}
		}
	}
}

func TestDijkstra(t *testing.T) {
	p := Dijkstra(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	nodes := 16
	rounds := nodes
	const inf = uint64(1) << 40
	dist := make([]uint64, nodes)
	for v := 1; v < nodes; v++ {
		dist[v] = inf
	}
	for r := 0; r < rounds; r++ {
		for u := 0; u < nodes; u++ {
			du := dist[u]
			for v := 0; v < nodes; v++ {
				cand := du + getU64(in, (u*nodes+v)*8)
				if cand < dist[v] {
					dist[v] = cand
				}
			}
		}
	}
	mem := runKernel(t, p)
	for v := 0; v < nodes; v++ {
		if got := getU64(mem, nodes*nodes*8+v*8); got != dist[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got, dist[v])
		}
	}
}

func TestPatricia(t *testing.T) {
	p := Patricia(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	const nodes = 127
	numQ := 200
	qOff := nodes * 32
	resOff := qOff + numQ*8
	acc := uint64(0)
	for q := 0; q < numQ; q++ {
		key := getU64(in, qOff+q*8)
		idx := uint64(0)
		for idx != ^uint64(0) {
			base := int(idx) * 32
			nk := getU64(in, base)
			if key == nk {
				acc ^= getU64(in, base+24)
				break
			}
			if key > nk {
				idx = getU64(in, base+16)
			} else {
				idx = getU64(in, base+8)
			}
		}
	}
	mem := runKernel(t, p)
	if got := getU64(mem, resOff); got != acc {
		t.Fatalf("patricia acc = %#x, want %#x", got, acc)
	}
}

func TestStringsearch(t *testing.T) {
	p := Stringsearch(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	n := 1024
	pat := in[n : n+8]
	want := uint64(0)
	for pos := 0; pos < n-8; pos++ {
		match := true
		for k := 0; k < 8; k++ {
			if in[pos+k] != pat[k] {
				match = false
				break
			}
		}
		if match {
			want++
		}
	}
	if want == 0 {
		t.Fatal("test setup: no planted matches survive")
	}
	mem := runKernel(t, p)
	if got := getU64(mem, n+8); got != want {
		t.Fatalf("stringsearch = %d, want %d", got, want)
	}
}

func TestBlowfish(t *testing.T) {
	p := Blowfish(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	numBlocks := 24
	sOff := 18 * 8
	blkOff := sOff + 4*256*8
	pArr := make([]uint64, 18)
	for i := range pArr {
		pArr[i] = getU64(in, i*8)
	}
	sArr := make([]uint64, 4*256)
	for i := range sArr {
		sArr[i] = getU64(in, sOff+i*8)
	}
	mem := runKernel(t, p)
	for blk := 0; blk < numBlocks; blk++ {
		l := getU64(in, blkOff+blk*16)
		r := getU64(in, blkOff+blk*16+8)
		for round := 0; round < 16; round++ {
			l ^= pArr[round]
			r ^= blowfishF(pArr, sArr, l)
			l, r = r, l
		}
		r ^= pArr[16]
		l ^= pArr[17]
		if getU64(mem, blkOff+blk*16) != l || getU64(mem, blkOff+blk*16+8) != r {
			t.Fatalf("blowfish block %d mismatch", blk)
		}
	}
}

func TestSHA(t *testing.T) {
	p := SHA(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	numBlocks := 3
	blkOff := 128
	digOff := blkOff + numBlocks*16*8
	a, b, c, d, e := uint64(0x67452301), uint64(0xefcdab89), uint64(0x98badcfe), uint64(0x10325476), uint64(0xc3d2e1f0)
	rol := func(x uint64, n uint) uint64 { return (x<<n | x>>(32-n)) & 0xffffffff }
	for blk := 0; blk < numBlocks; blk++ {
		var w [16]uint64
		for i := 0; i < 16; i++ {
			w[i] = getU64(in, blkOff+(blk*16+i)*8)
		}
		for i := 0; i < 80; i++ {
			var wi uint64
			if i >= 16 {
				wi = rol(w[(i+13)%16]^w[(i+8)%16]^w[(i+2)%16]^w[i%16], 1)
				w[i%16] = wi
			} else {
				wi = w[i]
			}
			var f, k uint64
			switch {
			case i < 20:
				f = (b & c) | (^b & d)
				k = 0x5a827999
			case i < 40:
				f = b ^ c ^ d
				k = 0x6ed9eba1
			case i < 60:
				f = (b & c) | (b & d) | (c & d)
				k = 0x8f1bbcdc
			default:
				f = b ^ c ^ d
				k = 0xca62c1d6
			}
			// NOTE: the kernel's ^b is a 64-bit NOT; the AND with d (a
			// 32-bit value) discards the high garbage, matching Go's ^b
			// over 64 bits ANDed with d.
			tmp := (rol(a, 5) + f + e + k + wi) & 0xffffffff
			e, d, c, b, a = d, c, rol(b, 30), a, tmp
		}
	}
	mem := runKernel(t, p)
	got := []uint64{getU64(mem, digOff), getU64(mem, digOff+8), getU64(mem, digOff+16), getU64(mem, digOff+24), getU64(mem, digOff+32)}
	want := []uint64{a, b, c, d, e}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sha digest[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestADPCM(t *testing.T) {
	p := ADPCM(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	n := 512
	idxOff := 89 * 8
	nibOff := idxOff + 16*8
	outOff := nibOff + n
	if rem := outOff % 8; rem != 0 {
		outOff += 8 - rem
	}
	step := make([]uint64, 89)
	for i := range step {
		step[i] = getU64(in, i*8)
	}
	idxTab := make([]int64, 16)
	for i := range idxTab {
		idxTab[i] = int64(getU64(in, idxOff+i*8))
	}
	pred := uint64(0)
	index := int64(0)
	mem := runKernel(t, p)
	for i := 0; i < n; i++ {
		nib := uint64(in[nibOff+i])
		st := step[index]
		diff := st >> 3
		if nib&4 != 0 {
			diff += st
		}
		if nib&2 != 0 {
			diff += st >> 1
		}
		if nib&1 != 0 {
			diff += st >> 2
		}
		if nib&8 != 0 {
			pred -= diff
		} else {
			pred += diff
		}
		index += idxTab[nib]
		if index < 0 {
			index = 0
		}
		if index > 88 {
			index = 88
		}
		if got := getU64(mem, outOff+i*8); got != pred {
			t.Fatalf("adpcm sample %d = %#x, want %#x", i, got, pred)
		}
	}
}

func TestFFT(t *testing.T) {
	p := FFT(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	const n = 32
	x := make([]float64, n)
	cosT := make([]float64, n)
	sinT := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = math.Float64frombits(getU64(in, i*8))
		cosT[i] = math.Float64frombits(getU64(in, n*8+i*8))
		sinT[i] = math.Float64frombits(getU64(in, 2*n*8+i*8))
	}
	mem := runKernel(t, p)
	for k := 0; k < n; k++ {
		re, im := 0.0, 0.0
		for j := 0; j < n; j++ {
			idx := (k * j) & (n - 1)
			re += x[j] * cosT[idx]
			im -= x[j] * sinT[idx]
		}
		gotRe := math.Float64frombits(getU64(mem, 3*n*8+k*8))
		gotIm := math.Float64frombits(getU64(mem, 4*n*8+k*8))
		if gotRe != re || gotIm != im {
			t.Fatalf("fft[%d] = (%g, %g), want (%g, %g)", k, gotRe, gotIm, re, im)
		}
	}
}

// All twelve kernels must also run identically on the out-of-order core.
func TestKernelsOnCore(t *testing.T) {
	cfg := uarch.DefaultConfig()
	for _, p := range Programs(1) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			s := p.NewState()
			if _, err := arch.Run(p.Insts, s, 100_000_000); err != nil {
				t.Fatalf("emulator: %v", err)
			}
			res := uarch.Run(p.Insts, p.NewState(), cfg)
			if res.Crash != nil || res.TimedOut {
				t.Fatalf("core failed: %v timeout=%v", res.Crash, res.TimedOut)
			}
			if res.Signature != s.Signature() {
				t.Fatal("core/emulator signature mismatch")
			}
			if res.Branches == 0 {
				t.Fatal("kernel committed no branches")
			}
			t.Logf("%s: %d instructions, %d cycles, IPC %.2f, %d mispredicts",
				p.Name, res.Instructions, res.Cycles,
				float64(res.Instructions)/float64(res.Cycles), res.Mispredicts)
		})
	}
}

func TestProgramsDeterministic(t *testing.T) {
	for _, p := range Programs(1) {
		if !p.Deterministic(100_000_000) {
			t.Fatalf("%s is nondeterministic", p.Name)
		}
	}
}

// Larger scales must still run cleanly and deterministically (their Go
// references are pinned to scale 1; behavioural checks suffice here).
func TestKernelsAtScale2(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range Programs(2) {
		s := p.NewState()
		if _, err := arch.Run(p.Insts, s, 400_000_000); err != nil {
			t.Fatalf("%s at scale 2 crashed: %v", p.Name, err)
		}
		if !p.Deterministic(400_000_000) {
			t.Fatalf("%s at scale 2 nondeterministic", p.Name)
		}
	}
}
