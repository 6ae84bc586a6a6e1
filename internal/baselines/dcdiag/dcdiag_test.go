package dcdiag

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"harpocrates/internal/arch"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

func runKernel(t *testing.T, p *prog.Program) []byte {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := p.NewState()
	if _, err := arch.Run(p.Insts, s, 200_000_000); err != nil {
		t.Fatalf("%s crashed: %v", p.Name, err)
	}
	return s.Mem.(*arch.Memory).RegionBytes("data")
}

func getU64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

func TestCompressRoundTrips(t *testing.T) {
	p := Compress(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	n := 1536
	outOff := n
	lenOff := n + 2*n
	lenOff += (8 - lenOff%8) % 8
	mem := runKernel(t, p)
	outLen := int(getU64(mem, lenOff))
	if outLen <= 0 || outLen >= 2*n {
		t.Fatalf("implausible compressed length %d", outLen)
	}
	// Decode the RLE stream and compare with the input.
	var dec []byte
	for i := 0; i < outLen; i += 2 {
		run := int(mem[outOff+i])
		v := mem[outOff+i+1]
		for k := 0; k < run; k++ {
			dec = append(dec, v)
		}
	}
	if len(dec) != n {
		t.Fatalf("decoded %d bytes, want %d", len(dec), n)
	}
	for i := range dec {
		if dec[i] != in[i] {
			t.Fatalf("decode mismatch at %d", i)
		}
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	p := CRC32(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	n := 768
	mem := runKernel(t, p)
	want := uint64(crc32.ChecksumIEEE(in[:n]))
	if got := getU64(mem, n); got != want {
		t.Fatalf("crc32 = %#x, want %#x", got, want)
	}
}

func TestCipherXTEA(t *testing.T) {
	p := Cipher(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	numBlocks := 24
	blkOff := 32
	var key [4]uint32
	for i := range key {
		key[i] = uint32(getU64(in, i*8))
	}
	mem := runKernel(t, p)
	for blk := 0; blk < numBlocks; blk++ {
		v0 := uint32(getU64(in, blkOff+blk*16))
		v1 := uint32(getU64(in, blkOff+blk*16+8))
		var sum uint32
		for r := 0; r < 32; r++ {
			v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum&3])
			sum += 0x9e3779b9
			v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum>>11)&3])
		}
		if uint32(getU64(mem, blkOff+blk*16)) != v0 || uint32(getU64(mem, blkOff+blk*16+8)) != v1 {
			t.Fatalf("xtea block %d mismatch", blk)
		}
	}
}

func TestMxMInt(t *testing.T) {
	p := MxMInt(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	n := 12
	mem := runKernel(t, p)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := int64(0)
			for k := 0; k < n; k++ {
				acc += int64(getU64(in, (i*n+k)*8)) * int64(getU64(in, n*n*8+(k*n+j)*8))
			}
			if got := int64(getU64(mem, 2*n*n*8+(i*n+j)*8)); got != acc {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, got, acc)
			}
		}
	}
}

func TestMxMFP(t *testing.T) {
	p := MxMFP(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	n := 10
	mem := runKernel(t, p)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < n; k++ {
				a := math.Float64frombits(getU64(in, (i*n+k)*8))
				bb := math.Float64frombits(getU64(in, n*n*8+(k*n+j)*8))
				acc += a * bb
			}
			got := math.Float64frombits(getU64(mem, 2*n*n*8+(i*n+j)*8))
			if got != acc {
				t.Fatalf("C[%d][%d] = %g, want %g", i, j, got, acc)
			}
		}
	}
}

func TestSVDOrthogonalizes(t *testing.T) {
	p := SVD(4) // extra sweeps for convergence
	const n = 6
	mem := runKernel(t, p)
	a := make([]float64, n*n)
	for i := range a {
		a[i] = math.Float64frombits(getU64(mem, i*8))
	}
	// After Jacobi sweeps, columns must be (nearly) pairwise orthogonal.
	for pCol := 0; pCol < n-1; pCol++ {
		for q := pCol + 1; q < n; q++ {
			dot, np, nq := 0.0, 0.0, 0.0
			for i := 0; i < n; i++ {
				dot += a[i*n+pCol] * a[i*n+q]
				np += a[i*n+pCol] * a[i*n+pCol]
				nq += a[i*n+q] * a[i*n+q]
			}
			cosang := math.Abs(dot) / math.Sqrt(np*nq)
			if cosang > 1e-6 {
				t.Fatalf("columns %d,%d not orthogonal after sweeps: cos=%g", pCol, q, cosang)
			}
		}
	}
}

func TestSVDPreservesFrobeniusNorm(t *testing.T) {
	p := SVD(1)
	in := append([]byte(nil), p.Regions[0].Data...)
	const n = 6
	before := 0.0
	for i := 0; i < n*n; i++ {
		v := math.Float64frombits(getU64(in, i*8))
		before += v * v
	}
	mem := runKernel(t, p)
	after := 0.0
	for i := 0; i < n*n; i++ {
		v := math.Float64frombits(getU64(mem, i*8))
		after += v * v
	}
	if math.Abs(before-after) > 1e-9*before {
		t.Fatalf("rotations changed the Frobenius norm: %g -> %g", before, after)
	}
}

func TestMemtestFindsNoErrors(t *testing.T) {
	p := Memtest(1)
	words := 1024
	mem := runKernel(t, p)
	if got := getU64(mem, words*8); got != 0 {
		t.Fatalf("memtest reported %d mismatches on healthy memory", got)
	}
	// The buffer must hold the final pattern.
	const k = 0x9e3779b97f4a7c15
	for i := 0; i < words; i++ {
		want := uint64(i)*k ^ 0x5555555555555555
		if getU64(mem, i*8) != want {
			t.Fatalf("word %d = %#x, want %#x", i, getU64(mem, i*8), want)
		}
	}
}

func TestStressRuns(t *testing.T) {
	p := Stress(1)
	mem := runKernel(t, p)
	if getU64(mem, 16) == 0x123456789 {
		t.Fatal("integer accumulator unchanged")
	}
	x := math.Float64frombits(getU64(mem, 24))
	if math.IsNaN(x) || math.IsInf(x, 0) {
		t.Fatalf("fp accumulator degenerated: %g", x)
	}
}

func TestSuiteOnCore(t *testing.T) {
	cfg := uarch.DefaultConfig()
	for _, p := range Programs(1) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			s := p.NewState()
			if _, err := arch.Run(p.Insts, s, 200_000_000); err != nil {
				t.Fatalf("emulator: %v", err)
			}
			res := uarch.Run(p.Insts, p.NewState(), cfg)
			if res.Crash != nil || res.TimedOut {
				t.Fatalf("core failed: %v timeout=%v", res.Crash, res.TimedOut)
			}
			if res.Signature != s.Signature() {
				t.Fatal("core/emulator signature mismatch")
			}
			t.Logf("%s: %d instructions, %d cycles, IPC %.2f",
				p.Name, res.Instructions, res.Cycles,
				float64(res.Instructions)/float64(res.Cycles))
		})
	}
}

func TestSuiteDeterministic(t *testing.T) {
	for _, p := range Programs(1) {
		if !p.Deterministic(200_000_000) {
			t.Fatalf("%s is nondeterministic", p.Name)
		}
	}
}

func TestSuiteAtScale2(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range Programs(2) {
		s := p.NewState()
		if _, err := arch.Run(p.Insts, s, 400_000_000); err != nil {
			t.Fatalf("%s at scale 2 crashed: %v", p.Name, err)
		}
	}
}
