package stats

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWilsonBounds(t *testing.T) {
	lo, hi := Wilson(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("Wilson(50,100) = [%f,%f] must bracket 0.5", lo, hi)
	}
	lo, hi = Wilson(0, 100)
	if lo != 0 || hi < 0.01 || hi > 0.1 {
		t.Fatalf("Wilson(0,100) = [%f,%f]", lo, hi)
	}
	lo, hi = Wilson(100, 100)
	// Mathematically the upper bound at k=n is exactly 1; allow float
	// rounding. The lower bound at n=100 is ~0.963.
	if hi < 1-1e-9 || lo > 0.99 || lo < 0.9 {
		t.Fatalf("Wilson(100,100) = [%.12f,%.12f]", lo, hi)
	}
	lo, hi = Wilson(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("Wilson(0,0) = [%f,%f], want [0,1]", lo, hi)
	}
}

func TestWilsonProperty(t *testing.T) {
	f := func(k, n uint16) bool {
		kk := int(k % 1000)
		nn := kk + int(n%1000)
		lo, hi := Wilson(kk, nn)
		if lo < 0 || hi > 1 || lo > hi {
			return false
		}
		if nn > 0 {
			p := float64(kk) / float64(nn)
			return lo <= p+1e-12 && hi >= p-1e-12
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonNarrowsWithN(t *testing.T) {
	lo1, hi1 := Wilson(5, 10)
	lo2, hi2 := Wilson(500, 1000)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("interval must narrow with sample size")
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(42, 7).Uint64()
	b := Derive(42, 7).Uint64()
	c := Derive(42, 8).Uint64()
	if a != b {
		t.Fatal("Derive not deterministic")
	}
	if a == c {
		t.Fatal("Derive does not separate subtasks")
	}
}

func TestMix64(t *testing.T) {
	if Mix64(HashInit, 1) == Mix64(HashInit, 2) {
		t.Fatal("Mix64 collides on adjacent words")
	}
	// Order sensitivity: folding (a, b) must differ from (b, a).
	ab := Mix64(Mix64(HashInit, 3), 4)
	ba := Mix64(Mix64(HashInit, 4), 3)
	if ab == ba {
		t.Fatal("Mix64 chain is order-insensitive")
	}
	if Mix64(HashInit, 5) != Mix64(HashInit, 5) {
		t.Fatal("Mix64 not deterministic")
	}
	// Dispersion sanity: single-bit input changes flip ~half the bits.
	f := func(v uint64) bool {
		d := Mix64(HashInit, v) ^ Mix64(HashInit, v^1)
		n := 0
		for ; d != 0; d &= d - 1 {
			n++
		}
		return n >= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// HashBytes is defined by the per-byte Mix64 chain and implemented by
// its closed form; corpus filenames, result-cache keys and golden keys
// on disk depend on the two never diverging. The literals were recorded
// from the Mix64-loop implementation.
func TestHashBytesMatchesMix64Chain(t *testing.T) {
	chain := func(h uint64, data []byte) uint64 {
		for _, b := range data {
			h = Mix64(h, uint64(b))
		}
		return h
	}
	rng := rand.New(rand.NewPCG(17, 4))
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.IntN(4097))
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		if got, want := HashBytes(data), chain(HashInit, data); got != want {
			t.Fatalf("HashBytes(%d bytes) = %#x, Mix64 chain = %#x", len(data), got, want)
		}
		seed := rng.Uint64()
		if got, want := MixBytes(seed, data), chain(seed, data); got != want {
			t.Fatalf("MixBytes(%#x, %d bytes) = %#x, Mix64 chain = %#x", seed, len(data), got, want)
		}
	}
	ramp := make([]byte, 1000)
	for i := range ramp {
		ramp[i] = byte(i*7 + 3)
	}
	for _, v := range []struct {
		data []byte
		want uint64
	}{
		{nil, HashInit},
		{[]byte("harpocrates"), 0x8b8ce8337aa8e33},
		{ramp, 0x3c69012f8dcb86c5},
	} {
		if got := HashBytes(v.data); got != v.want {
			t.Errorf("HashBytes(%d bytes) = %#x, recorded %#x", len(v.data), got, v.want)
		}
	}
}

var hashSink uint64

func BenchmarkHashBytes(b *testing.B) {
	data := make([]byte, 40<<10) // one HXPG program of the fleet workloads
	for i := range data {
		data[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		hashSink = HashBytes(data)
	}
}
