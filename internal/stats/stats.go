// Package stats provides the small statistical toolkit used by the
// fault-injection campaigns and experiment harnesses: Wilson confidence
// intervals for detection-capability estimates (the paper's SFI follows
// the statistical methodology of Leveugle et al. [50]), summary
// statistics, and deterministic per-task RNG derivation.
package stats

import (
	"math"
	"math/rand/v2"
)

// Wilson returns the Wilson score interval for k successes out of n at
// ~95% confidence (z = 1.96).
func Wilson(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Derive returns a deterministic RNG for subtask i of a seeded job, so
// parallel campaigns are reproducible regardless of scheduling.
func Derive(seed uint64, i int) *rand.Rand {
	return rand.New(DeriveSource(seed, i))
}

// DeriveSource returns the PCG source behind Derive. Callers that need
// to persist and restore the generator state (campaign checkpointing)
// hold on to the source — *rand.PCG implements encoding.BinaryMarshaler
// — and wrap it in rand.New themselves; the stream is bit-identical to
// Derive(seed, i).
func DeriveSource(seed uint64, i int) *rand.PCG {
	return rand.NewPCG(seed, splitmix(seed^uint64(i)*0x9e3779b97f4a7c15))
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashInit is the starting value for Mix64 chains (the 64-bit FNV-1a
// offset basis).
const HashInit uint64 = 14695981039346656037

const (
	fnvPrime = 1099511628211
	mask64   = 1<<64 - 1
	// fnvPrime8 is fnvPrime^8 mod 2^64, squared up in steps so no
	// intermediate constant needs more than 128 bits.
	fnvPrime2 = fnvPrime * fnvPrime & mask64
	fnvPrime4 = fnvPrime2 * fnvPrime2 & mask64
	fnvPrime8 = fnvPrime4 * fnvPrime4 & mask64
)

// Mix64 folds v into the running content hash h (FNV-1a over v's eight
// bytes). Used to key memoization caches by value identity: start from
// HashInit and fold each word of the structure in a fixed order.
func Mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// MixBytes folds each byte of data into h as Mix64(h, uint64(b)) would,
// in its closed form: for a value below 256 seven of Mix64's eight
// rounds xor in zero, so the chain step is (h ^ b) * fnvPrime^8 — one
// multiply per byte instead of eight, bit for bit the same hash.
func MixBytes(h uint64, data []byte) uint64 {
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime8
	}
	return h
}

// HashBytes folds arbitrary bytes with the Mix64 chain — the single
// content-hashing convention shared by corpus filenames, the queue
// result-cache keys and the golden artifact cache, so every subsystem
// agrees about what "same content" means.
func HashBytes(data []byte) uint64 { return MixBytes(HashInit, data) }
