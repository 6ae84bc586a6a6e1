package inject

import (
	"bytes"
	"hash/fnv"
	"runtime"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/uarch"
)

// TestGoldenBundlePinned pins the HXGA bytes of a fixed tiny program
// under DefaultConfig by length and FNV-64a digest, so no byte of the
// layout moves unnoticed; a change to the simulator's golden run (not to
// the codec) legitimately changes them. Re-pinned for HXGA v2, which
// stores a checkpoint's present memory pages instead of every region
// whole (v1: 4,850,027 bytes, three 1 MiB zero stacks among them),
// again when the µop record lost its waitSrc byte to the wake-up issue
// stage (1,704,623 bytes: one byte less for each of 190 µop records),
// again when the golden run began keeping a checkpoint at cycle 0
// (1,704,433 bytes: one checkpoint fewer), and again when it began
// keeping one every 128 cycles, with trajectory points that
// hash the cache a chunk digest at a time (1,859,458 bytes: 4 of this
// 1,618-cycle run's checkpoints instead of 13), and again when the delta
// fold began finishing each word (same length, new trajectory digests)
// and a scalar XMM read-modify-write began reading all 128 bits of its
// destination (3,347,533 bytes, 15,360 more than before: the FPRF
// interval log records the upper lane it consumes), and again when the
// issue stage's port and unit counters and oldest-store sequence number
// became locals and the checkpoint core's IBR counters, which a capture
// always zeroes, left the walk (3,343,685 bytes: (2 + isa.NumUnits) × 8
// = 104 plus 2 × 8 × coverage.NumStructures = 192 bytes less for each of
// the 13 checkpoints).
func TestGoldenBundlePinned(t *testing.T) {
	const (
		wantLen    = 3343685
		wantDigest = 0x78ef2b117a86d237
	)
	c := testProgram(t, 400, nil)
	c.Target = coverage.IRF
	c.Type = Transient
	c.N = 8
	ga := c.computeGoldenArtifacts()
	defer ga.Release()
	if len(ga.Checkpoints) == 0 || ga.Trajectory == nil || ga.Result.L1DIntervals == nil {
		t.Fatal("golden bundle missing instrumentation")
	}
	data, err := uarch.EncodeGoldenArtifacts(ga)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	if len(data) != wantLen || h.Sum64() != wantDigest {
		t.Fatalf("bundle is %d bytes, digest %#x; pinned %d bytes, digest %#x",
			len(data), h.Sum64(), wantLen, uint64(wantDigest))
	}
	dec, err := uarch.DecodeGoldenArtifacts(data, c.Prog)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Release()
	again, err := uarch.EncodeGoldenArtifacts(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("Encode(Decode(b)) != b")
	}
}

// TestGoldenBundleIgnoresPoolHistory: HXGA bytes are a pure function of
// (program, config). A bundle computed on pooled cores that last ran a
// different, longer program must equal, byte for byte, the bundle from
// fresh cores (two collections empty every sync.Pool).
func TestGoldenBundleIgnoresPoolHistory(t *testing.T) {
	encode := func(instrs int, seed uint64) []byte {
		c := testProgram(t, instrs, nil)
		c.Seed = seed
		c.Target = coverage.IRF
		c.Type = Transient
		c.N = 8
		ga := c.computeGoldenArtifacts()
		defer ga.Release()
		data, err := uarch.EncodeGoldenArtifacts(ga)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	runtime.GC()
	runtime.GC()
	fresh := encode(400, 7)
	for round := 0; round < 3; round++ {
		// Leave the pools full of cores, checkpoints and recorders that
		// hold another program's ROB, L2 tags and interval logs.
		encode(1500, 8)
		if dirty := encode(400, 7); !bytes.Equal(dirty, fresh) {
			t.Fatalf("round %d: bundle from dirty pooled cores differs from the fresh-core bundle", round)
		}
	}
}
