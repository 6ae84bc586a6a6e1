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
// under DefaultConfig by length and FNV-64a digest. The constants were
// recorded from the binary of the commit before the codec moved onto
// internal/binfmt, so this test passing is the proof that no byte of
// the layout moved; a change to the simulator's golden run (not to the
// codec) legitimately changes them.
func TestGoldenBundlePinned(t *testing.T) {
	const (
		wantLen    = 4850027
		wantDigest = 0x9402ba936b7c6111
	)
	// A bundle carries a few dead fields as it finds them (the next-PC of
	// a µop that has not executed, tags of invalid L2 lines), so its bytes
	// depend on what the pooled core ran before. Two collections empty
	// every sync.Pool; the golden run then starts from fresh, zeroed cores
	// — the state the constants were recorded in.
	runtime.GC()
	runtime.GC()
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
