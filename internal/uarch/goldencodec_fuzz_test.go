package uarch

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
	"harpocrates/internal/binfmt/binfmttest"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
)

// smallBundle computes the golden artifacts of a 50-instruction program
// on a deliberately small core (1 KiB L1D, no L2, 16-entry gshare) with
// every section populated — all three interval recorders, a trajectory
// and two mid-run checkpoints with a busy ROB — and returns the program
// and the bundle's HXGA bytes.
func smallBundle(t testing.TB) ([]isa.Inst, []byte) {
	t.Helper()
	prog := randomProgram(rand.New(rand.NewPCG(31, 32)), 50, false)
	cfg := Config{L1D: CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64}, GshareBits: 4}.WithDefaults()
	cfg.RecordIRFIntervals = true
	cfg.RecordFPRFIntervals = true
	cfg.RecordL1DIntervals = true
	ga := &GoldenArtifacts{Trajectory: GetDeltaTrajectory(8)}
	defer ga.Release()
	cfg.DeltaRecord = ga.Trajectory
	cfg.OnCycle = func(c *Core, cyc uint64) {
		if cyc == 8 || cyc == 20 {
			ga.Checkpoints = append(ga.Checkpoints, c.Checkpoint())
		}
	}
	ga.Result = Run(prog, newInitState(t, 3), cfg)
	if len(ga.Checkpoints) != 2 || len(ga.Trajectory.Points) == 0 || ga.Checkpoints[1].core.robCnt == 0 {
		t.Fatalf("fixture lost a section: %d checkpoints, %d trajectory points", len(ga.Checkpoints), len(ga.Trajectory.Points))
	}
	data, err := EncodeGoldenArtifacts(ga)
	if err != nil {
		t.Fatal(err)
	}
	return prog, data
}

// TestGoldenCodecRejectsUnbackedCounts: a valid header followed by a
// length at the format ceiling and no body is refused without
// allocating for it, at the first length of the container and at the
// first one inside an interval recorder.
func TestGoldenCodecRejectsUnbackedCounts(t *testing.T) {
	prog, data := smallBundle(t)
	ceiling := []byte{0, 0, 0, 0x10} // 1<<28
	claims := map[string][]byte{
		"config length": append(append([]byte{}, data[:8]...), ceiling...),
	}
	// The IRF recorder's presence byte follows the header, the config
	// blob and the result's fixed fields (no crash in the fixture).
	at := 8 + 4 + int(binary.LittleEndian.Uint32(data[8:])) + 40 + 16*int(coverage.NumStructures) + 1 + 2 + 8 + 1 + 72
	if data[at] != 1 || binary.LittleEndian.Uint32(data[at+1:]) == 0 {
		t.Fatal("fixture has no IRF recorder where the layout puts it")
	}
	claims["recorder cells"] = append(append([]byte{}, data[:at+1]...), ceiling...)
	recs := ace.LiveIntervalRecorders()
	for name, claim := range claims {
		var err error
		if got := binfmttest.AllocatedBy(func() { _, err = DecodeGoldenArtifacts(claim, prog) }); got > 1<<16 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(claim), got)
		}
		if err == nil {
			t.Errorf("%s: unbacked length accepted", name)
		}
	}
	if got := ace.LiveIntervalRecorders(); got != recs {
		t.Fatalf("failed decodes leaked %d interval recorders", got-recs)
	}
}

// TestGoldenCodecRefusesNonCanonicalConfig: the JSON config blob is the
// one free-form field of the container; a blob that parses to the same
// config but is not the encoder's bytes (here: a trailing space) must be
// refused, or decode→encode would not be the identity.
func TestGoldenCodecRefusesNonCanonicalConfig(t *testing.T) {
	prog, data := smallBundle(t)
	n := binary.LittleEndian.Uint32(data[8:])
	spaced := binary.LittleEndian.AppendUint32(append([]byte{}, data[:8]...), n+1)
	spaced = append(append(append(spaced, data[12:12+n]...), ' '), data[12+n:]...)
	cks := LiveCheckpoints()
	if _, err := DecodeGoldenArtifacts(spaced, prog); err == nil {
		t.Fatal("non-canonical config blob accepted")
	}
	if got := LiveCheckpoints(); got != cks {
		t.Fatalf("failed decode leaked %d checkpoints", got-cks)
	}
}

// TestGoldenCodecRefusesNonCanonicalPages: a checkpoint's memory image
// is its present pages — whole, each once, in address order. The same
// bytes delivered as two half pages, or a page listed twice, would
// decode to the same memory and re-encode differently, so both are
// refused.
func TestGoldenCodecRefusesNonCanonicalPages(t *testing.T) {
	prog, data := smallBundle(t)
	// The first checkpoint's regions are "data" then "stack" (name, base,
	// size, writable each); the page list follows: a u32 count, then
	// (u64 address, u32 length, bytes) per page.
	at := bytes.Index(data, []byte("\x05\x00\x00\x00stack"))
	if at < 0 {
		t.Fatal("fixture has no stack region")
	}
	at += 4 + 5 + 8 + 8 + 1
	count := binary.LittleEndian.Uint32(data[at:])
	first := data[at+4 : at+4+12+arch.PageSize]
	if count == 0 || binary.LittleEndian.Uint64(first) != dataBase || binary.LittleEndian.Uint32(first[8:]) != arch.PageSize {
		t.Fatalf("fixture's page list is not where the layout puts it: count %d, first record % x", count, first[:12])
	}
	record := func(addr uint64, b []byte) []byte {
		r := binary.LittleEndian.AppendUint64(nil, addr)
		return append(binary.LittleEndian.AppendUint32(r, uint32(len(b))), b...)
	}
	half := arch.PageSize / 2
	halves := append(record(dataBase, first[12:12+half]), record(dataBase+uint64(half), first[12+half:])...)
	cases := map[string][]byte{
		"two half pages": slices.Concat(data[:at], binary.LittleEndian.AppendUint32(nil, count+1), halves, data[at+4+len(first):]),
		"page twice":     slices.Concat(data[:at], binary.LittleEndian.AppendUint32(nil, count+1), first, data[at+4:]),
	}
	cks := LiveCheckpoints()
	for name, bad := range cases {
		if _, err := DecodeGoldenArtifacts(bad, prog); err == nil || !strings.Contains(err.Error(), "page list") {
			t.Errorf("%s: %v", name, err)
		}
	}
	if got := LiveCheckpoints(); got != cks {
		t.Fatalf("failed decodes leaked %d checkpoints", got-cks)
	}
}

// TestGoldenCodecRefusesUopPastBounds: a µop's lists are framed as
// slices, a u32 count and the elements, but decode into fixed arrays, so
// a count past the array's bound is refused; so is a crash marked present
// whose kind is none, which would decode as no crash and re-encode
// without it. Each field is found by re-encoding the bundle with one
// µop's field changed and taking the first byte that differs.
func TestGoldenCodecRefusesUopPastBounds(t *testing.T) {
	prog, data := smallBundle(t)
	fieldAt := func(pick func(u *uop) bool, edit func(u *uop)) int {
		ga, err := DecodeGoldenArtifacts(data, prog)
		if err != nil {
			t.Fatal(err)
		}
		defer ga.Release()
		rob := ga.Checkpoints[len(ga.Checkpoints)-1].rob
		i := slices.IndexFunc(rob, func(u uop) bool { return pick(&u) })
		if i < 0 {
			t.Fatal("fixture has no µop to edit")
		}
		edit(&rob[i])
		edited, err := EncodeGoldenArtifacts(ga)
		if err != nil {
			t.Fatal(err)
		}
		for at := range min(len(data), len(edited)) {
			if data[at] != edited[at] {
				return at
			}
		}
		t.Fatal("the edit left the bundle's bytes unchanged")
		return 0
	}
	srcCount := fieldAt(func(u *uop) bool { return u.nSrcs > 0 }, func(u *uop) { u.nSrcs-- })
	overlong := slices.Clone(data)
	binary.LittleEndian.PutUint32(overlong[srcCount:], maxSrcs+1)
	// The presence byte, then the kind.
	crash := fieldAt(func(u *uop) bool { return u.st != uWaiting && !u.crashed() },
		func(u *uop) { u.err.Kind = arch.CrashBadBranch })
	kindNone := slices.Clone(data)
	kindNone[crash] = 1
	kindNone = slices.Insert(kindNone, crash+1, make([]byte, 1+8+8+1)...)

	cks := LiveCheckpoints()
	for want, bad := range map[string][]byte{"exceeds its bound 6": overlong, "crash of kind none": kindNone} {
		if _, err := DecodeGoldenArtifacts(bad, prog); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want an error saying %q, got %v", want, err)
		}
	}
	if got := LiveCheckpoints(); got != cks {
		t.Fatalf("failed decodes leaked %d checkpoints", got-cks)
	}
}

// FuzzDecodeGoldenArtifacts: arbitrary bytes never panic, never
// allocate beyond a pooled core plus a bounded multiple of the input,
// and never leak a pooled checkpoint, recorder or trajectory; whatever
// decodes re-encodes to exactly the input.
func FuzzDecodeGoldenArtifacts(f *testing.F) {
	prog, good := smallBundle(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1])
	flipped := append([]byte{}, good...)
	flipped[8] ^= 0x80 // the config blob's length
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		cks, recs, trajs := LiveCheckpoints(), ace.LiveIntervalRecorders(), LiveDeltaTrajectories()
		var ga *GoldenArtifacts
		var err error
		// A first decode may have to build the pooled core it fills in. The
		// multiple is the worst a page can do: 35 bytes (a one-byte region
		// and its one page record) draw a whole 4 KiB page.
		if got := binfmttest.AllocatedBy(func() { ga, err = DecodeGoldenArtifacts(data, prog) }); got > 4<<20+128*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err == nil {
			out, encErr := EncodeGoldenArtifacts(ga)
			if encErr != nil {
				t.Fatalf("decoded bundle does not re-encode: %v", encErr)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("re-encoding differs (%d bytes in, %d out)", len(data), len(out))
			}
			ga.Release()
		}
		if c, r, tr := LiveCheckpoints(), ace.LiveIntervalRecorders(), LiveDeltaTrajectories(); c != cks || r != recs || tr != trajs {
			t.Fatalf("leaked %d checkpoints, %d recorders, %d trajectories", c-cks, r-recs, tr-trajs)
		}
	})
}
