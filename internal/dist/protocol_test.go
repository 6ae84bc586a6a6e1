package dist

import (
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/uarch"
)

func testGenotypes(t testing.TB, n int) ([]*gen.Genotype, gen.Config) {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 60
	rng := rand.New(rand.NewPCG(3, 4))
	gs := make([]*gen.Genotype, n)
	for i := range gs {
		gs[i] = gen.NewRandom(&cfg, rng)
	}
	return gs, cfg
}

func TestProgramWireRoundTrip(t *testing.T) {
	gs, cfg := testGenotypes(t, 1)
	p := gen.Materialize(gs[0], &cfg)
	wire, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProgram(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Insts) != len(p.Insts) {
		t.Fatalf("round trip lost instructions: %d != %d", len(back.Insts), len(p.Insts))
	}
	for i := range p.Insts {
		if back.Insts[i] != p.Insts[i] {
			t.Fatalf("instruction %d changed: %v != %v", i, back.Insts[i], p.Insts[i])
		}
	}
	if _, err := DecodeProgram([]byte("not a program")); err == nil {
		t.Fatal("garbage program accepted")
	}
}

func TestGenotypeWireRoundTrip(t *testing.T) {
	gs, _ := testGenotypes(t, 5)
	wire := EncodeGenotypes(gs)
	back, err := DecodeGenotypes(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		if back[i].Hash() != gs[i].Hash() {
			t.Fatalf("genotype %d hash %016x != %016x", i, back[i].Hash(), gs[i].Hash())
		}
	}
	if _, err := DecodeGenotypes([][]byte{{1, 2, 3}}); err == nil {
		t.Fatal("garbage genotype accepted")
	}
}

// The inject request must survive JSON intact: the core config's hook
// fields are deliberately excluded from the wire (workers rebuild them),
// but every scalar knob that affects timing must round-trip exactly.
func TestInjectRequestJSONRoundTrip(t *testing.T) {
	gs, cfg := testGenotypes(t, 1)
	p := gen.Materialize(gs[0], &cfg)
	progBytes, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	c := &inject.Campaign{
		Target:          coverage.IRF,
		Type:            inject.Transient,
		N:               17,
		Seed:            99,
		IntermittentLen: 250,
		BurstLen:        3,
		Cfg:             uarch.DefaultConfig(),
	}
	req := campaignRequest(c, progBytes)
	req.Lo, req.Hi = 3, 11
	data, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	var back InjectRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != 17 || back.Lo != 3 || back.Hi != 11 || back.Seed != 99 || back.IntermittentLen != 250 || back.BurstLen != 3 {
		t.Fatalf("scalars mangled: %+v", back)
	}
	if !reflect.DeepEqual(back.Cfg, req.Cfg) {
		t.Fatalf("core config mangled:\n got %+v\nwant %+v", back.Cfg, req.Cfg)
	}
	if st, err := coverage.Parse(back.Target); err != nil || st != coverage.IRF {
		t.Fatalf("wire target %q parses to %v, %v", back.Target, st, err)
	}
	if ft, err := inject.ParseFaultType(back.Type); err != nil || ft != inject.Transient {
		t.Fatalf("wire fault type %q parses to %v, %v", back.Type, ft, err)
	}
}

// Config hook fields must NOT reach the wire: they are process-local
// function pointers and json.Marshal would refuse them.
func TestConfigHooksExcludedFromWire(t *testing.T) {
	cfg := uarch.DefaultConfig()
	cfg.OnCycle = func(*uarch.Core, uint64) {}
	cfg.Events = []uarch.CycleEvent{{Start: 1, Fire: func(*uarch.Core, uint64) {}}}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("config with hooks does not marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"FU", "FUOutside", "OnCycle", "Events", "Trace",
		"DeltaRecord", "DeltaCompare", "DeltaQuiesce"} {
		if _, ok := m[field]; ok {
			t.Fatalf("hook field %s leaked onto the wire", field)
		}
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	st := inject.Stats{
		N: 4, Masked: 1, SDC: 1, Crash: 1, Hang: 1,
		GoldenCycles: 12345,
		Outcomes:     []inject.Outcome{inject.Masked, inject.SDC, inject.Crash, inject.Hang},
	}
	data, err := json.Marshal(InjectResponse{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	var back InjectResponse
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Stats.Equal(&st) {
		t.Fatalf("stats mangled: %+v != %+v", back.Stats, st)
	}
}
