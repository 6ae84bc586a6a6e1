package uarch

import (
	"math/rand/v2"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
)

func testRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

func TestWithDefaultsFullyZeroMatchesDefault(t *testing.T) {
	got := Config{}.WithDefaults()
	want := DefaultConfig()
	// Compare the comparable structural portion field by field (Config
	// itself is not comparable: it carries hook funcs).
	if got.ROBSize != want.ROBSize || got.IntPRF != want.IntPRF ||
		got.L1D != want.L1D || got.L2 != want.L2 ||
		got.EnablePrefetch != want.EnablePrefetch ||
		got.MemLatency != want.MemLatency ||
		got.FetchWidth != want.FetchWidth || got.GshareBits != want.GshareBits {
		t.Fatalf("zero config defaulted to %+v, want DefaultConfig", got)
	}
}

// TestTrackForEveryStructure pins the structure -> tracker rule for
// every structure there is: a bit array switches on its own ACE
// tracker, a functional unit IBR, an SFI-only site nothing.
func TestTrackForEveryStructure(t *testing.T) {
	type trackers struct{ irf, l1d, fprf, ibr bool }
	want := [coverage.NumStructures]trackers{
		coverage.IRF:      {irf: true},
		coverage.L1D:      {l1d: true},
		coverage.FPRF:     {fprf: true},
		coverage.IntAdder: {ibr: true},
		coverage.IntMul:   {ibr: true},
		coverage.FPAdd:    {ibr: true},
		coverage.FPMul:    {ibr: true},
		// Decoder, Gshare, LSQ, ROBMeta, L2Tags: no coverage metric.
	}
	for st := coverage.Structure(0); st < coverage.NumStructures; st++ {
		c := DefaultConfig().TrackFor(st)
		got := trackers{c.TrackIRF, c.TrackL1D, c.TrackFPRF, c.TrackIBR}
		if got != want[st] {
			t.Errorf("%v: trackers %+v, want %+v", st, got, want[st])
		}
	}
	// A tracker the caller already set survives.
	if c := (Config{TrackL1D: true}).TrackFor(coverage.IntMul); !c.TrackL1D || !c.TrackIBR {
		t.Errorf("TrackFor cleared a tracker that was already on: %+v", c)
	}
}

func TestWithDefaultsPreservesSetFields(t *testing.T) {
	// Setting one field must not clobber it, and the rest must default.
	c := Config{L1D: CacheConfig{SizeBytes: 16 * 1024}}.WithDefaults()
	if c.L1D.SizeBytes != 16*1024 {
		t.Fatalf("caller's L1D size clobbered: %d", c.L1D.SizeBytes)
	}
	d := DefaultConfig()
	if c.ROBSize != d.ROBSize || c.IntPRF != d.IntPRF || c.FetchWidth != d.FetchWidth {
		t.Fatalf("unset fields not defaulted: ROB=%d IntPRF=%d Fetch=%d", c.ROBSize, c.IntPRF, c.FetchWidth)
	}
	if c.L1D.Ways != d.L1D.Ways || c.L1D.HitLatency != d.L1D.HitLatency {
		t.Fatalf("L1D subfields not defaulted: %+v", c.L1D)
	}
	// The caller set a structural field, so a zero L2 stays disabled.
	if c.L2.SizeBytes != 0 {
		t.Fatalf("L2 enabled behind the caller's back: %+v", c.L2)
	}
}

func TestWithDefaultsPartialL2(t *testing.T) {
	c := Config{L2: CacheConfig{SizeBytes: 512 * 1024}}.WithDefaults()
	d := DefaultConfig()
	if c.L2.SizeBytes != 512*1024 {
		t.Fatalf("L2 size clobbered: %d", c.L2.SizeBytes)
	}
	if c.L2.Ways != d.L2.Ways || c.L2.LineBytes != d.L2.LineBytes || c.L2.HitLatency != d.L2.HitLatency {
		t.Fatalf("enabled L2 subfields not defaulted: %+v", c.L2)
	}
}

func TestWithDefaultsRunsClean(t *testing.T) {
	// A sparse config must be runnable after defaulting (the old
	// behaviour silently required all-or-nothing configuration).
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 200
	p := gen.Materialize(gen.NewRandom(&cfg, testRNG(1)), &cfg)
	c := Config{ROBSize: 64}.WithDefaults()
	c.TrackIRF = true
	r := Run(p.Insts, p.NewState(), c)
	if !r.Clean() {
		t.Fatalf("sparse defaulted config produced unclean run: crash=%v timeout=%v", r.Crash, r.TimedOut)
	}
	if r.Instructions == 0 || r.IPC() <= 0 {
		t.Fatalf("no progress: instrs=%d ipc=%f", r.Instructions, r.IPC())
	}
}

func TestFlushCounterMatchesMispredictedBranches(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 2000
	p := gen.Materialize(gen.NewRandom(&cfg, testRNG(7)), &cfg)
	r := Run(p.Insts, p.NewState(), DefaultConfig())
	if !r.Clean() {
		t.Fatal("golden run not clean")
	}
	// Every execute-time mispredict squashes; the model flushes exactly
	// once per mispredicted branch.
	if r.Flushes != r.Mispredicts {
		t.Fatalf("flushes %d != mispredicts %d", r.Flushes, r.Mispredicts)
	}
}

// Validate accepts what WithDefaults produces and refuses the
// configurations that used to take an executor down: unset, partial
// (zero widths, a register file smaller than the architectural state),
// and cache geometry with no whole set.
func TestConfigValidate(t *testing.T) {
	for name, c := range map[string]Config{
		"default":       DefaultConfig(),
		"zero+defaults": Config{}.WithDefaults(),
		"small L1D":     Config{L1D: CacheConfig{SizeBytes: 4096, Ways: 1}}.WithDefaults(),
		"no L2":         Config{IntPRF: 28}.WithDefaults(),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	mod := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	for name, c := range map[string]Config{
		"unset":             {},
		"partial":           {IntPRF: 4},
		"no free int reg":   mod(func(c *Config) { c.IntPRF = 16 }),
		"no free flags reg": mod(func(c *Config) { c.FlagPRF = 1 }),
		"negative width":    mod(func(c *Config) { c.IssueWidth = -1 }),
		"huge ROB":          mod(func(c *Config) { c.ROBSize = 1 << 30 }),
		"huge predictor":    mod(func(c *Config) { c.GshareBits = 40 }),
		"L1D without a set": mod(func(c *Config) { c.L1D.SizeBytes = 64 }),
		"L1D odd line":      mod(func(c *Config) { c.L1D.LineBytes = 48 }),
		"L1D ragged":        mod(func(c *Config) { c.L1D.SizeBytes += 64 }),
		"partial L2":        mod(func(c *Config) { c.L2 = CacheConfig{SizeBytes: 1 << 18} }),
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
