package inject

import (
	"sync"
	"testing"

	"harpocrates/internal/ace"
	"harpocrates/internal/coverage"
	"harpocrates/internal/obs"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

// testProgramHash derives a deterministic non-zero content key for a
// test campaign's program (the real plumbing hashes serialized program
// bytes; tests only need "same program, same key").
func testProgramHash(c *Campaign) uint64 {
	h := stats.HashInit
	for _, in := range c.Prog {
		h = stats.Mix64(h, uint64(in.V))
		h = stats.Mix64(h, uint64(in.NOps))
		for _, op := range in.Ops {
			h = stats.Mix64(h, uint64(op.Kind))
			h = stats.Mix64(h, uint64(op.Reg))
			h = stats.Mix64(h, uint64(op.X))
			h = stats.Mix64(h, uint64(op.Imm))
			h = stats.Mix64(h, uint64(op.Mem.Base))
			h = stats.Mix64(h, uint64(op.Mem.Disp))
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// TestGoldenCacheBitIdenticalStats is the acceptance gate of golden
// artifact reuse: for every structure class and fault type, a campaign
// served from the cache (including one served from a warm entry another
// campaign populated) must produce statistics bit-identical to the same
// campaign without a cache, and both to the from-zero reference. The
// shared bundle carries more instrumentation than the one a campaign
// builds for itself (all three recorders, the trajectory whether or not
// the campaign is delta-eligible) and NoFastForward carries none, so
// this pins that all of it is purely observational.
func TestGoldenCacheBitIdenticalStats(t *testing.T) {
	cases := []struct {
		target coverage.Structure
		typ    FaultType
		n      int
	}{
		{coverage.IRF, Transient, 48},
		{coverage.FPRF, Transient, 32},
		{coverage.L1D, Transient, 32},
		{coverage.Decoder, Transient, 24},
		{coverage.LSQ, Transient, 24},
		{coverage.IRF, Intermittent, 12},
		{coverage.L1D, Intermittent, 12},
		{coverage.IntAdder, Permanent, 10},
		{coverage.IntAdder, Intermittent, 8},
		{coverage.FPAdd, Permanent, 8},
		{coverage.FPMul, Intermittent, 6},
	}
	gc := NewGoldenCache(0)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.target.String()+"/"+tc.typ.String(), func(t *testing.T) {
			t.Parallel()
			run := func(gc *GoldenCache, noFF bool) *Stats {
				c := testProgram(t, 350, nil)
				c.Target = tc.target
				c.Type = tc.typ
				c.IntermittentLen = 80
				c.N = tc.n
				c.Seed = 11
				c.GoldenCache = gc
				c.ProgramHash = testProgramHash(c)
				c.NoFastForward = noFF
				st, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			cold := run(nil, false)
			cached := run(gc, false)
			warm := run(gc, false)
			if !cold.Equal(cached) {
				t.Fatalf("golden cache changed campaign statistics:\ncold:   %+v\ncached: %+v", cold, cached)
			}
			if !cold.Equal(warm) {
				t.Fatalf("warm golden cache changed campaign statistics:\ncold: %+v\nwarm: %+v", cold, warm)
			}
			if fromZero := run(nil, true); !cold.Equal(fromZero) {
				t.Fatalf("a campaign's own bundle changed its statistics:\nfrom cycle 0: %+v\nown bundle:   %+v", fromZero, cold)
			}
		})
	}
}

// TestGoldenCacheSingleComputePerProgram: the whole point — five
// per-structure campaigns on one program with one shared configuration
// compute the golden run once. All five targets share the plain golden
// class, so the second through fifth campaigns hit.
func TestGoldenCacheSingleComputePerProgram(t *testing.T) {
	gc := NewGoldenCache(0)
	reg := obs.NewRegistry()
	ob := obs.New(reg, nil)
	targets := []coverage.Structure{
		coverage.IRF, coverage.FPRF, coverage.L1D,
		coverage.Decoder, coverage.LSQ,
	}
	for _, target := range targets {
		c := testProgram(t, 350, nil)
		c.Target = target
		c.Type = Transient
		c.N = 16
		c.Seed = 11
		c.GoldenCache = gc
		c.ProgramHash = testProgramHash(c)
		c.Obs = ob
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("inject.golden.cache.misses").Load(); got != 1 {
		t.Fatalf("five same-program campaigns computed the golden %d times, want 1", got)
	}
	if got := reg.Counter("inject.golden.cache.hits").Load(); got != int64(len(targets)-1) {
		t.Fatalf("golden cache hits = %d, want %d", got, len(targets)-1)
	}
	if reg.Histogram("inject.golden.compute_ns").Count() != 1 {
		t.Fatal("golden compute latency histogram did not observe exactly one compute")
	}
}

// TestGoldenCacheConcurrentCampaigns: many goroutines racing the same
// key must single-flight onto one computation and all produce the
// reference statistics (run under -race in CI).
func TestGoldenCacheConcurrentCampaigns(t *testing.T) {
	newCampaign := func(target coverage.Structure, gc *GoldenCache, ob *obs.Observer) *Campaign {
		c := testProgram(t, 300, nil)
		c.Target = target
		c.Type = Transient
		c.N = 12
		c.Seed = 11
		c.Workers = 2
		c.GoldenCache = gc
		c.ProgramHash = testProgramHash(c)
		c.Obs = ob
		return c
	}
	targets := []coverage.Structure{coverage.IRF, coverage.FPRF, coverage.L1D}
	want := make(map[coverage.Structure]*Stats)
	for _, target := range targets {
		st, err := newCampaign(target, nil, nil).Run()
		if err != nil {
			t.Fatal(err)
		}
		want[target] = st
	}

	gc := NewGoldenCache(0)
	reg := obs.NewRegistry()
	ob := obs.New(reg, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(targets))
	for round := 0; round < 4; round++ {
		for _, target := range targets {
			wg.Add(1)
			go func(target coverage.Structure) {
				defer wg.Done()
				st, err := newCampaign(target, gc, ob).Run()
				if err != nil {
					errs <- err
					return
				}
				if !st.Equal(want[target]) {
					t.Errorf("concurrent cached campaign on %v diverged from reference", target)
				}
			}(target)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := reg.Counter("inject.golden.cache.misses").Load(); got != 1 {
		t.Fatalf("%d golden computes under concurrency, want 1 (single-flight)", got)
	}
}

// TestGoldenCachePoolHygiene: bundles hold pooled resources (interval
// recorders, checkpoint cores, the trajectory) while resident, release
// them exactly once when purged, and never release them while a
// campaign still reads them. Not parallel: compares global live
// counters.
func TestGoldenCachePoolHygiene(t *testing.T) {
	baseRec := ace.LiveIntervalRecorders()
	baseCk := uarch.LiveCheckpoints()
	baseTraj := uarch.LiveDeltaTrajectories()

	gc := NewGoldenCache(0)
	for _, target := range []coverage.Structure{coverage.IRF, coverage.L1D} {
		c := testProgram(t, 350, nil)
		c.Target = target
		c.Type = Transient
		c.N = 16
		c.Seed = 11
		c.GoldenCache = gc
		c.ProgramHash = testProgramHash(c)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if gc.Len() != 1 {
		t.Fatalf("cache holds %d bundles, want 1", gc.Len())
	}
	// The resident bundle must still hold its pooled resources — a
	// premature release would hand live recorders back to the pool.
	if got := uarch.LiveDeltaTrajectories(); got != baseTraj+1 {
		t.Fatalf("resident bundle holds %d trajectories, want 1", got-baseTraj)
	}
	if got := ace.LiveIntervalRecorders(); got != baseRec+3 {
		t.Fatalf("resident bundle holds %d recorders, want 3", got-baseRec)
	}
	gc.Purge()
	if got := ace.LiveIntervalRecorders(); got != baseRec {
		t.Fatalf("purge leaked %d interval recorders", got-baseRec)
	}
	if got := uarch.LiveCheckpoints(); got != baseCk {
		t.Fatalf("purge leaked %d checkpoints", got-baseCk)
	}
	if got := uarch.LiveDeltaTrajectories(); got != baseTraj {
		t.Fatalf("purge leaked %d delta trajectories", got-baseTraj)
	}
	// Purging twice must not double-release (the pools count lives; a
	// double release would go negative).
	gc.Purge()
	if got := uarch.LiveCheckpoints(); got != baseCk {
		t.Fatalf("double purge corrupted checkpoint accounting by %d", got-baseCk)
	}
}

// TestGoldenCacheEvictionWaitsForReaders: an entry evicted while a
// campaign still holds it must defer the pool release to the last
// reader. Exercised directly against Acquire with synthetic bundles in
// a cache of capacity one. Not parallel: counts live trajectories.
func TestGoldenCacheEvictionWaitsForReaders(t *testing.T) {
	baseTraj := uarch.LiveDeltaTrajectories()
	gc := NewGoldenCache(1)
	mk := func() *uarch.GoldenArtifacts {
		return &uarch.GoldenArtifacts{Trajectory: uarch.GetDeltaTrajectory(0)}
	}
	ga1, rel1 := gc.Acquire(GoldenKey{Program: 1}, nil, mk)
	_, rel2 := gc.Acquire(GoldenKey{Program: 2}, nil, mk)
	rel2() // key 2 inserted; its arrival evicted key 1, which is still held
	if gc.Len() != 1 {
		t.Fatalf("cache of capacity 1 holds %d bundles", gc.Len())
	}
	if ga1.Trajectory == nil {
		t.Fatal("evicted bundle released while still referenced")
	}
	if got := uarch.LiveDeltaTrajectories(); got != baseTraj+2 {
		t.Fatalf("live trajectories = %d, want 2 (held evictee + resident)", got-baseTraj)
	}
	rel1() // last reader: now the evicted bundle's resources return
	gc.Purge()
	if got := uarch.LiveDeltaTrajectories(); got != baseTraj {
		t.Fatalf("eviction-with-readers leaked %d trajectories", got-baseTraj)
	}
}

// TestGoldenKeySensitivity: knobs that change what the golden run
// computes must change the key; knobs that only steer how faulty runs
// are accelerated must not.
func TestGoldenKeySensitivity(t *testing.T) {
	base := func() *Campaign {
		c := testProgram(t, 120, nil)
		c.Target = coverage.IRF
		c.Type = Transient
		c.N = 8
		c.Seed = 11
		c.ProgramHash = testProgramHash(c)
		return c
	}
	ref := base().goldenKey()

	// Perf-only / fault-spec knobs: same key (bundles interchangeable).
	same := map[string]*Campaign{}
	{
		c := base()
		c.Cfg.NoCycleSkip = true
		same["NoCycleSkip"] = c
	}
	{
		c := base()
		c.trajectorySpacing = 64
		same["test-only spacing"] = c
	}
	{
		c := base()
		c.Seed = 999
		c.N = 100
		c.Type = Intermittent
		c.IntermittentLen = 50
		c.BurstLen = 4
		same["fault spec"] = c
	}
	{
		c := base()
		c.Target = coverage.Decoder // same plain golden class
		same["plain-class target"] = c
	}
	for name, c := range same {
		if got := c.goldenKey(); got != ref {
			t.Errorf("%s changed the golden key: %x vs %x", name, got, ref)
		}
	}

	// Golden-relevant knobs: distinct keys, pairwise.
	diff := map[string]*Campaign{}
	{
		c := base()
		c.Cfg.MaxCycles = 12345
		diff["MaxCycles"] = c
	}
	{
		c := base()
		c.Cfg.NondetSalt = 7
		diff["NondetSalt"] = c
	}
	{
		c := base()
		c.Cfg.IntPRF = 200
		diff["IntPRF"] = c
	}
	{
		c := base()
		c.Target = coverage.FPAdd // fpadd golden class (netlist hooks)
		diff["FP class"] = c
	}
	{
		c := base()
		c.ProgramHash = 2
		diff["program"] = c
	}
	seen := map[GoldenKey]string{ref: "base"}
	for name, c := range diff {
		k := c.goldenKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s on golden key %x", name, prev, k)
		}
		seen[k] = name
	}
}

// TestGoldenCacheUncacheableConfigs: configurations whose golden cores
// carry per-run instrumentation must bypass the cache. Coverage tracking
// is not such instrumentation: the campaign clears it, so a tracked
// campaign shares the untracked one's bundle and gets equal statistics.
func TestGoldenCacheUncacheableConfigs(t *testing.T) {
	gc := NewGoldenCache(0)
	reg := obs.NewRegistry()
	var stats [2]*Stats
	for i, track := range []bool{false, true} {
		c := testProgram(t, 120, nil)
		c.Target = coverage.IRF
		c.Type = Transient
		c.N = 8
		c.GoldenCache = gc
		c.ProgramHash = testProgramHash(c)
		c.Obs = obs.New(reg, nil)
		c.Cfg.TrackIRF, c.Cfg.TrackFPRF, c.Cfg.TrackL1D, c.Cfg.TrackIBR = track, track, track, track
		if !c.goldenCacheable() {
			t.Fatalf("tracked=%v: campaign not cacheable", track)
		}
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = st
	}
	if gc.Len() != 1 || reg.Counter("inject.golden.cache.hits").Load() != 1 {
		t.Fatalf("tracked campaign did not share the untracked bundle: %d entries, %d hits",
			gc.Len(), reg.Counter("inject.golden.cache.hits").Load())
	}
	if !stats[0].Equal(stats[1]) {
		t.Fatalf("tracked campaign's statistics differ:\nuntracked %+v\ntracked   %+v", stats[0], stats[1])
	}
	scrub := testProgram(t, 120, nil)
	scrub.GoldenCache = gc
	scrub.ProgramHash = testProgramHash(scrub)
	scrub.Cfg.DebugScrub = true
	if scrub.goldenCacheable() {
		t.Fatal("DebugScrub config must not be cacheable")
	}
	c2 := testProgram(t, 120, nil)
	c2.Target = coverage.IRF
	c2.Type = Transient
	c2.N = 8
	c2.GoldenCache = gc
	if c2.goldenCacheable() {
		t.Fatal("zero ProgramHash must not be cacheable")
	}
	c2.ProgramHash = 5
	c2.NoFastForward = true
	if c2.goldenCacheable() {
		t.Fatal("NoFastForward must not be cacheable")
	}
}

// TestGoldenCodecRoundTrip: decode(encode(bundle)) preserves the golden
// result bit-for-bit and re-encodes to the identical byte stream (the
// codec is canonical), and a truncated or corrupted stream fails with
// an error — releasing everything it acquired — rather than panicking.
// The truncation sweep decodes every 257th prefix of the bundle cut to
// its first four checkpoints: every section of the format, the
// checkpoint record repeated, at a cost that does not grow with the
// number of checkpoints (each prefix decode costs its length, so the
// whole bundle's sweep would grow with its square).
// Not parallel: counts pool lives around decode failures.
func TestGoldenCodecRoundTrip(t *testing.T) {
	c := testProgram(t, 400, nil)
	c.Target = coverage.IRF
	c.Type = Transient
	c.N = 8
	ga := c.computeGoldenArtifacts()
	defer ga.Release()
	if len(ga.Checkpoints) == 0 || ga.Trajectory == nil || ga.Result.IRFIntervals == nil {
		t.Fatal("golden bundle missing instrumentation")
	}

	data, err := uarch.EncodeGoldenArtifacts(ga)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := uarch.DecodeGoldenArtifacts(data, c.Prog)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Release()
	if dec.Result.Cycles != ga.Result.Cycles || dec.Result.Signature != ga.Result.Signature ||
		dec.Result.Instructions != ga.Result.Instructions {
		t.Fatalf("decoded golden result diverged: %+v vs %+v", dec.Result, ga.Result)
	}
	if len(dec.Checkpoints) != len(ga.Checkpoints) {
		t.Fatalf("decoded %d checkpoints, want %d", len(dec.Checkpoints), len(ga.Checkpoints))
	}
	if len(dec.Trajectory.Points) != len(ga.Trajectory.Points) {
		t.Fatal("decoded trajectory point count diverged")
	}
	again, err := uarch.EncodeGoldenArtifacts(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("re-encoding a decoded bundle is not byte-identical")
	}

	cut4 := *ga
	cut4.Checkpoints = ga.Checkpoints[:min(4, len(ga.Checkpoints))]
	if data, err = uarch.EncodeGoldenArtifacts(&cut4); err != nil {
		t.Fatal(err)
	}
	baseRec := ace.LiveIntervalRecorders()
	baseCk := uarch.LiveCheckpoints()
	baseTraj := uarch.LiveDeltaTrajectories()
	for cut := 0; cut < len(data); cut += 257 {
		if _, err := uarch.DecodeGoldenArtifacts(data[:cut], c.Prog); err == nil {
			t.Fatalf("decode of %d-byte truncation succeeded", cut)
		}
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xff
	if dec, err := uarch.DecodeGoldenArtifacts(corrupt, c.Prog); err == nil {
		// A flipped bit in region payload bytes can decode structurally;
		// only structural corruption must error. Release and move on.
		dec.Release()
	}
	if got := ace.LiveIntervalRecorders(); got != baseRec {
		t.Fatalf("failed decodes leaked %d interval recorders", got-baseRec)
	}
	if got := uarch.LiveCheckpoints(); got != baseCk {
		t.Fatalf("failed decodes leaked %d checkpoints", got-baseCk)
	}
	if got := uarch.LiveDeltaTrajectories(); got != baseTraj {
		t.Fatalf("failed decodes leaked %d trajectories", got-baseTraj)
	}
}
