package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"harpocrates"
	"harpocrates/internal/ace"
	"harpocrates/internal/dist"
	"harpocrates/internal/gates"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/isa"
	"harpocrates/internal/mutate"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/queue"
	"harpocrates/internal/stats"
	"harpocrates/internal/uarch"
)

// prober replays one workload's own inputs through one layer at a time,
// timing calls into the layers' exported functions. Every sample is a
// span under the "probe" root.
type prober struct {
	rc     *runCtx
	in     probeInput
	budget time.Duration // per probe
	root   int
	m      map[string]float64
}

// time samples fn under the layer's span name and returns the median.
func (pb *prober) time(name string, fn func()) time.Duration {
	ds := sampleFor(pb.budget, 3, 200, func() {
		sp := pb.rc.tr.start(name, pb.root, -1)
		fn()
		pb.rc.tr.end(sp)
	})
	return medianDur(ds)
}

func mbPerS(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}

// probeLayers fills m with every per-layer number that can be taken by
// calling one layer alone on the workload's input.
func probeLayers(rc *runCtx, in probeInput, total time.Duration, m map[string]float64) error {
	pb := &prober{rc: rc, in: in, budget: total / 32, m: m}
	pb.root = rc.tr.start("probe", 0, -1)
	defer rc.tr.end(pb.root)
	pb.codecs()
	pb.generation()
	golden := pb.simulation()
	pb.gates()
	if err := pb.injection(golden); err != nil {
		return err
	}
	return pb.storage()
}

// codecs: isa encode/decode and the HXPG program container.
func (pb *prober) codecs() {
	p, m := pb.in.prog, pb.m
	var code []byte
	d := pb.time("isa.encode", func() { code = p.Encode() })
	m["isa.encode_mb_per_s"] = mbPerS(len(code), d)
	d = pb.time("isa.decode", func() { isa.DecodeAll(code) })
	m["isa.decode_mb_per_s"] = mbPerS(len(code), d)

	var buf bytes.Buffer
	m["prog.write_us"] = us(pb.time("prog.write", func() { buf.Reset(); p.WriteTo(&buf) }))
	m["prog.program_bytes"] = float64(buf.Len())
	m["prog.read_us"] = us(pb.time("prog.read", func() { prog.ReadProgram(bytes.NewReader(buf.Bytes())) }))
	m["dist.encode_program_us"] = us(pb.time("dist.encode_program", func() { dist.EncodeProgram(p) }))
}

// generation: the generator, the mutator and the reference emulator.
func (pb *prober) generation() {
	cfg, m := &pb.in.gen, pb.m
	rng := stats.Derive(pb.rc.seed, 77)
	var g *gen.Genotype
	m["gen.new_random_us"] = us(pb.time("gen.new_random", func() { g = gen.NewRandom(cfg, rng) }))
	m["gen.materialize_us"] = us(pb.time("gen.materialize", func() { gen.Materialize(g, cfg) }))
	m["mutate.replace_all_us"] = us(pb.time("mutate.replace_all", func() { mutate.ReplaceAll(g, cfg, rng) }))

	p := pb.in.prog
	var retired int
	d := pb.time("arch.run", func() { retired, _, _ = p.GoldenRun(8 * len(p.Insts)) })
	m["arch.run_minstr_per_s"] = mbPerS(retired, d)
}

// tracked returns the core configuration the GA grades the workload's
// structure with: its ACE (or IBR) tracker and interval recorder on.
func tracked(st harpocrates.Structure) uarch.Config {
	cfg := uarch.DefaultConfig()
	switch st {
	case harpocrates.L1D:
		cfg.TrackL1D, cfg.RecordL1DIntervals = true, true
	case harpocrates.IRF:
		cfg.TrackIRF, cfg.RecordIRFIntervals = true, true
	default:
		cfg.TrackIBR, cfg.RecordIRFIntervals = true, true
	}
	return cfg
}

func releaseIntervals(r *uarch.Result) {
	ace.ReleaseIntervalRecorder(r.IRFIntervals)
	ace.ReleaseIntervalRecorder(r.FPRFIntervals)
	ace.ReleaseIntervalRecorder(r.L1DIntervals)
	r.IRFIntervals, r.FPRFIntervals, r.L1DIntervals = nil, nil, nil
}

// simulation: the out-of-order core with and without ACE tracking,
// checkpoint and restore, and the golden-artifact codec. It returns the
// fault-free cycle count.
func (pb *prober) simulation() uint64 {
	p, m := pb.in.prog, pb.m
	plain := uarch.DefaultConfig()
	var res *uarch.Result
	dPlain := pb.time("uarch.run", func() { res = uarch.Run(p.Insts, p.NewState(), plain) })
	cycles := res.Cycles
	m["uarch.golden_cycles"] = float64(cycles)
	m["uarch.ipc"] = float64(res.Instructions) / float64(max(cycles, 1))
	m["uarch.run_kcycles_per_s"] = float64(cycles) / 1e3 / dPlain.Seconds()

	tcfg := tracked(pb.in.st)
	dTracked := pb.time("uarch.run_tracked", func() { releaseIntervals(uarch.Run(p.Insts, p.NewState(), tcfg)) })
	m["uarch.run_tracked_kcycles_per_s"] = float64(cycles) / 1e3 / dTracked.Seconds()
	m["ace.tracking_overhead_share"] = float64(dTracked-dPlain) / float64(dPlain)
	logged := uarch.Run(p.Insts, p.NewState(), tcfg)
	rec := logged.IRFIntervals
	if rec == nil {
		rec = logged.L1DIntervals
	}
	var enc []byte
	m["ace.interval_encode_us"] = us(pb.time("ace.interval_encode", func() { enc = ace.AppendIntervalRecorder(enc[:0], rec) }))
	releaseIntervals(logged)

	// Checkpoint at mid-run from the cycle hook, several times over, then
	// resume with a one-cycle budget so the sample is the restore itself.
	var cks []*uarch.Checkpoint
	var dCk []time.Duration
	hook := plain
	hook.OnCycle = func(c *uarch.Core, cyc uint64) {
		if cyc != cycles/2 {
			return
		}
		for k := 0; k < 9; k++ {
			sp := pb.rc.tr.start("uarch.checkpoint", pb.root, -1)
			t0 := time.Now()
			ck := c.Checkpoint()
			dCk = append(dCk, time.Since(t0))
			pb.rc.tr.end(sp)
			cks = append(cks, ck)
		}
	}
	uarch.Run(p.Insts, p.NewState(), hook)
	m["uarch.checkpoint_us"] = us(medianDur(dCk))
	if len(cks) > 0 {
		one := plain
		one.MaxCycles = cks[0].Cycle() + 1
		m["uarch.restore_us"] = us(pb.time("uarch.restore", func() { uarch.RunFromCheckpoint(cks[0], one) }))
	}
	for _, ck := range cks {
		ck.Release()
	}

	// The bundle a campaign shares through the golden cache: result,
	// interval logs, checkpoints and the delta trajectory.
	ga := goldenBundle(p, cycles)
	var data []byte
	d := pb.time("uarch.golden_encode", func() { data, _ = uarch.EncodeGoldenArtifacts(ga) })
	m["uarch.golden_bundle_bytes"] = float64(len(data))
	m["uarch.golden_encode_mb_per_s"] = mbPerS(len(data), d)
	d = pb.time("uarch.golden_decode", func() {
		if back, err := uarch.DecodeGoldenArtifacts(data, p.Insts); err == nil {
			back.Release()
		}
	})
	m["uarch.golden_decode_mb_per_s"] = mbPerS(len(data), d)
	ga.Release()
	return cycles
}

// goldenBundle runs the instrumented fault-free reference the way a
// cacheable campaign does: all three interval recorders, a delta
// trajectory, and at most 16 evenly spaced checkpoints.
func goldenBundle(p *harpocrates.Program, cycles uint64) *uarch.GoldenArtifacts {
	cfg := uarch.DefaultConfig()
	cfg.RecordIRFIntervals, cfg.RecordFPRFIntervals, cfg.RecordL1DIntervals = true, true, true
	traj := uarch.GetDeltaTrajectory(0)
	cfg.DeltaRecord = traj
	interval := max((cycles/16+511)/512*512, 512)
	var cks []*uarch.Checkpoint
	cfg.OnCycle = func(c *uarch.Core, cyc uint64) {
		if cyc > 0 && cyc%interval == 0 && len(cks) < 16 {
			cks = append(cks, c.Checkpoint())
		}
	}
	res := uarch.Run(p.Insts, p.NewState(), cfg)
	return &uarch.GoldenArtifacts{Result: res, Checkpoints: cks, Trajectory: traj}
}

// gates: one 64-lane netlist evaluation, one scalar multiply through the
// unit wrapper, and building the two netlists sfi-fu-permanent needs.
func (pb *prober) gates() {
	m := pb.m
	rng := stats.Derive(pb.rc.seed, 99)
	eval := func(n *gates.Netlist) func() {
		e := gates.NewEval(n)
		in, out := make([]uint64, n.NumIn), make([]uint64, len(n.Outputs))
		for i := range in {
			in[i] = rng.Uint64()
		}
		return func() { e.Run(in, out, nil) }
	}
	m["gates.intmul64_eval_us"] = us(pb.time("gates.intmul64_eval", eval(gates.IntMul64Netlist())))
	m["gates.fpadd64_eval_us"] = us(pb.time("gates.fpadd64_eval", eval(gates.FPAdd64Netlist())))
	unit := gates.NewIntMulUnit(nil)
	a, b := rng.Uint64(), rng.Uint64()
	m["gates.intmul_unit_ns_per_op"] = float64(pb.time("gates.intmul_unit", func() { unit.Mul(a, b) }))
	m["gates.netlist_build_ms"] = ms(pb.time("gates.netlist_build", func() {
		gates.NewIntMultiplier(64)
		gates.NewFPAdder(11, 52)
	}))
}

// injection: the Stats codec, one campaign shard through the dist
// executor, and what attaching an obs registry costs a campaign.
func (pb *prober) injection(goldenCycles uint64) error {
	in, m := pb.in, pb.m
	camp := func(ob *obs.Observer) *inject.Campaign {
		c := harpocrates.NewDetectionCampaign(in.prog, in.st, in.n, pb.rc.seed)
		c.Type, c.Workers, c.Obs = in.typ, pb.rc.threads, ob
		return c
	}
	st := in.stats
	if st == nil {
		var err error
		if st, err = camp(nil).Run(); err != nil {
			return err
		}
	}
	if st.GoldenCycles != goldenCycles {
		return fmt.Errorf("probe: campaign golden run took %d cycles, plain uarch.Run %d", st.GoldenCycles, goldenCycles)
	}
	var enc []byte
	m["inject.stats_encode_us"] = us(pb.time("inject.stats_encode", func() { enc = inject.EncodeStats(st) }))
	m["inject.stats_decode_us"] = us(pb.time("inject.stats_decode", func() { inject.DecodeStats(enc) }))

	req, err := dist.NewInjectRequest(camp(nil), in.prog)
	if err != nil {
		return err
	}
	wire, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	m["dist.inject_request_bytes"] = float64(len(wire))
	req.Lo, req.Hi = 0, max(in.n/pb.rc.sz.FleetShards, 1)
	// nil golden cache: every sample pays its own golden run, as the first
	// shard of a cold job does.
	m["dist.run_inject_shard_ms"] = ms(pb.time("dist.run_inject_shard", func() { dist.RunInjectCached(&req, nil, nil) }))

	// Registry-only observer against none, alternating, on the workload's
	// own campaign.
	reg := obs.New(obs.NewRegistry(), nil)
	var with, without []float64
	pb.time("obs.campaign_pair", func() {
		t0 := time.Now()
		camp(nil).Run()
		t1 := time.Now()
		camp(reg).Run()
		without, with = append(without, float64(t1.Sub(t0))), append(with, float64(time.Since(t1)))
	})
	if w := median(without); w > 0 {
		m["obs.overhead_share"] = (median(with) - w) / w
	}
	return nil
}

// storage: the queue's WAL and content-addressed result cache, on a
// record the size of one shard result of this workload.
func (pb *prober) storage() error {
	m := pb.m
	dir, err := os.MkdirTemp(pb.rc.outDir, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	payload := make([]byte, 64+max(pb.in.n/pb.rc.sz.FleetShards, 1))
	wal, _, err := queue.OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	// Append is a write plus an fsync; the WAL exports no unsynced form.
	m["queue.wal_append_us"] = us(pb.time("queue.wal_append", func() { wal.Append(1, payload) }))
	if err := wal.Close(); err != nil {
		return err
	}
	cache, err := queue.OpenCache(filepath.Join(dir, "cache"), 0, nil)
	if err != nil {
		return err
	}
	var k uint64
	m["queue.cache_put_us"] = us(pb.time("queue.cache_put", func() {
		k++
		cache.Put(queue.CacheKey{Program: k, Config: 1, Spec: 1}, payload)
	}))
	var g uint64
	m["queue.cache_get_us"] = us(pb.time("queue.cache_get", func() {
		g = g%k + 1
		cache.Get(queue.CacheKey{Program: g, Config: 1, Spec: 1})
	}))
	return cache.Close()
}
