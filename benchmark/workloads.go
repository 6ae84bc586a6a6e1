package main

import (
	"time"

	"harpocrates"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/stats"
)

// sizes fixes every workload's input size. They are constants of the
// benchmark, not options: numbers stay comparable only while they do
// not move. HARPO_SCALE is deliberately ignored.
type sizes struct {
	// evolve-irf: Preset(IRF,1) population (24 programs, top 4 x 6
	// mutants) at EvolveInstrs instructions for EvolveIters iterations.
	EvolveInstrs int `json:"evolve_instrs"`
	EvolveIters  int `json:"evolve_iters"`
	// EvolveTarget is the best-ACE-coverage level every Evolve must reach
	// within its iterations; missing it is a failed operation, so a faster
	// loop cannot buy its speed with search quality. Over 48 runs (seeds
	// 1-6) half reached 0.0335 by iteration 4 and nine tenths by iteration
	// 8 of 24, and the lowest final coverage was 0.0357.
	EvolveTarget float64 `json:"evolve_target_coverage"`
	// EvolveGradeN injections grade the evolved winner (traced run).
	EvolveGradeN int `json:"evolve_grade_n"`

	IRFN int `json:"sfi_irf_n"` // injections per sfi-irf-transient campaign
	L1DN int `json:"sfi_l1d_n"` // per sfi-l1d-transient campaign
	FUN  int `json:"sfi_fu_n"`  // per unit (IntMul, then SSE-FPAdd) per sfi-fu-permanent op

	FleetN      int `json:"fleet_n"`      // injections per fleet job
	FleetShards int `json:"fleet_shards"` // shards per fleet job
	// FleetPrograms distinct programs cycle under the fleet jobs; every
	// job is still a distinct campaign (its own injection seed).
	FleetPrograms int `json:"fleet_programs"`
	WarmJobs      int `json:"warm_jobs"` // distinct jobs fleet-queue-warm resubmits
	PollMs        int `json:"poll_ms"`   // queue client poll interval

	// VerifyOps slots per run are recomputed through the reference path
	// by the correctness oracle.
	VerifyOps int `json:"verify_ops"`
}

// fullSizes were measured on the 2-core reference sandbox (go1.24):
// one operation takes 0.01–1.2 s, so a 10 s run holds from about fifteen
// (evolve-irf: three slots, five passes) to a few thousand
// (fleet-queue-warm) of them.
var fullSizes = sizes{
	EvolveInstrs: 1250, EvolveIters: 24, EvolveTarget: 0.0335, EvolveGradeN: 2000,
	IRFN: 2500, L1DN: 24, FUN: 60,
	FleetN: 128, FleetShards: 8, FleetPrograms: 12, WarmJobs: 4, PollMs: 1,
	VerifyOps: 2,
}

// smokeSizes is the 1/50 pass the tests and -smoke use.
var smokeSizes = sizes{
	EvolveInstrs: 1250, EvolveIters: 2, EvolveTarget: 0.02, EvolveGradeN: 40,
	IRFN: 50, L1DN: 2, FUN: 2,
	FleetN: 16, FleetShards: 8, FleetPrograms: 2, WarmJobs: 2, PollMs: 1,
	VerifyOps: 1,
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return smokeSizes
	}
	return fullSizes
}

// runCtx is what a workload instance is built from. ob and tr are nil
// on the untraced run.
type runCtx struct {
	seed    uint64
	threads int
	sz      sizes
	outDir  string // scratch root; fleet data dirs are made (and removed) under it
	ob      *obs.Observer
	tr      *tracer
}

// derive gives operation i of a run its own seed. The run's -seed is
// the only source of randomness.
func (rc *runCtx) derive(i int) uint64 {
	return stats.Mix64(stats.Mix64(stats.HashInit, rc.seed), uint64(int64(i)))
}

// opSample is one timed operation: its latency and the work it did, in
// the workload's unit (simulated instructions on evolve-irf, injections
// classified elsewhere).
type opSample struct {
	dur  time.Duration
	work float64
	// parts, when set, are the latencies of the operation's consecutive
	// steps; they add up to dur.
	parts []time.Duration
}

// probeInput is what the layer probes replay: the workload's own first
// program and campaign shape.
type probeInput struct {
	prog  *harpocrates.Program
	gen   harpocrates.GenConfig
	st    harpocrates.Structure
	typ   inject.FaultType
	n     int
	stats *inject.Stats
}

// instance is one set-up copy of a workload.
type instance interface {
	// op runs slot's job (negative slots are warm-ups) on inputs derived
	// from (seed, slot), timing only the call into the system. Passes
	// after the first repeat the job; a result that is malformed or differs
	// from the first pass's is an error.
	op(slot, pass int) (opSample, error)
	// verify runs the reference-path oracle over the first operations done
	// and returns one message per failed operation.
	verify() []string
	// digest folds the results of slots [0,k) into one value that two
	// commits must agree on exactly.
	digest(k int) uint64
	input() probeInput
	// insitu adds the per-layer numbers only this workload's own
	// operations produce (traced run).
	insitu(m map[string]float64)
	close() error
}

// workload pairs a name of BENCHMARK.json (which also says why each
// workload exists) with its set-up.
type workload struct {
	name  string
	setup func(rc *runCtx) (instance, error)
}

var workloads = []workload{
	{"evolve-irf", setupEvolve},
	{"sfi-irf-transient", setupSFIIRF},
	{"sfi-l1d-transient", setupSFIL1D},
	{"sfi-fu-permanent", setupSFIFU},
	{"fleet-queue", setupFleetQueue},
	{"fleet-queue-warm", setupFleetQueueWarm},
	{"fleet-push", setupFleetPush},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// foldStats folds one campaign result into a running digest.
func foldStats(h uint64, st *inject.Stats) uint64 {
	h = stats.Mix64(h, st.GoldenCycles)
	for _, o := range st.Outcomes {
		h = stats.Mix64(h, uint64(o))
	}
	return h
}
