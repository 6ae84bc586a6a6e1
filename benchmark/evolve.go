package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"harpocrates"
	"harpocrates/internal/core"
	"harpocrates/internal/inject"
	"harpocrates/internal/stats"
)

// evolveRun is what one Evolve left behind.
type evolveRun struct {
	best          []float64 // History.Best
	final         float64
	bestHash      uint64
	itersToTarget int // -1: never reached
	toTarget      time.Duration
	wall          time.Duration
	steps         []time.Duration // start → first OnIteration → … → return; they add up to wall
	times         core.StepTimes
	hits, progs   int
	instrs        uint64
}

type evolveInst struct {
	rc     *runCtx
	runs   map[int]evolveRun
	winner *harpocrates.Program // of slot 0, graded by insitu
}

func setupEvolve(rc *runCtx) (instance, error) {
	return &evolveInst{rc: rc, runs: map[int]evolveRun{}}, nil
}

func (e *evolveInst) options(i int) harpocrates.LoopOptions {
	o := harpocrates.Preset(harpocrates.IRF, 1)
	o.Gen.NumInstrs = e.rc.sz.EvolveInstrs
	o.Iterations = e.rc.sz.EvolveIters
	o.Seed = e.rc.derive(i)
	o.Workers = e.rc.threads
	o.Obs = e.rc.ob
	return o
}

func (e *evolveInst) evolve(i int) (evolveRun, *harpocrates.Program, error) {
	o := e.options(i)
	tr := e.rc.tr
	r := evolveRun{itersToTarget: -1}
	opSpan := tr.start("evolve-irf.op", 0, i)
	t0 := time.Now()
	last := t0
	o.OnIteration = func(it int, best *harpocrates.Individual) {
		now := time.Now()
		tr.add("core.iteration", opSpan, i, last, now)
		r.steps = append(r.steps, now.Sub(last))
		last = now
		if r.itersToTarget < 0 && best.Fitness >= e.rc.sz.EvolveTarget {
			r.itersToTarget, r.toTarget = it, now.Sub(t0)
		}
	}
	res, err := harpocrates.Evolve(o)
	end := time.Now()
	r.wall, r.steps = end.Sub(t0), append(r.steps, end.Sub(last))
	tr.end(opSpan)
	if err != nil {
		return r, nil, err
	}
	h := res.History
	r.best, r.final, r.bestHash = h.Best, res.Best.Fitness, res.Best.G.Hash()
	r.times, r.hits, r.progs, r.instrs = h.Times, h.CacheHits, h.EvaluatedPrograms, h.EvaluatedInstructions
	return r, harpocrates.BestProgram(res, &o), nil
}

func (e *evolveInst) op(slot, pass int) (opSample, error) {
	r, best, err := e.evolve(slot)
	if err != nil {
		return opSample{}, err
	}
	sample := opSample{dur: r.wall, work: float64(r.instrs), parts: r.steps}
	if r.itersToTarget < 0 {
		return sample, fmt.Errorf("never reached coverage %.4f (final %.4f)", e.rc.sz.EvolveTarget, r.final)
	}
	// Repeating a run must reproduce its trajectory and winner exactly.
	if first, ok := e.runs[slot]; ok {
		if !slices.Equal(r.best, first.best) || r.bestHash != first.bestHash {
			return sample, fmt.Errorf("not reproducible: pass %d differs from the first", pass)
		}
		return sample, nil
	}
	e.runs[slot] = r
	if slot == 0 {
		e.winner = best
	}
	return sample, nil
}

// verify has nothing left to do: reaching the target and reproducing
// the first pass are checked on every operation.
func (e *evolveInst) verify() []string { return nil }

func (e *evolveInst) digest(k int) uint64 {
	h := uint64(stats.HashInit)
	for i := 0; i < k; i++ {
		r, ok := e.runs[i]
		if !ok {
			break
		}
		h = stats.Mix64(h, r.bestHash)
		for _, b := range r.best {
			h = stats.Mix64(h, math.Float64bits(b))
		}
	}
	return h
}

func (e *evolveInst) input() probeInput {
	o := e.options(0)
	return probeInput{
		prog: harpocrates.Generate(&o.Gen, e.rc.derive(0)), gen: o.Gen,
		st: harpocrates.IRF, typ: inject.Transient, n: e.rc.sz.IRFN,
	}
}

func (e *evolveInst) insitu(m map[string]float64) {
	var total core.StepTimes
	var hits, progs int
	var instrs, iters, toTarget, finals []float64
	for i, r := range e.runs {
		if i < 0 {
			continue
		}
		total.Mutation += r.times.Mutation
		total.Generation += r.times.Generation
		total.Compilation += r.times.Compilation
		total.Evaluation += r.times.Evaluation
		hits += r.hits
		progs += r.progs
		instrs = append(instrs, float64(r.instrs))
		if r.itersToTarget >= 0 {
			toTarget = append(toTarget, ms(r.toTarget))
		}
		// The simulated statistics come from the operations every run
		// completes, so that they repeat exactly for one seed.
		if i < digestOps {
			finals = append(finals, r.final)
			iters = append(iters, float64(r.itersToTarget))
		}
	}
	if t := float64(total.Total()); t > 0 {
		m["core.step.mutation_share"] = float64(total.Mutation) / t
		m["core.step.generation_share"] = float64(total.Generation) / t
		m["core.step.compilation_share"] = float64(total.Compilation) / t
		m["core.step.evaluation_share"] = float64(total.Evaluation) / t
	}
	if hits+progs > 0 {
		m["core.memo_hit_rate"] = float64(hits) / float64(hits+progs)
	}
	m["core.evaluated_instrs"] = median(instrs)
	m["core.iters_to_target"] = median(iters)
	m["core.time_to_target_ms"] = median(toTarget)
	m["core.final_coverage"] = median(finals)
	if e.winner != nil {
		if st, err := harpocrates.MeasureDetection(e.winner, harpocrates.IRF, e.rc.sz.EvolveGradeN, e.rc.seed); err == nil {
			m["core.final_detection"] = st.Detection()
		}
	}
}

func (e *evolveInst) close() error { return nil }
