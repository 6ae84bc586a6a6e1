package main

import (
	"fmt"
	"slices"
	"time"

	"harpocrates"
	"harpocrates/internal/inject"
	"harpocrates/internal/stats"
)

// sfiTarget is one campaign of an sfi-* operation.
type sfiTarget struct {
	st  harpocrates.Structure
	typ inject.FaultType
	n   int
}

// sfiInst runs in-process campaigns, one program per slot.
type sfiInst struct {
	rc      *runCtx
	name    string
	gen     harpocrates.GenConfig
	targets []sfiTarget
	results map[int][]*inject.Stats
}

func newSFI(rc *runCtx, name string, preset harpocrates.Structure, targets ...sfiTarget) *sfiInst {
	return &sfiInst{rc: rc, name: name, gen: harpocrates.Preset(preset, 1).Gen, targets: targets,
		results: map[int][]*inject.Stats{}}
}

func setupSFIIRF(rc *runCtx) (instance, error) {
	return newSFI(rc, "sfi-irf-transient", harpocrates.IRF, sfiTarget{harpocrates.IRF, inject.Transient, rc.sz.IRFN}), nil
}

func setupSFIL1D(rc *runCtx) (instance, error) {
	return newSFI(rc, "sfi-l1d-transient", harpocrates.L1D, sfiTarget{harpocrates.L1D, inject.Transient, rc.sz.L1DN}), nil
}

func setupSFIFU(rc *runCtx) (instance, error) {
	return newSFI(rc, "sfi-fu-permanent", harpocrates.IntMul,
		sfiTarget{harpocrates.IntMul, inject.Permanent, rc.sz.FUN},
		sfiTarget{harpocrates.FPAdd, inject.Permanent, rc.sz.FUN}), nil
}

func (s *sfiInst) program(i int) *harpocrates.Program {
	return harpocrates.Generate(&s.gen, s.rc.derive(i))
}

func (s *sfiInst) campaign(p *harpocrates.Program, t sfiTarget, i int) *harpocrates.Campaign {
	c := harpocrates.NewDetectionCampaign(p, t.st, t.n, s.rc.derive(i))
	c.Type = t.typ
	c.Workers = s.rc.threads
	c.Obs = s.rc.ob
	return c
}

func (s *sfiInst) op(slot, pass int) (opSample, error) {
	p := s.program(slot)
	tr := s.rc.tr
	out := make([]*inject.Stats, len(s.targets))
	var sample opSample
	opSpan := tr.start(s.name+".op", 0, slot)
	defer tr.end(opSpan)
	for k, t := range s.targets {
		c := s.campaign(p, t, slot)
		sp := tr.start("inject.campaign", opSpan, slot)
		t0 := time.Now()
		st, err := c.Run()
		sample.dur += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return sample, err
		}
		if got := st.Masked + st.Detected(); st.N != t.n || len(st.Outcomes) != st.N || got != st.N {
			return sample, fmt.Errorf("%v: inconsistent stats %+v", t.st, st)
		}
		out[k] = st
		sample.work += float64(st.N)
	}
	// Every repetition of a campaign must give the same Stats, outcome
	// vector included, as the first.
	first, ok := s.results[slot]
	if !ok {
		s.results[slot] = out
		return sample, nil
	}
	for k := range out {
		if !out[k].Equal(first[k]) {
			return sample, fmt.Errorf("%v: repetition differs from the first pass", s.targets[k].st)
		}
	}
	return sample, nil
}

// verify recomputes the first twentieth of the first VerifyOps slots'
// campaigns with checkpoint resume, ACE pre-masking and delta
// termination all switched off.
func (s *sfiInst) verify() []string {
	var bad []string
	for i := 0; i < s.rc.sz.VerifyOps; i++ {
		first, ok := s.results[i]
		if !ok {
			continue
		}
		p := s.program(i)
		for k, t := range s.targets {
			c := s.campaign(p, t, i)
			c.Obs = nil
			c.NoFastForward, c.NoDeltaTermination = true, true
			hi := max(t.n/20, 1)
			ref, err := c.RunRange(0, hi)
			if err != nil || ref.GoldenCycles != first[k].GoldenCycles || !slices.Equal(ref.Outcomes, first[k].Outcomes[:hi]) {
				bad = append(bad, fmt.Sprintf("%s slot %d %v: differs from the from-zero reference (err %v)", s.name, i, t.st, err))
			}
		}
	}
	return bad
}

func (s *sfiInst) digest(k int) uint64 {
	h := uint64(stats.HashInit)
	for i := 0; i < k; i++ {
		for _, st := range s.results[i] {
			h = foldStats(h, st)
		}
	}
	return h
}

func (s *sfiInst) input() probeInput {
	t := s.targets[0]
	in := probeInput{prog: s.program(0), gen: s.gen, st: t.st, typ: t.typ, n: t.n}
	if r := s.results[0]; len(r) > 0 {
		in.stats = r[0]
	}
	return in
}

// insitu is empty: everything an in-process campaign reports comes
// through the obs registry, which the traced run reads for every
// workload alike.
func (s *sfiInst) insitu(map[string]float64) {}

func (s *sfiInst) close() error { return nil }
