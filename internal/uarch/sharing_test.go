package uarch

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/gen"
	"harpocrates/internal/stats"
)

// coreImage is what a checkpoint must reproduce of the core it was taken
// from: the state hash and stream digest, the full L1D, L2 and gshare
// arrays, and the live ROB entries by slot.
type coreImage struct {
	cycle, hash, stream, history uint64
	lines                        []cacheLine
	data                         []byte
	l2Valid                      []bool
	l2Tag, l2LastUse             []uint64
	gshare                       []uint8
	rob                          map[int]uop
}

func imageOf(c *Core) coreImage {
	im := coreImage{
		cycle: c.cycle, hash: c.stateHash(), stream: c.streamDigest, history: c.bp.history,
		lines: slices.Clone(c.cache.lines), data: slices.Clone(c.cache.data),
		gshare: slices.Clone(c.bp.table), rob: map[int]uop{},
	}
	if l2 := c.cache.l2; l2 != nil {
		im.l2Valid, im.l2Tag, im.l2LastUse = slices.Clone(l2.valid), slices.Clone(l2.tag), slices.Clone(l2.lastUse)
	}
	var live []int
	for k := 0; k < c.robCnt; k++ {
		live = append(live, (c.robHead+k)%len(c.rob))
	}
	for _, i := range c.inflight {
		// A squashed µop outside the window is dead: writeback drops it
		// unread, at a scan the skipping loop may reach later than the
		// naive loop.
		if !c.rob[i].squashed {
			live = append(live, i)
		}
	}
	for _, i := range live {
		u := c.rob[i]
		u.pending = 0 // derived: rebuilt from the IQ by every restore
		// Compared by content: past its count, each list is dead.
		clear(u.srcs[u.nSrcs:])
		clear(u.dsts[u.nDsts:])
		clear(u.writes[u.nWrites:])
		clear(u.ibr[:]) // no IBR tracking in these runs: always empty
		if !u.snapValid {
			u.snap = ratSnapshot{} // dead
		}
		im.rob[i] = u
	}
	return im
}

// diffImages names the first part of two images that differs.
func diffImages(a, b coreImage) string {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		x, y := writable(va.Field(i)).Interface(), writable(vb.Field(i)).Interface()
		if !reflect.DeepEqual(x, y) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// TestCheckpointSharingBitIdentical: checkpoints taken every
// CheckpointSpacing cycles on generated programs of every preset (the
// 8000-instruction L1D one keeps over a hundred), each sharing what its
// run did not write since the previous one, hold exactly the golden core
// at capture, and none keeps the run's hooks (RestoreFrom replaces them).
// Restored in shuffled order into one core that runs on
// between restores (so restores skip what it still holds), each equals
// the image the naive loop's OnCycle hook took at that cycle; so does a
// checkpoint taken after the run, past the final flush. A bundle recorded
// on the skipping loop equals the naive loop's: checkpoint cycles (every
// multiple of the spacing before the end, none dropped) and contents,
// trajectory points, the three interval logs and the Result. The skipping
// golden run skips cycles.
func TestCheckpointSharingBitIdentical(t *testing.T) {
	for _, g := range presetGens() {
		p := gen.Materialize(gen.NewRandom(&g.cfg, stats.Derive(3, 21)), &g.cfg)
		record := func(naive bool) (*Core, []*Checkpoint, *DeltaTrajectory, map[uint64]coreImage) {
			cfg := fullTracking(DefaultConfig())
			cfg.TrackIRF, cfg.TrackFPRF, cfg.TrackL1D, cfg.TrackIBR = false, false, false, false
			traj := GetDeltaTrajectory(0)
			cfg.DeltaRecord = traj
			var cks []*Checkpoint
			cfg.Checkpoints = &cks
			images := map[uint64]coreImage{}
			if naive {
				cfg.OnCycle = func(c *Core, cyc uint64) {
					if cyc%CheckpointSpacing == 0 {
						images[cyc] = imageOf(c)
					}
				}
			}
			c := NewCore(p.Insts, p.NewState(), cfg)
			c.Run()
			return c, cks, traj, images
		}
		naive, naiveCks, naiveTraj, images := record(true)
		skip, skipCks, skipTraj, _ := record(false)

		want := int((naive.cycle-1)/CheckpointSpacing) + 1
		if len(naiveCks) != want || len(skipCks) != want {
			t.Fatalf("%s: %d naive and %d skipping checkpoints over %d cycles, want %d",
				g.name, len(naiveCks), len(skipCks), naive.cycle, want)
		}
		if g.name == "l1d" && want <= 100 {
			t.Fatalf("l1d: only %d checkpoints", want)
		}
		if skip.SkippedCycles() == 0 {
			t.Errorf("%s: the golden run with checkpoint capture skipped no cycle", g.name)
		}
		resultsIdentical(t, g.name+" skip vs naive", naive.buildResult(), skip.buildResult())
		if !slices.Equal(naiveTraj.Points, skipTraj.Points) {
			t.Errorf("%s: trajectory points differ between the loops", g.name)
		}

		// After the run (and its final flush) the core takes one more.
		final := naive.Checkpoint()
		finalImage := imageOf(naive)

		r := new(Core)
		check := func(label string, ck *Checkpoint, want coreImage) {
			t.Helper()
			r.RestoreFrom(ck, Config{MaxCycles: ck.Cycle() + 300})
			if part := diffImages(imageOf(r), want); part != "" {
				t.Errorf("%s: %s: restored %s differs from the golden core's", g.name, label, part)
			}
			r.Run() // write some of the arrays before the next restore
		}
		rng := rand.New(rand.NewPCG(5, uint64(len(naiveCks))))
		for _, k := range rng.Perm(len(naiveCks)) {
			ck := naiveCks[k]
			if ck.Cycle() != uint64(k)*CheckpointSpacing || skipCks[k].Cycle() != ck.Cycle() {
				t.Fatalf("%s: checkpoint %d at cycles %d (naive) and %d (skip), want %d",
					g.name, k, ck.Cycle(), skipCks[k].Cycle(), uint64(k)*CheckpointSpacing)
			}
			if cfg := ck.core.cfg; cfg.OnCycle != nil || cfg.DeltaRecord != nil || cfg.Checkpoints != nil {
				t.Fatalf("%s: checkpoint at cycle %d keeps the run's hooks alive", g.name, ck.Cycle())
			}
			label := fmt.Sprintf("checkpoint at cycle %d", ck.Cycle())
			check(label, ck, images[ck.Cycle()])
			check(label+" (skipping loop)", skipCks[k], images[ck.Cycle()])
		}
		check("checkpoint after the run", final, finalImage)

		for _, ck := range append(append(naiveCks, skipCks...), final) {
			ck.Release()
		}
		ReleaseDeltaTrajectory(naiveTraj)
		ReleaseDeltaTrajectory(skipTraj)
	}
}

// TestCheckpointThinning: a run twice as long as maxCheckpoints
// checkpoints span (a suite kernel cut by the watchdog) holds at most
// maxCheckpoints. Each time it reaches the bound it releases every other
// one and doubles the spacing, so it ends holding cycle 0 and every
// multiple of four times CheckpointSpacing before its end, on both loops
// alike; the released ones are gone from the leak count, and the kept
// ones still restore the golden core at their cycle.
func TestCheckpointThinning(t *testing.T) {
	p := dcdiag.Memtest(1)
	end := uint64(2*maxCheckpoints*CheckpointSpacing + 1000)
	const probe = 16 * CheckpointSpacing
	record := func(naive bool) ([]*Checkpoint, map[uint64]coreImage) {
		cfg := DefaultConfig()
		cfg.MaxCycles = end
		var cks []*Checkpoint
		cfg.Checkpoints = &cks
		images := map[uint64]coreImage{}
		if naive {
			cfg.OnCycle = func(c *Core, cyc uint64) {
				if cyc%probe == 0 {
					images[cyc] = imageOf(c)
				}
			}
		}
		live := LiveCheckpoints()
		c := NewCore(p.Insts, p.NewState(), cfg)
		c.Run()
		if c.cycle != end {
			t.Fatalf("%s ended at cycle %d, want the watchdog's %d", p.Name, c.cycle, end)
		}
		if n := LiveCheckpoints() - live; n != int64(len(cks)) {
			t.Errorf("%d checkpoints live after the run, %d held: thinning leaks", n, len(cks))
		}
		return cks, images
	}
	naiveCks, images := record(true)
	skipCks, _ := record(false)

	spacing := uint64(4 * CheckpointSpacing)
	want := int((end-1)/spacing) + 1
	if len(naiveCks) != want || len(skipCks) != want || want > maxCheckpoints {
		t.Fatalf("%d naive and %d skipping checkpoints, want %d (at most %d)",
			len(naiveCks), len(skipCks), want, maxCheckpoints)
	}
	r := new(Core)
	for k, ck := range naiveCks {
		if ck.Cycle() != uint64(k)*spacing || skipCks[k].Cycle() != ck.Cycle() {
			t.Fatalf("checkpoint %d at cycles %d (naive) and %d (skip), want %d",
				k, ck.Cycle(), skipCks[k].Cycle(), uint64(k)*spacing)
		}
		if ck.Cycle()%probe != 0 {
			continue
		}
		for _, c := range []*Checkpoint{ck, skipCks[k]} {
			r.RestoreFrom(c, Config{})
			if part := diffImages(imageOf(r), images[ck.Cycle()]); part != "" {
				t.Errorf("checkpoint at cycle %d: restored %s differs from the golden core's", ck.Cycle(), part)
			}
		}
	}
	for _, ck := range append(naiveCks, skipCks...) {
		ck.Release()
	}
}

// TestApproxBytesCountsSharedOnce: a checkpoint that shares every page
// and cache chunk with one already in the bundle adds only what it holds
// alone, however many such checkpoints there are, and so does the flush
// log, whose final memory shares every page with them.
func TestApproxBytesCountsSharedOnce(t *testing.T) {
	g := presetGens()[0]
	p := gen.Materialize(gen.NewRandom(&g.cfg, stats.Derive(3, 22)), &g.cfg)
	cfg := DefaultConfig()
	cfg.RecordL1DIntervals = true
	c := NewCore(p.Insts, p.NewState(), cfg)
	c.cfg.MaxCycles = 1000
	res := c.Run()
	defer ace.ReleaseIntervalRecorder(res.L1DIntervals)
	first := c.Checkpoint()
	ga := &GoldenArtifacts{Checkpoints: []*Checkpoint{first}}
	one := ga.ApproxBytes()
	for n := 2; n <= 4; n++ {
		ck := c.Checkpoint() // nothing written since: shares everything
		if !slices.Equal(ck.l1d, first.l1d) || !slices.Equal(ck.l2, first.l2) {
			t.Fatal("a checkpoint of an unchanged core does not share every chunk")
		}
		ga.Checkpoints = append(ga.Checkpoints, ck)
		if got, want := ga.ApproxBytes(), one+(n-1)*ck.ownBytes(); got != want {
			t.Fatalf("%d checkpoints sharing every page and chunk count %d bytes, want %d (one: %d, own part: %d)",
				n, got, want, one, ck.ownBytes())
		}
	}
	fl := res.L1DFlush
	if fl == nil || len(fl.Lines) == 0 {
		t.Fatal("the run recorded no flushed line")
	}
	without := ga.ApproxBytes()
	ga.Result = res
	if got, want := ga.ApproxBytes(), without+256+res.L1DIntervals.ApproxBytes()+fl.approxBytes(); got != want {
		t.Fatalf("a flush log sharing every page counts %d bytes, want %d (own part: %d)", got, want, fl.approxBytes())
	}
	pages := 0
	for _, data := range fl.Final.Mem.(*arch.Memory).Pages() {
		pages += len(data)
	}
	alone := &GoldenArtifacts{Result: res}
	if got, want := alone.ApproxBytes(), 256+res.L1DIntervals.ApproxBytes()+fl.approxBytes()+pages; got != want {
		t.Fatalf("a flush log alone counts %d bytes, want %d (final pages: %d)", got, want, pages)
	}
	for _, ck := range ga.Checkpoints {
		ck.Release()
	}
}
