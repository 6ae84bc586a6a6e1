package inject

import (
	"reflect"
	"slices"
	"testing"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/uarch"
)

// presetCampaign returns a campaign on a generated program of st's preset.
func presetCampaign(t *testing.T, st coverage.Structure) *Campaign {
	return testProgram(t, 0, func(cfg *gen.Config) { *cfg = core.PresetFor(st, 1).Gen })
}

// TestCheckpointSharingBitIdentical: the golden bundle a campaign records
// on the skipping loop — checkpoints every uarch.CheckpointSpacing cycles,
// each sharing what the run did not write since the previous one — equals
// the one recorded under NoCycleSkip on generated programs of the IRF,
// L1D and functional-unit presets: checkpoint cycles, trajectory points,
// the three interval logs, the functional-unit operand stream and the
// Result. Every target × fault type resumed from those checkpoints gives
// statistics equal to the from-reset NoFastForward reference. (The
// checkpoints' contents are pinned against the golden core in the uarch
// package's test of the same name.)
func TestCheckpointSharingBitIdentical(t *testing.T) {
	bundles := []struct {
		preset, target coverage.Structure
	}{
		{coverage.IRF, coverage.IRF}, {coverage.L1D, coverage.L1D},
		{coverage.IntMul, coverage.IntMul}, {coverage.IntMul, coverage.FPAdd},
	}
	for _, b := range bundles {
		record := func(noSkip bool) *uarch.GoldenArtifacts {
			c := presetCampaign(t, b.preset)
			c.Target, c.Type, c.N = b.target, DefaultFaultType(b.target), 8
			c.Cfg.NoCycleSkip = noSkip
			return c.buildGolden(true)
		}
		naive, skip := record(true), record(false)
		label := b.preset.String() + " preset, " + b.target.String() + " bundle"
		if naive.Result.Cycles != skip.Result.Cycles || naive.Result.Signature != skip.Result.Signature ||
			naive.Result.Snapshot != skip.Result.Snapshot || naive.Result.CacheHits != skip.Result.CacheHits ||
			naive.Result.L2Hits != skip.Result.L2Hits || naive.Result.Branches != skip.Result.Branches {
			t.Errorf("%s: results differ between the loops", label)
		}
		if !naive.Result.IRFIntervals.Equal(skip.Result.IRFIntervals) ||
			!naive.Result.FPRFIntervals.Equal(skip.Result.FPRFIntervals) ||
			!naive.Result.L1DIntervals.Equal(skip.Result.L1DIntervals) {
			t.Errorf("%s: interval logs differ between the loops", label)
		}
		if !slices.Equal(naive.Trajectory.Points, skip.Trajectory.Points) {
			t.Errorf("%s: trajectory points differ between the loops", label)
		}
		if !reflect.DeepEqual(naive.FUStream, skip.FUStream) {
			t.Errorf("%s: operand streams differ between the loops", label)
		}
		want := int((naive.Result.Cycles-1)/uarch.CheckpointSpacing) + 1
		if len(naive.Checkpoints) != want || len(skip.Checkpoints) != want {
			t.Errorf("%s: %d naive and %d skipping checkpoints, want %d", label,
				len(naive.Checkpoints), len(skip.Checkpoints), want)
		}
		for i := range min(len(naive.Checkpoints), len(skip.Checkpoints)) {
			if c := uint64(i) * uarch.CheckpointSpacing; naive.Checkpoints[i].Cycle() != c || skip.Checkpoints[i].Cycle() != c {
				t.Fatalf("%s: checkpoint %d at cycles %d and %d, want %d", label, i,
					naive.Checkpoints[i].Cycle(), skip.Checkpoints[i].Cycle(), c)
			}
		}
		naive.Release()
		skip.Release()
	}

	models := []struct {
		preset, target coverage.Structure
		typ            FaultType
	}{
		{coverage.IRF, coverage.IRF, Transient}, {coverage.IRF, coverage.IRF, Intermittent},
		{coverage.IRF, coverage.FPRF, Transient}, {coverage.IRF, coverage.FPRF, Intermittent},
		{coverage.L1D, coverage.L1D, Transient}, {coverage.L1D, coverage.L1D, Intermittent},
		{coverage.IRF, coverage.Decoder, Transient}, {coverage.IRF, coverage.LSQ, Transient},
		{coverage.IntMul, coverage.IntAdder, Permanent}, {coverage.IntMul, coverage.IntAdder, Intermittent},
		{coverage.IntMul, coverage.IntMul, Permanent}, {coverage.IntMul, coverage.IntMul, Intermittent},
		{coverage.IntMul, coverage.FPAdd, Permanent}, {coverage.IntMul, coverage.FPAdd, Intermittent},
		{coverage.IntMul, coverage.FPMul, Permanent}, {coverage.IntMul, coverage.FPMul, Intermittent},
	}
	for _, m := range models {
		fastForward(t, m.preset.String()+" preset, "+m.target.String()+"/"+m.typ.String(), func() *Campaign {
			c := presetCampaign(t, m.preset)
			c.Target, c.Type, c.N, c.Seed = m.target, m.typ, 12, 17
			c.IntermittentLen = 300
			return c
		})
	}
}
