package uarch

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/baselines/kasm"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
	"harpocrates/internal/prog"
	"harpocrates/internal/stats"
)

// issueCycles runs prog under cfg with a commit trace and returns the
// cycle each program counter executed at (its last execution).
func issueCycles(t *testing.T, p []isa.Inst, cfg Config) (*Result, map[int]uint64) {
	t.Helper()
	var trace bytes.Buffer
	cfg.Trace = &trace
	r := Run(p, newInitState(t, 9), cfg)
	if !r.Clean() {
		t.Fatalf("run not clean: crash=%v timedOut=%v", r.Crash, r.TimedOut)
	}
	issued := map[int]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var pc, at int
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "pc="); ok {
				pc, _ = strconv.Atoi(v)
			}
			if v, ok := strings.CutPrefix(f, "issued@"); ok {
				at, _ = strconv.Atoi(v)
			}
		}
		issued[pc] = uint64(at)
	}
	return r, issued
}

// consumed converts a coverage fraction back to consumed cell-cycles.
func consumed(vuln float64, cells int, cycles uint64) uint64 {
	return uint64(math.Round(vuln * float64(cells) * float64(cycles)))
}

// TestCoverageCreditsRMWDestinationRead: a read-modify-write reads its
// destination's old physical register, and when it is that register's
// last reader, coverage must still credit the read's interval. Each
// program writes a register at cycle w (pc 0) and overwrites it with a
// read-modify-write that executes at cycle r (pc 1), whose other source
// was last written at reset, so the whole run consumes
//
//	IRF:  64·(r−w) + 64·r  (ADD rax, rbx reads both 64-bit registers)
//	FPRF: 128·(r−w) + 64·r (ADDSD xmm0, xmm1 reads all of xmm0, since the
//	      upper lane carries over, and the low lane of xmm1)
//
// A model that frees the old register before crediting the µop's reads
// drops the first term.
func TestCoverageCreditsRMWDestinationRead(t *testing.T) {
	for _, tc := range []struct {
		name     string
		build    func(b *kasm.Builder)
		track    func(*Config)
		vuln     func(*Result) float64
		cells    int
		rmwWidth uint64
		srcWidth uint64
	}{
		{"irf", func(b *kasm.Builder) {
			b.MovRI(isa.RAX, 7)
			b.AddRR(isa.RAX, isa.RBX)
		}, func(c *Config) { c.TrackIRF = true }, func(r *Result) float64 { return r.IRFVuln },
			DefaultConfig().IntPRF * 64, 64, 64},
		{"fprf", func(b *kasm.Builder) {
			b.LoadSD(0, isa.RSI, 0)
			b.AddSD(0, 1)
		}, func(c *Config) { c.TrackFPRF = true }, func(r *Result) float64 { return r.FPRFVuln },
			2 * DefaultConfig().FPPRF * 64, 128, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := kasm.New()
			tc.build(b)
			cfg := DefaultConfig()
			tc.track(&cfg)
			r, issued := issueCycles(t, b.Build(), cfg)
			w, rd := issued[0], issued[1]
			if rd <= w {
				t.Fatalf("read-modify-write executed at cycle %d, not after its producer's %d", rd, w)
			}
			want := tc.rmwWidth*(rd-w) + tc.srcWidth*rd
			if got := consumed(tc.vuln(r), tc.cells, r.Cycles); got != want {
				t.Fatalf("coverage consumed %d cell-cycles, want %d = %d·(%d−%d) + %d·%d",
					got, want, tc.rmwWidth, rd, w, tc.srcWidth, rd)
			}
		})
	}
}

// TestCoverageRecorderBitIdentical: coverage is the recorder's consumed
// total whether or not the recorder keeps its log. Over every preset
// generator and every mibench and OpenDCDiag kernel, on the naive and the
// skipping loop, tracking alone and tracking with recording give
// bit-identical IRF, FPRF and L1D coverage, and that coverage equals the
// summed length of the log's spans before the end-of-run register reads
// (the L1D log has none: its total includes the final flush).
func TestCoverageRecorderBitIdentical(t *testing.T) {
	type program struct {
		name string
		p    *prog.Program
	}
	var progs []program
	for _, g := range presetGens() {
		p := gen.Materialize(gen.NewRandom(&g.cfg, stats.Derive(1, 11)), &g.cfg)
		progs = append(progs, program{"gen/" + g.name, p})
	}
	for _, p := range append(dcdiag.Programs(1), mibench.Programs(1)...) {
		progs = append(progs, program{p.Name, p})
	}
	track := DefaultConfig()
	track.TrackIRF, track.TrackFPRF, track.TrackL1D = true, true, true
	// The suite kernels loop for up to ~95k cycles and the L1D preset
	// runs ~15k; 5k cover each loop often and keep the test cheap enough
	// for the -count=20 race step. A run cut by the watchdog still
	// flushes and reports coverage.
	track.MaxCycles = 5000
	record := track
	record.RecordIRFIntervals, record.RecordFPRFIntervals, record.RecordL1DIntervals = true, true, true
	for _, pr := range progs {
		var ref *Result
		for _, naive := range []bool{true, false} {
			label := fmt.Sprintf("%s/naive=%v", pr.name, naive)
			tcfg, rcfg := track, record
			tcfg.NoCycleSkip, rcfg.NoCycleSkip = naive, naive
			alone := Run(pr.p.Insts, pr.p.NewState(), tcfg)

			c := NewCore(pr.p.Insts, pr.p.NewState(), rcfg)
			if naive {
				c.runNaive()
			} else {
				c.runSkipping()
			}
			irf, fprf := c.recIRF.SpanCycles(), c.recFPRF.SpanCycles()
			logged := c.buildResult()
			for _, a := range []struct {
				name       string
				alone, log float64
				spans      uint64
				cells      int
			}{
				{"IRF", alone.IRFVuln, logged.IRFVuln, irf, track.IntPRF * 64},
				{"FPRF", alone.FPRFVuln, logged.FPRFVuln, fprf, 2 * track.FPPRF * 64},
				{"L1D", alone.L1DVuln, logged.L1DVuln, logged.L1DIntervals.SpanCycles(), track.L1D.SizeBytes},
			} {
				want := float64(a.spans) / (float64(a.cells) * float64(logged.Cycles))
				if math.Float64bits(a.alone) != math.Float64bits(a.log) || math.Float64bits(a.log) != math.Float64bits(want) {
					t.Errorf("%s: %s coverage %v tracked alone, %v with the log, %v from the log's spans",
						label, a.name, a.alone, a.log, want)
				}
			}
			if alone.IRFVuln == 0 {
				t.Errorf("%s: no coverage: %+v", label, alone.Snapshot)
			}
			if ref == nil {
				ref = alone
			} else if ref.Snapshot != alone.Snapshot {
				t.Errorf("%s: coverage differs between the naive and the skipping loop:\nnaive %+v\nskip  %+v",
					label, ref.Snapshot, alone.Snapshot)
			}
			(&GoldenArtifacts{Result: logged}).Release()
		}
	}
}
