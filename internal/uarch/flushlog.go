package uarch

import (
	"sort"
	"unsafe"

	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
)

// FlushLog is what a golden run's final cache flush wrote back, recorded
// beside the L1D interval log (Config.RecordL1DIntervals) so that a
// transient flip of a cache byte that nothing but the flush reads can be
// graded from the golden output instead of simulated.
//
// That grading is exact because cache data never steers the simulation:
// lookup, fill, LRU order, dirty bits, miss latency, the L2 and the
// prefetcher depend only on addresses and tags, and store-to-load
// forwarding reads store-queue data. Until some access reads a flipped
// byte, the faulty run therefore matches the golden run cycle for cycle;
// if the first access to read it is the final flush, the run ends at the
// golden run's cycle with the golden final state except for the flipped
// bits, which the flush wrote to memory at the address recorded here.
//
// The log grows only with what the flush wrote: per written-back line
// its SRAM index and address, and its bytes' window starts as runs of
// equal values (about three per line), plus the final architectural
// state, whose memory is a page-sharing clone of the run's and so adds
// only the pages written after the last checkpoint. The HXGA codec does
// not encode it.
type FlushLog struct {
	LineBytes int
	Lines     []FlushedLine // ascending SRAM line index
	Runs      []FlushRun
	// Final is the architectural state after the flush, the one the
	// golden signature digests. Its memory owns no page, so copies of it
	// (FinalState) never write it.
	Final arch.State
}

// FlushedLine is one line the flush wrote back.
type FlushedLine struct {
	Line int    // SRAM line index
	Addr uint64 // where the flush wrote it
	Runs int    // the line's first run; its runs end where the next line's begin
}

// FlushRun gives the line's bytes from Off up to the next run's Off (or
// the line's end) one window start: the cycle of their last logged
// write, fill or read before the flush.
type FlushRun struct {
	Off   int
	Start uint64
}

// record logs line i just before the flush writes it back to addr: each
// byte's flush-only window starts at its last logged write, fill or read,
// the flush's own read not yet among them.
func (f *FlushLog) record(i int, addr uint64, rec *ace.IntervalRecorder, first int) {
	f.Lines = append(f.Lines, FlushedLine{Line: i, Addr: addr, Runs: len(f.Runs)})
	for off := 0; off < f.LineBytes; off++ {
		start := rec.LastEvent(first + off)
		if off == 0 || start != f.Runs[len(f.Runs)-1].Start {
			f.Runs = append(f.Runs, FlushRun{Off: off, Start: start})
		}
	}
}

// Window reports whether the flush wrote SRAM byte b back and, if so,
// the address it wrote the byte to and the start of the byte's
// flush-only window: a flip of the byte applied at a cycle t with
// start < t is read by nothing before the flush.
func (f *FlushLog) Window(b int) (addr, start uint64, ok bool) {
	line, off := b/f.LineBytes, b%f.LineBytes
	i := sort.Search(len(f.Lines), func(i int) bool { return f.Lines[i].Line >= line })
	if i == len(f.Lines) || f.Lines[i].Line != line {
		return 0, 0, false
	}
	l := &f.Lines[i]
	end := len(f.Runs)
	if i+1 < len(f.Lines) {
		end = f.Lines[i+1].Runs
	}
	r := l.Runs
	for r+1 < end && f.Runs[r+1].Off <= off {
		r++
	}
	return l.Addr + uint64(off), f.Runs[r].Start, true
}

// FinalState returns a copy of the golden run's final architectural
// state whose memory the caller may write; its Signature is the golden
// signature until it does.
func (f *FlushLog) FinalState() *arch.State {
	s := f.Final
	s.Mem = f.Final.Mem.(*arch.Memory).Clone()
	return &s
}

// approxBytes estimates what the log holds alone; the final memory's
// pages are counted by GoldenArtifacts.ApproxBytes, once by identity.
func (f *FlushLog) approxBytes() int {
	n := int(unsafe.Sizeof(*f)) + int(unsafe.Sizeof(FlushedLine{}))*cap(f.Lines) +
		int(unsafe.Sizeof(FlushRun{}))*cap(f.Runs)
	for range f.Final.Mem.(*arch.Memory).Pages() {
		n += 24 // the page-table entry
	}
	return n
}
