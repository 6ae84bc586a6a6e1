// Package ace implements ACE (Architecturally Correct Execution) lifetime
// analysis for bit-array structures, the hardware-coverage metric the
// paper uses for the physical register files and the L1 data cache
// (§II-D, Fig. 3), and the consumed-interval log the fault injector
// pre-masks transient flips with. One model serves both: the
// IntervalRecorder.
//
// A cell's value is ACE during intervals that end in a read: write→read
// and read→read. Read→write, write→overwrite and clean-eviction tails are
// un-ACE; a dirty cache byte is ACE up to its writeback, because the
// writeback reads it. The simulator records every access at the cycle it
// happens, wrong-path work included, so events arrive in cycle order and
// a read's interval is never negative. Coverage is the consumed
// cell-cycles over cells × cycles, taken after the end-of-run cache flush
// and before the end-of-run reads of the final register state: those
// reads keep the log sound (the final state feeds the output signature)
// but are not counted as coverage. A run that needs coverage but no log
// keeps a sum-only recorder, whose state for each 64-cell block last
// written whole is one cycle per register segment ([0,8), [8,16),
// [16,32), [32,64)), so a register read costs at most four steps. When
// the flush is a dirty byte's only reader since its last write, fill or
// read, the fault injector grades a flip in that tail from the golden
// output instead of simulating it (uarch.FlushLog).
package ace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// IntervalRecorder records, per storage cell, when the cell was last
// written and read and the running total of consumed cell-cycles. A
// log-keeping recorder (NewIntervalRecorder, GetIntervalRecorder) also
// keeps the cycle intervals during which each cell's stored value can
// still reach architectural state: the fault injector pre-classifies a
// transient flip at a cycle outside every consumed interval of its cell
// as provably masked and never simulates it. A sum-only recorder
// (NewSumRecorder) keeps the total alone, which is all coverage needs,
// and keeps it per register segment where it can (see segBlock).
//
// The recorder is driven at access time, including wrong-path and
// squashed work. That makes the log strictly conservative for
// pre-classification: any read that could observe the cell — even one
// whose result is later thrown away but may have perturbed timing (e.g. a
// wrong-path load changing cache contents) — keeps the interval consumed.
//
// Events must arrive in non-decreasing cycle order (the simulator is
// cycle-driven), which keeps each cell's interval list sorted and
// mergeable in O(1) per event.
type IntervalRecorder struct {
	lastWrite []uint64
	lastRead  []uint64
	// spans is the log, one list per cell; nil in a sum-only recorder.
	spans [][]ivalSpan
	// blocks is a sum-only recorder's state of each whole 64-cell block
	// (cells past the last whole block are kept per cell); nil in a
	// log-keeping recorder.
	blocks   []segBlock
	sumOnly  bool
	consumed uint64
}

// blockCells is the width of a register: a 64-bit IRF entry, one half of
// a 128-bit FPRF entry, one 64-byte L1D line.
const blockCells = 64

// segEnd and segLen cut a block into the segments every register read
// the simulator makes is a prefix of: [0,8), [8,16), [16,32), [32,64) —
// an IRF read of 8, 16, 32 or 64 bits covers the first 1, 2, 3 or 4.
var (
	segEnd = [4]int{8, 16, 32, 64}
	segLen = [4]uint64{8, 8, 16, 32}
)

// segBlock is one 64-cell block of a sum-only recorder. A block last
// written whole — and every block at reset, written whole at cycle 0 —
// is whole: its state is last[s], for each segment s the later of the
// block's last write and the segment's last read, which is all a read's
// credit cycle − max(lastWrite, lastRead) needs, and its cells' entries
// in lastWrite/lastRead are stale. A prefix read of a whole block then
// costs one step per segment instead of one per cell. Any other access
// to a whole block (an L1D byte, a range not ending on a segment
// boundary) first spreads last into the cells and makes the block
// per-cell until it is next written whole.
type segBlock struct {
	whole bool
	last  [4]uint64
}

// ivalSpan is one consumed interval (start, end]: a corruption applied at
// cycle t with start < t <= end is (or may be) consumed.
type ivalSpan struct {
	start, end uint64
}

// NewIntervalRecorder creates a log-keeping recorder for cells storage
// cells. All cells start with an implicit write at cycle 0 (reset state).
func NewIntervalRecorder(cells int) *IntervalRecorder {
	return &IntervalRecorder{
		lastWrite: make([]uint64, cells),
		lastRead:  make([]uint64, cells),
		spans:     make([][]ivalSpan, cells),
	}
}

// NewSumRecorder creates a recorder for cells storage cells that keeps
// only the consumed total: Consumed, Equal and the codec need the log and
// must not be called on it.
func NewSumRecorder(cells int) *IntervalRecorder {
	r := &IntervalRecorder{sumOnly: true}
	r.Reset(cells)
	return r
}

// NumCells returns the number of tracked cells.
func (r *IntervalRecorder) NumCells() int { return len(r.lastWrite) }

// Write records that the cell's value was overwritten at cycle: a
// corruption of the old value strictly after the previous consumption is
// dead.
func (r *IntervalRecorder) Write(cell int, cycle uint64) { r.WriteRange(cell, 1, cycle) }

// Read records that the cell's value was consumed at cycle: the interval
// (max(lastWrite, lastRead), cycle] becomes consumed. Fault hooks fire at
// the start of a cycle, before that cycle's reads and writes, so a
// corruption at exactly the read cycle is observed while one at exactly
// the write cycle is overwritten — hence the half-open-at-start
// convention.
func (r *IntervalRecorder) Read(cell int, cycle uint64) { r.ReadRange(cell, 1, cycle) }

// WriteRange records a write of n consecutive cells starting at cell.
func (r *IntervalRecorder) WriteRange(cell, n int, cycle uint64) {
	if !r.sumOnly {
		r.writeCells(cell, n, cycle)
		return
	}
	for end := cell + n; cell < end; {
		b, off := cell/blockCells, cell%blockCells
		m := min(end-cell, blockCells-off)
		if b < len(r.blocks) {
			if m == blockCells {
				r.blocks[b] = segBlock{whole: true, last: [4]uint64{cycle, cycle, cycle, cycle}}
				cell += m
				continue
			}
			r.spread(b)
		}
		r.writeCells(cell, m, cycle)
		cell += m
	}
}

func (r *IntervalRecorder) writeCells(cell, n int, cycle uint64) {
	lw := r.lastWrite[cell : cell+n]
	for i := range lw {
		lw[i] = cycle
	}
}

// ReadRange records a consumption of n consecutive cells starting at
// cell. A read at its cell's write cycle consumes nothing: the write
// lands first.
func (r *IntervalRecorder) ReadRange(cell, n int, cycle uint64) {
	if !r.sumOnly {
		r.consumed += r.readCells(cell, n, cycle)
		return
	}
	var sum uint64
	for end := cell + n; cell < end; {
		b, off := cell/blockCells, cell%blockCells
		m := min(end-cell, blockCells-off)
		if b < len(r.blocks) && r.blocks[b].whole {
			if k := segCount(m); off == 0 && k > 0 {
				blk := &r.blocks[b]
				for s := range k {
					if from := blk.last[s]; cycle > from {
						sum += (cycle - from) * segLen[s]
						blk.last[s] = cycle
					}
				}
				cell += m
				continue
			}
			r.spread(b)
		}
		sum += r.readCells(cell, m, cycle)
		cell += m
	}
	r.consumed += sum
}

// readCells is the per-cell walk of a read: it returns the cell-cycles
// the read consumes and, when log-keeping, extends the log.
func (r *IntervalRecorder) readCells(cell, n int, cycle uint64) uint64 {
	lw := r.lastWrite[cell : cell+n]
	lr := r.lastRead[cell : cell+n]
	var sum uint64
	sumOnly := r.sumOnly
	for i, w := range lw {
		from := max(w, lr[i])
		if cycle <= from {
			continue
		}
		sum += cycle - from
		lr[i] = cycle
		if sumOnly {
			continue
		}
		s := r.spans[cell+i]
		if ln := len(s); ln > 0 && w <= s[ln-1].end {
			s[ln-1].end = cycle
		} else {
			r.spans[cell+i] = append(s, ivalSpan{start: w, end: cycle})
		}
	}
	return sum
}

// segCount returns how many segments a block prefix of n cells covers,
// or 0 when n does not end on a segment boundary.
func segCount(n int) int {
	for s, e := range segEnd {
		if n == e {
			return s + 1
		}
	}
	return 0
}

// spread moves whole block b's segment state into its cells and makes
// the block per-cell.
func (r *IntervalRecorder) spread(b int) {
	blk := &r.blocks[b]
	if !blk.whole {
		return
	}
	lo := b * blockCells
	for s, e := range segEnd {
		hi := b*blockCells + e
		for c := lo; c < hi; c++ {
			r.lastWrite[c], r.lastRead[c] = blk.last[s], blk.last[s]
		}
		lo = hi
	}
	blk.whole = false
}

// LastEvent returns the cycle of the cell's last logged write or read
// (0 for a cell never touched since reset): a corruption applied after it
// meets no logged event until the next one.
func (r *IntervalRecorder) LastEvent(cell int) uint64 {
	if b := cell / blockCells; b < len(r.blocks) && r.blocks[b].whole {
		off := cell % blockCells
		s := 0
		for off >= segEnd[s] {
			s++
		}
		return r.blocks[b].last[s]
	}
	return max(r.lastWrite[cell], r.lastRead[cell])
}

// Vulnerability returns the consumed fraction of the structure over a
// run of totalCycles: consumed cell-cycles / (cells × cycles), the
// AVF-style hardware coverage value in [0, 1].
func (r *IntervalRecorder) Vulnerability(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 0
	}
	return float64(r.consumed) / (float64(len(r.lastWrite)) * float64(totalCycles))
}

// SpanCycles returns the summed length of the logged intervals, the
// consumed total recomputed from the log.
func (r *IntervalRecorder) SpanCycles() uint64 {
	var n uint64
	for _, s := range r.spans {
		for _, sp := range s {
			n += sp.end - sp.start
		}
	}
	return n
}

// Consumed reports whether a corruption of cell applied at the start of
// cycle can reach architectural state, i.e. whether cycle falls in a
// consumed interval. A false return is a proof of masking.
func (r *IntervalRecorder) Consumed(cell int, cycle uint64) bool {
	s := r.spans[cell]
	i := sort.Search(len(s), func(i int) bool { return s[i].end >= cycle })
	return i < len(s) && s[i].start < cycle
}

// Equal reports whether two recorders captured identical interval logs —
// the bit-identity oracle the naive-vs-skipping differential tests use.
// Nil recorders compare equal to nil and to empty.
func (r *IntervalRecorder) Equal(o *IntervalRecorder) bool {
	if r == nil || o == nil {
		return (r == nil || r.NumCells() == 0) && (o == nil || o.NumCells() == 0)
	}
	if len(r.lastWrite) != len(o.lastWrite) {
		return false
	}
	for i := range r.lastWrite {
		if r.lastWrite[i] != o.lastWrite[i] {
			return false
		}
		a, b := r.spans[i], o.spans[i]
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

// Reset returns the recorder to its initial state for cells storage
// cells, reusing the backing arrays when they are large enough. Per-cell
// span slices keep their capacity, so a reused recorder stops allocating
// once it has seen a workload of similar shape. A sum-only recorder
// resets its blocks and the cells past the last one; the cells of a
// block are written when it is spread.
func (r *IntervalRecorder) Reset(cells int) {
	r.consumed = 0
	if cap(r.lastWrite) < cells {
		r.lastWrite = make([]uint64, cells)
		r.lastRead = make([]uint64, cells)
		if !r.sumOnly {
			r.spans = make([][]ivalSpan, cells)
		}
	}
	r.lastWrite = r.lastWrite[:cells]
	r.lastRead = r.lastRead[:cells]
	if r.sumOnly {
		nb := cells / blockCells
		if cap(r.blocks) < nb {
			r.blocks = make([]segBlock, nb)
		}
		r.blocks = r.blocks[:nb]
		for i := range r.blocks {
			r.blocks[i] = segBlock{whole: true}
		}
		clear(r.lastWrite[nb*blockCells:])
		clear(r.lastRead[nb*blockCells:])
		return
	}
	clear(r.lastWrite)
	clear(r.lastRead)
	r.spans = r.spans[:cells]
	for i := range r.spans {
		r.spans[i] = r.spans[i][:0]
	}
}

// recorderPool recycles log-keeping IntervalRecorders across simulator
// runs. A recorder for the L1D data array alone carries tens of thousands
// of cells; reallocating those per pooled-core run dominated campaign
// allocation profiles.
var recorderPool sync.Pool

// liveRecorders counts Get minus Release — the pool-hygiene leak
// detector used by tests.
var liveRecorders atomic.Int64

// GetIntervalRecorder returns a reset log-keeping recorder for cells
// storage cells, reusing pooled backing storage when available.
func GetIntervalRecorder(cells int) *IntervalRecorder {
	liveRecorders.Add(1)
	v := recorderPool.Get()
	if v == nil {
		return NewIntervalRecorder(cells)
	}
	r := v.(*IntervalRecorder)
	r.Reset(cells)
	return r
}

// ReleaseIntervalRecorder returns a recorder to the pool. The caller must
// not retain references to it afterwards. Nil is a no-op.
func ReleaseIntervalRecorder(r *IntervalRecorder) {
	if r != nil {
		liveRecorders.Add(-1)
		recorderPool.Put(r)
	}
}

// LiveIntervalRecorders returns the number of recorders handed out and
// not yet released (leak-test hook).
func LiveIntervalRecorders() int64 { return liveRecorders.Load() }
