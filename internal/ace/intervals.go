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
// but are not counted as coverage. A recorder keeps each 64-cell block
// last written whole as register segments ([0,8), [8,16), [16,32),
// [32,64)): a sum-only recorder one cycle per segment, a log-keeping one
// also one span list per segment, so a register read costs at most four
// steps either way. When the flush is a dirty byte's only reader since
// its last write, fill or read, the fault injector grades a flip in that
// tail from the golden output instead of simulating it (uarch.FlushLog).
package ace

import (
	"slices"
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
// (NewSumRecorder) keeps the total alone, which is all coverage needs.
// Both keep state per register segment where they can (see segBlock and
// segLog).
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
	cells int
	// lastWrite and lastRead are the per-cell state, empty until a block
	// first spreads (growCells) unless cells past the last whole block
	// need it: the register files' recorders never hold it. A log keeps
	// no lastRead: a cell's last read is its last span's end
	// (lastReadOf).
	lastWrite []uint64
	lastRead  []uint64
	// blocks is the state of each 64-cell block; cells past the last
	// whole block are kept per cell.
	blocks []segBlock
	// The log, all nil in a sum-only recorder: cellLog[c] lists cell c's
	// own spans (per-cell state, like lastWrite), segLog[b] block b's
	// segment spans, and a cell's log is the two merged (cellSpans).
	// Every span lives in the pointer-free arena, a node addressed by
	// int32 index, in fixed chunks that never move (doubling one flat
	// slice copied it and touched fresh memory twice); node 0 is a
	// sentinel, so a zero spanList is empty.
	cellLog []spanList
	segLog  []segLog
	arena   []*[chunkLen]spanNode
	nodes   int32
	sumOnly bool

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

// segBlock is one 64-cell block. A block last written whole — and every
// block at reset, written whole at cycle 0 — is whole: its state is
// last[s], for each segment s the later of the block's last write and
// the segment's last read, which is all a read's credit cycle −
// max(lastWrite, lastRead) needs, and its cells' per-cell state, if the
// recorder holds any, is stale. A prefix read of a whole block then
// costs one step per segment instead of one per cell. Any other access
// to a whole block (an L1D byte, a range not ending on a segment
// boundary) first spreads it into the cells and makes the block per-cell
// until it is next written whole. A log-keeping recorder keeps the
// block's log beside it (segLog).
type segBlock struct {
	whole bool
	last  [4]uint64
}

// segLog is a log-keeping recorder's log of one block's segments. While
// the block is whole every cell of a segment sees the same events, so
// the segment logs them once: write is the block's last whole write,
// where a span the next read opens starts (last may have moved past it),
// cur the segment's latest span, which that read extends when no write
// came after its end (zero when the segment has none), and done the
// segment's earlier spans. A spread moves cur into each of its cells'
// own lists and zeroes it, so done keeps only spans no read extends
// again, and a whole write gathers a spread block back only when no cell
// of it was read in the same cycle: such a cell's next read extends its
// own last span across the write.
type segLog struct {
	write uint64
	cur   [4]ivalSpan
	done  [4]spanList
}

// ivalSpan is one consumed interval (start, end]: a corruption applied at
// cycle t with start < t <= end is (or may be) consumed.
type ivalSpan struct {
	start, end uint64
}

// spanNode is a span in the arena, linked to the next one of its list (0
// ends the list).
type spanNode struct {
	ivalSpan
	next int32
}

// chunkLen is the number of nodes in an arena chunk (24 KiB).
const chunkLen = 1 << 10

// node returns arena node i.
func (r *IntervalRecorder) node(i int32) *spanNode { return &r.arena[i/chunkLen][i%chunkLen] }

// spanList is a list of arena spans in cycle order, by the indices of
// its first and last nodes (0 when empty).
type spanList struct {
	head, tail int32
}

// NewIntervalRecorder creates a log-keeping recorder for cells storage
// cells. All cells start with an implicit write at cycle 0 (reset state).
func NewIntervalRecorder(cells int) *IntervalRecorder {
	r := &IntervalRecorder{}
	r.Reset(cells)
	return r
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
func (r *IntervalRecorder) NumCells() int { return r.cells }

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
	for end := cell + n; cell < end; {
		b, off := cell/blockCells, cell%blockCells
		m := min(end-cell, blockCells-off)
		if b < len(r.blocks) {
			if m == blockCells && r.gatherable(b, cycle) {
				r.blocks[b] = segBlock{whole: true, last: [4]uint64{cycle, cycle, cycle, cycle}}
				if !r.sumOnly {
					r.segLog[b].write = cycle
				}
				cell += m
				continue
			}
			r.spread(b)
		}
		r.writeCells(cell, m, cycle)
		cell += m
	}
}

// gatherable reports whether a whole write of block b at cycle may keep
// it as segments: always, unless the block is a log's spread block with
// a cell read at cycle (see segLog).
func (r *IntervalRecorder) gatherable(b int, cycle uint64) bool {
	if r.sumOnly || r.blocks[b].whole {
		return true
	}
	for c := b * blockCells; c < (b+1)*blockCells; c++ {
		if r.lastReadOf(c) == cycle {
			return false
		}
	}
	return true
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
	var sum uint64
	logging := !r.sumOnly
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
						if logging {
							r.logSegment(b, s, cycle)
						}
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
// the read consumes and, when log-keeping, logs it: it extends the
// cell's last span when no write came after its end, else opens
// (lastWrite, cycle]. A cell read per cell keeps its latest span in its
// own list (a spread moved it there).
func (r *IntervalRecorder) readCells(cell, n int, cycle uint64) uint64 {
	lw := r.lastWrite[cell : cell+n]
	var sum uint64
	if r.sumOnly {
		lr := r.lastRead[cell : cell+n]
		for i, w := range lw {
			if from := max(w, lr[i]); cycle > from {
				sum += cycle - from
				lr[i] = cycle
			}
		}
		return sum
	}
	logs := r.cellLog[cell : cell+n]
	for i, w := range lw {
		l := &logs[i]
		last := r.node(l.tail)
		if from := max(w, last.end); cycle > from {
			sum += cycle - from
			if l.tail != 0 && w <= last.end {
				last.end = cycle
			} else {
				r.push(l, ivalSpan{start: w, end: cycle})
			}
		}
	}
	return sum
}

// lastReadOf returns the cycle of per-cell cell c's last consuming read
// (0 if none).
func (r *IntervalRecorder) lastReadOf(c int) uint64 {
	if r.sumOnly {
		return r.lastRead[c]
	}
	return r.node(r.cellLog[c].tail).end
}

// logSegment is readCells' logging for every cell of segment s of whole
// block b.
func (r *IntervalRecorder) logSegment(b, s int, cycle uint64) {
	sl := &r.segLog[b]
	cur := &sl.cur[s]
	if cur.end != 0 && sl.write <= cur.end {
		cur.end = cycle
		return
	}
	if cur.end != 0 {
		r.push(&sl.done[s], *cur)
	}
	*cur = ivalSpan{start: sl.write, end: cycle}
}

// push appends sp to list l.
func (r *IntervalRecorder) push(l *spanList, sp ivalSpan) {
	i := r.nodes
	if int(i/chunkLen) == len(r.arena) {
		r.arena = append(r.arena, new([chunkLen]spanNode))
	}
	*r.node(i) = spanNode{ivalSpan: sp}
	r.nodes++
	if l.tail != 0 {
		r.node(l.tail).next = i
	} else {
		l.head = i
	}
	l.tail = i
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

// segOf returns the segment of block offset off.
func segOf(off int) int {
	s := 0
	for off >= segEnd[s] {
		s++
	}
	return s
}

// spread moves whole block b's segment state into its cells and makes
// the block per-cell. A sum-only cell takes last[s] as both its last
// write and read; a log's cell takes the block's write and its segment's
// current span into its own list.
func (r *IntervalRecorder) spread(b int) {
	blk := &r.blocks[b]
	if !blk.whole {
		return
	}
	r.growCells()
	lo := b * blockCells
	for s, e := range segEnd {
		hi := b*blockCells + e
		if r.sumOnly {
			for c := lo; c < hi; c++ {
				r.lastWrite[c], r.lastRead[c] = blk.last[s], blk.last[s]
			}
		} else {
			sl := &r.segLog[b]
			cur := sl.cur[s]
			for c := lo; c < hi; c++ {
				if cur.end != 0 {
					r.push(&r.cellLog[c], cur)
				}
				r.lastWrite[c] = sl.write
			}
			sl.cur[s] = ivalSpan{}
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
		return r.blocks[b].last[segOf(cell%blockCells)]
	}
	return max(r.lastWrite[cell], r.lastReadOf(cell))
}

// Vulnerability returns the consumed fraction of the structure over a
// run of totalCycles: consumed cell-cycles / (cells × cycles), the
// AVF-style hardware coverage value in [0, 1].
func (r *IntervalRecorder) Vulnerability(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 0
	}
	return float64(r.consumed) / (float64(r.cells) * float64(totalCycles))
}

// writeOf returns the cycle of a log's cell c's last write.
func (r *IntervalRecorder) writeOf(c int) uint64 {
	if b := c / blockCells; b < len(r.blocks) && r.blocks[b].whole {
		return r.segLog[b].write
	}
	return r.lastWrite[c]
}

// cellSpans appends cell c's log to buf in cycle order: its own spans
// merged with its segment's, the segment's current span last. A cell's
// spans are disjoint, so no two start together.
func (r *IntervalRecorder) cellSpans(buf []ivalSpan, c int) []ivalSpan {
	var i, j int32
	var cur ivalSpan
	if c < len(r.cellLog) {
		i = r.cellLog[c].head
	}
	if b := c / blockCells; b < len(r.segLog) {
		s := segOf(c % blockCells)
		j, cur = r.segLog[b].done[s].head, r.segLog[b].cur[s]
	}
	for i != 0 || j != 0 {
		if j == 0 || i != 0 && r.node(i).start < r.node(j).start {
			buf = append(buf, r.node(i).ivalSpan)
			i = r.node(i).next
		} else {
			buf = append(buf, r.node(j).ivalSpan)
			j = r.node(j).next
		}
	}
	if cur.end != 0 {
		buf = append(buf, cur)
	}
	return buf
}

// SpanCycles returns the summed length of the logged intervals, the
// consumed total recomputed from the log.
func (r *IntervalRecorder) SpanCycles() uint64 {
	var n uint64
	var buf []ivalSpan
	for c := range r.cells {
		buf = r.cellSpans(buf[:0], c)
		for _, sp := range buf {
			n += sp.end - sp.start
		}
	}
	return n
}

// Consumed reports whether a corruption of cell applied at the start of
// cycle can reach architectural state, i.e. whether cycle falls in a
// consumed interval of the cell's own spans or its segment's. A false
// return is a proof of masking.
func (r *IntervalRecorder) Consumed(cell int, cycle uint64) bool {
	if cell < len(r.cellLog) && r.listConsumed(r.cellLog[cell].head, cycle) {
		return true
	}
	b := cell / blockCells
	if b >= len(r.segLog) {
		return false
	}
	s := segOf(cell % blockCells)
	if cur := r.segLog[b].cur[s]; cur.start < cycle && cycle <= cur.end {
		return true
	}
	return r.listConsumed(r.segLog[b].done[s].head, cycle)
}

// listConsumed reports whether cycle falls in a span of the list from
// node i.
func (r *IntervalRecorder) listConsumed(i int32, cycle uint64) bool {
	for ; i != 0; i = r.node(i).next {
		if sp := r.node(i); sp.end >= cycle {
			return sp.start < cycle
		}
	}
	return false
}

// Equal reports whether two recorders captured identical interval logs —
// the bit-identity oracle the naive-vs-skipping differential tests use.
// Each cell's last write and merged log are compared, however the two
// recorders split them between cells and segments. Nil recorders compare
// equal to nil and to empty.
func (r *IntervalRecorder) Equal(o *IntervalRecorder) bool {
	if r == nil || o == nil {
		return (r == nil || r.NumCells() == 0) && (o == nil || o.NumCells() == 0)
	}
	if r.cells != o.cells {
		return false
	}
	var a, b []ivalSpan
	for c := range r.cells {
		if r.writeOf(c) != o.writeOf(c) {
			return false
		}
		if a, b = r.cellSpans(a[:0], c), o.cellSpans(b[:0], c); !slices.Equal(a, b) {
			return false
		}
	}
	return true
}

// Reset returns the recorder to its initial state for cells storage
// cells, reusing the backing arrays when they are large enough: a reused
// recorder, its span arena included, stops allocating once it has seen a
// workload of similar shape. Blocks reset whole and drop the per-cell
// state; cells past the last one get theirs cleared.
func (r *IntervalRecorder) Reset(cells int) {
	r.cells, r.consumed = cells, 0
	nb := cells / blockCells
	if cap(r.blocks) < nb {
		r.blocks = make([]segBlock, nb)
	}
	r.blocks = r.blocks[:nb]
	for i := range r.blocks {
		r.blocks[i] = segBlock{whole: true}
	}
	r.lastWrite, r.lastRead, r.cellLog = r.lastWrite[:0], r.lastRead[:0], r.cellLog[:0]
	if nb*blockCells < cells {
		r.growCells()
	}
	if !r.sumOnly {
		r.segLog = resized(r.segLog, nb)
		if r.arena == nil {
			r.arena = append(r.arena, new([chunkLen]spanNode))
		}
		r.nodes = 1 // node 0, the sentinel, is never written
	}
}

// growCells gives the recorder its per-cell state, once: the cells past
// the last whole block cleared, a block's cells left for its spread to
// write, and every cell's own span list empty.
func (r *IntervalRecorder) growCells() {
	if len(r.lastWrite) == r.cells {
		return
	}
	if cap(r.lastWrite) < r.cells {
		r.lastWrite = make([]uint64, r.cells)
	}
	r.lastWrite = r.lastWrite[:r.cells]
	tail := len(r.blocks) * blockCells
	clear(r.lastWrite[tail:])
	if !r.sumOnly {
		r.cellLog = resized(r.cellLog, r.cells)
		return
	}
	if cap(r.lastRead) < r.cells {
		r.lastRead = make([]uint64, r.cells)
	}
	r.lastRead = r.lastRead[:r.cells]
	clear(r.lastRead[tail:])
}

// resized returns s cleared at length n, in its own backing array when
// that is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// recorderPool recycles log-keeping IntervalRecorders across simulator
// runs. A recorder for the L1D data array alone carries tens of thousands
// of cells; reallocating their per-cell state and the span arena per
// pooled-core run dominated campaign allocation profiles.
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
