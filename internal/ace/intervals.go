package ace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// IntervalRecorder records, per storage cell, the cycle intervals during
// which the cell's stored value can still reach architectural state — the
// exported counterpart of the lifetime analysis the trackers perform for
// coverage accounting. The fault injector uses it to pre-classify
// transient flips: a flip at a cycle outside every consumed interval of
// its cell is provably masked and never needs to be simulated.
//
// Unlike RegFileTracker/CacheTracker, which are driven from *committed*
// instructions (the AVF accounting of the paper), the recorder is driven
// directly at access time, including wrong-path and squashed work. That
// makes it strictly conservative for pre-classification: any read that
// could observe the cell — even one whose result is later thrown away but
// may have perturbed timing (e.g. a wrong-path load changing cache
// contents) — keeps the interval consumed.
//
// Events must arrive in non-decreasing cycle order (the simulator is
// cycle-driven), which keeps each cell's interval list sorted and
// mergeable in O(1) per event.
type IntervalRecorder struct {
	lastWrite []uint64
	spans     [][]ivalSpan
}

// ivalSpan is one consumed interval (start, end]: a corruption applied at
// cycle t with start < t <= end is (or may be) consumed.
type ivalSpan struct {
	start, end uint64
}

// NewIntervalRecorder creates a recorder for cells storage cells. All
// cells start with an implicit write at cycle 0 (reset state).
func NewIntervalRecorder(cells int) *IntervalRecorder {
	return &IntervalRecorder{
		lastWrite: make([]uint64, cells),
		spans:     make([][]ivalSpan, cells),
	}
}

// NumCells returns the number of tracked cells.
func (r *IntervalRecorder) NumCells() int { return len(r.lastWrite) }

// Write records that the cell's value was overwritten at cycle: a
// corruption of the old value strictly after the previous consumption is
// dead.
func (r *IntervalRecorder) Write(cell int, cycle uint64) {
	r.lastWrite[cell] = cycle
}

// Read records that the cell's value was consumed at cycle: the interval
// (lastWrite, cycle] becomes consumed. Fault hooks fire at the start of a
// cycle, before that cycle's reads and writes, so a corruption at exactly
// the read cycle is observed while one at exactly the write cycle is
// overwritten — hence the half-open-at-start convention.
func (r *IntervalRecorder) Read(cell int, cycle uint64) {
	w := r.lastWrite[cell]
	if cycle <= w {
		return // empty interval (same-cycle write+read: write lands first)
	}
	s := r.spans[cell]
	if n := len(s); n > 0 && w <= s[n-1].end {
		if cycle > s[n-1].end {
			s[n-1].end = cycle
		}
		return
	}
	r.spans[cell] = append(s, ivalSpan{start: w, end: cycle})
}

// WriteRange records a write of n consecutive cells starting at cell —
// equivalent to n Write calls but without the per-call bounds checks and
// function-call overhead on the simulator's hot register/cache paths.
func (r *IntervalRecorder) WriteRange(cell, n int, cycle uint64) {
	lw := r.lastWrite[cell : cell+n]
	for i := range lw {
		lw[i] = cycle
	}
}

// ReadRange records a consumption of n consecutive cells starting at
// cell, the bulk counterpart of Read.
func (r *IntervalRecorder) ReadRange(cell, n int, cycle uint64) {
	for i := cell; i < cell+n; i++ {
		w := r.lastWrite[i]
		if cycle <= w {
			continue
		}
		s := r.spans[i]
		if ln := len(s); ln > 0 && w <= s[ln-1].end {
			if cycle > s[ln-1].end {
				s[ln-1].end = cycle
			}
			continue
		}
		r.spans[i] = append(s, ivalSpan{start: w, end: cycle})
	}
}

// LastEvent returns the cycle of the cell's last logged write or read
// (0 for a cell never touched since reset): a corruption applied after it
// meets no logged event until the next one.
func (r *IntervalRecorder) LastEvent(cell int) uint64 {
	w := r.lastWrite[cell]
	if s := r.spans[cell]; len(s) > 0 {
		return max(w, s[len(s)-1].end)
	}
	return w
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
// once it has seen a workload of similar shape.
func (r *IntervalRecorder) Reset(cells int) {
	if cap(r.lastWrite) < cells {
		r.lastWrite = make([]uint64, cells)
		r.spans = make([][]ivalSpan, cells)
		return
	}
	r.lastWrite = r.lastWrite[:cells]
	r.spans = r.spans[:cells]
	for i := range r.lastWrite {
		r.lastWrite[i] = 0
		r.spans[i] = r.spans[i][:0]
	}
}

// recorderPool recycles IntervalRecorders across simulator runs. A
// recorder for the L1D data array alone carries a quarter-million cells;
// reallocating those per pooled-core run dominated campaign allocation
// profiles.
var recorderPool sync.Pool

// liveRecorders counts Get minus Release — the pool-hygiene leak
// detector used by tests.
var liveRecorders atomic.Int64

// GetIntervalRecorder returns a reset recorder for cells storage cells,
// reusing pooled backing storage when available.
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
