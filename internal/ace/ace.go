// Package ace implements ACE (Architecturally Correct Execution) lifetime
// analysis for bit-array structures, the hardware-coverage metric the
// paper uses for the physical register file and the L1 data cache
// (§II-D, Fig. 3). A bit is ACE during intervals that must be correct for
// the program's architectural output: write→read and read→read intervals;
// read→write, write→overwrite and clean-eviction tails are un-ACE; a
// dirty cache byte is ACE up to its writeback. When that writeback is the
// end-of-run flush and nothing read the byte since its last write, fill
// or read, the fault injector grades a flip in that tail from the golden
// output instead of simulating it (uarch.FlushLog).
//
// The trackers are driven by the out-of-order core model with events from
// *committed* instructions only. Because commit order is program order
// but event cycles come from out-of-order execution, an event may carry a
// cycle smaller than the bit's last recorded event; intervals are clamped
// at zero in that case (a bounded, documented approximation).
package ace

// RegFileTracker performs per-bit ACE lifetime accounting for a physical
// register file of 64-bit entries.
type RegFileTracker struct {
	numRegs   int
	lastEvent []uint64 // (reg*64 + bit) -> cycle of last write or read
	live      []bool   // reg -> currently allocated and written
	aceCycles uint64   // accumulated ACE bit-cycles

	// IgnoreWidths makes every read credit all 64 bits regardless of the
	// consumer's operand width (the width-mask ablation of DESIGN.md §4).
	IgnoreWidths bool
}

// NewRegFileTracker creates a tracker for numRegs 64-bit registers.
func NewRegFileTracker(numRegs int) *RegFileTracker {
	return &RegFileTracker{
		numRegs:   numRegs,
		lastEvent: make([]uint64, numRegs*64),
		live:      make([]bool, numRegs),
	}
}

// NumRegs returns the tracked register count (for tracker reuse).
func (t *RegFileTracker) NumRegs() int { return t.numRegs }

// Reset returns the tracker to its freshly-constructed state so a pooled
// simulator can reuse its arrays across runs.
func (t *RegFileTracker) Reset() {
	clear(t.lastEvent)
	clear(t.live)
	t.aceCycles = 0
	t.IgnoreWidths = false
}

// CloneInto deep-copies the tracker into dst, reusing dst's arrays when
// the sizes match (simulator checkpoint/restore). Returns dst (or a
// fresh tracker when dst is nil or mismatched).
func (t *RegFileTracker) CloneInto(dst *RegFileTracker) *RegFileTracker {
	if dst == nil || dst.numRegs != t.numRegs {
		dst = NewRegFileTracker(t.numRegs)
	}
	copy(dst.lastEvent, t.lastEvent)
	copy(dst.live, t.live)
	dst.aceCycles = t.aceCycles
	dst.IgnoreWidths = t.IgnoreWidths
	return dst
}

// OnWrite records that physical register p was written at cycle. The
// interval since the previous event is un-ACE (the old value was not
// needed past its last read).
func (t *RegFileTracker) OnWrite(p int, cycle uint64) {
	if p < 0 || p >= t.numRegs {
		return
	}
	base := p * 64
	for b := 0; b < 64; b++ {
		t.lastEvent[base+b] = cycle
	}
	t.live[p] = true
}

// OnRead records a read of the low widthBits of p at cycle, crediting
// the interval since the last event of each read bit as ACE.
func (t *RegFileTracker) OnRead(p int, widthBits int, cycle uint64) {
	if p < 0 || p >= t.numRegs || !t.live[p] {
		return
	}
	if widthBits > 64 || t.IgnoreWidths {
		widthBits = 64
	}
	base := p * 64
	for b := 0; b < widthBits; b++ {
		if cycle > t.lastEvent[base+b] {
			t.aceCycles += cycle - t.lastEvent[base+b]
			t.lastEvent[base+b] = cycle
		}
	}
}

// OnFree records that p returned to the free list. The tail interval is
// un-ACE.
func (t *RegFileTracker) OnFree(p int, cycle uint64) {
	if p < 0 || p >= t.numRegs {
		return
	}
	t.live[p] = false
}

// ACEBitCycles returns the accumulated ACE bit-cycles.
func (t *RegFileTracker) ACEBitCycles() uint64 { return t.aceCycles }

// Vulnerability returns the ACE fraction over the whole structure for a
// run of totalCycles: ACE bit-cycles / (bits × cycles). This is the
// AVF-style hardware coverage value in [0, 1].
func (t *RegFileTracker) Vulnerability(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 0
	}
	return float64(t.aceCycles) / (float64(t.numRegs) * 64 * float64(totalCycles))
}

// byte states for the cache tracker.
const (
	byteInvalid = iota
	byteClean   // filled or read, unmodified since fill
	byteDirty   // written since fill
)

// CacheTracker performs per-byte (×8 bits) ACE lifetime accounting for a
// cache data array.
type CacheTracker struct {
	numBytes  int
	lastEvent []uint64
	state     []uint8
	aceCycles uint64 // ACE byte-cycles (multiply by 8 for bit-cycles)
}

// NewCacheTracker creates a tracker for a data array of numBytes bytes.
func NewCacheTracker(numBytes int) *CacheTracker {
	return &CacheTracker{
		numBytes:  numBytes,
		lastEvent: make([]uint64, numBytes),
		state:     make([]uint8, numBytes),
	}
}

// NumBytes returns the tracked data-array size (for tracker reuse).
func (t *CacheTracker) NumBytes() int { return t.numBytes }

// Reset returns the tracker to its freshly-constructed state so a pooled
// simulator can reuse its arrays across runs.
func (t *CacheTracker) Reset() {
	clear(t.lastEvent)
	clear(t.state)
	t.aceCycles = 0
}

// CloneInto deep-copies the tracker into dst, reusing dst's arrays when
// the sizes match (simulator checkpoint/restore). Returns dst (or a
// fresh tracker when dst is nil or mismatched).
func (t *CacheTracker) CloneInto(dst *CacheTracker) *CacheTracker {
	if dst == nil || dst.numBytes != t.numBytes {
		dst = NewCacheTracker(t.numBytes)
	}
	copy(dst.lastEvent, t.lastEvent)
	copy(dst.state, t.state)
	dst.aceCycles = t.aceCycles
	return dst
}

func (t *CacheTracker) credit(idx int, cycle uint64) {
	if cycle > t.lastEvent[idx] {
		t.aceCycles += cycle - t.lastEvent[idx]
		t.lastEvent[idx] = cycle
	}
}

// OnFill records a line fill covering [first, first+n) at cycle. Filled
// bytes behave like written bytes: they are ACE until read or clean-
// evicted-unread.
func (t *CacheTracker) OnFill(first, n int, cycle uint64) {
	for i := first; i < first+n && i < t.numBytes; i++ {
		t.lastEvent[i] = cycle
		t.state[i] = byteClean
	}
}

// OnRead records an architectural read of bytes [first, first+n).
func (t *CacheTracker) OnRead(first, n int, cycle uint64) {
	for i := first; i < first+n && i < t.numBytes; i++ {
		if t.state[i] == byteInvalid {
			continue
		}
		t.credit(i, cycle)
	}
}

// OnWrite records a store to bytes [first, first+n): the previous
// interval is un-ACE, the bytes become dirty.
func (t *CacheTracker) OnWrite(first, n int, cycle uint64) {
	for i := first; i < first+n && i < t.numBytes; i++ {
		if cycle > t.lastEvent[i] {
			t.lastEvent[i] = cycle
		}
		t.state[i] = byteDirty
	}
}

// OnEvict records an eviction of [first, first+n) at cycle. If the line
// is written back (dirty), every byte's value reaches memory, so the
// whole tail interval is ACE; a clean eviction's tail is un-ACE.
func (t *CacheTracker) OnEvict(first, n int, cycle uint64, writeback bool) {
	for i := first; i < first+n && i < t.numBytes; i++ {
		if t.state[i] == byteInvalid {
			continue
		}
		if writeback {
			t.credit(i, cycle)
		}
		t.state[i] = byteInvalid
	}
}

// Finish treats still-resident dirty lines as written back at endCycle
// (the simulator flushes the cache to compute the memory signature).
// Call exactly once, through the owning simulator.
func (t *CacheTracker) Finish(dirty func(idx int) bool, endCycle uint64) {
	for i := 0; i < t.numBytes; i++ {
		if t.state[i] != byteInvalid && dirty(i) {
			t.credit(i, endCycle)
		}
		t.state[i] = byteInvalid
	}
}

// ACEBitCycles returns accumulated ACE bit-cycles (byte-cycles × 8).
func (t *CacheTracker) ACEBitCycles() uint64 { return t.aceCycles * 8 }

// Vulnerability returns the ACE fraction of the data array over
// totalCycles.
func (t *CacheTracker) Vulnerability(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 0
	}
	return float64(t.aceCycles) / (float64(t.numBytes) * float64(totalCycles))
}
