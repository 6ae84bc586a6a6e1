package uarch

import (
	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
)

// cacheLine is one L1D line's metadata. Its bytes live in the cache's
// flat data array (dcache.lineData), so bit-level fault injection can
// address the whole SRAM and a copy of the lines is one pointer-free
// memmove.
type cacheLine struct {
	valid   bool
	dirty   bool
	tag     uint64
	lastUse uint64
}

// dcache models the L1 data cache: physically-addressed, write-back,
// write-allocate, LRU.
type dcache struct {
	cfg     CacheConfig
	numSets int
	lines   []cacheLine // set-major: lines[set*ways+way]
	data    []byte      // flat SRAM: (set*ways+way)*lineBytes + offset
	// from names, per line, the checkpoint chunk the line's metadata and
	// bytes last equaled — at the core's last capture or restore (nil
	// after init) — and touched marks, one bit per line, the lines written
	// since. A capture shares an untouched line's chunk instead of copying
	// it, and a restore skips an untouched line that already holds the
	// chunk it would copy (checkpoint.go).
	from    []*l1dLine
	touched []uint64
	backing *arch.Memory
	// rec is the data array's ACE recorder, one cell per byte (fills and
	// stores are writes; loads, dirty evictions and the final flush are
	// consumptions). Nil unless the run tracks or records the L1D.
	rec *ace.IntervalRecorder

	// Second level (timing only) and latency table.
	l2       *l2tags
	l2HitLat int
	memLat   int
	prefetch bool

	hits, misses, writebacks uint64
}

// initDCache builds the L1D model, reusing the SRAM, line metadata and
// L2 tag arrays of a previous instance when the geometry matches (the
// pooled-core fast path).
func initDCache(d *dcache, full Config, backing *arch.Memory, rec *ace.IntervalRecorder) *dcache {
	cfg := full.L1D
	numSets := cfg.NumSets()
	n := numSets * cfg.Ways
	reuse := d != nil && d.cfg == cfg && len(d.lines) == n
	if !reuse {
		d = &dcache{
			cfg:     cfg,
			numSets: numSets,
			lines:   make([]cacheLine, n),
			data:    make([]byte, n*cfg.LineBytes),
		}
	}
	d.from = grow(d.from, n)
	clear(d.from)
	d.touched = grow(d.touched, (n+63)/64)
	clear(d.touched)
	d.backing = backing
	d.rec = rec
	d.l2 = initL2Tags(d.l2, full.L2)
	d.l2HitLat = full.L2.HitLatency
	d.memLat = full.MemLatency
	d.prefetch = full.EnablePrefetch
	d.hits, d.misses, d.writebacks = 0, 0, 0
	if d.memLat == 0 {
		d.memLat = cfg.MissLatency
	}
	// Clearing the SRAM is not required for correctness (invalid lines
	// are never read and always filled before use) but keeps every run
	// bit-for-bit independent of pool history, fault injection included.
	clear(d.data)
	clear(d.lines)
	return d
}

// lineData returns line i's bytes in the flat SRAM.
func (d *dcache) lineData(i int) []byte {
	lb := d.cfg.LineBytes
	return d.data[i*lb : (i+1)*lb]
}

// touch marks line i as written. Every write to a line or its SRAM calls
// it; one that did not would let a checkpoint share, or a restore keep, a
// stale copy of the line.
func (d *dcache) touch(i int) { d.touched[i>>6] |= 1 << uint(i&63) }

// missLatency resolves an L1 miss through the L2 tag array and the
// next-line prefetcher, returning the latency of the fill.
func (d *dcache) missLatency(addr, cycle uint64) int {
	if d.l2 == nil {
		return d.cfg.MissLatency
	}
	lat := d.memLat
	if d.l2.access(addr, cycle) {
		lat = d.l2HitLat
	}
	if d.prefetch {
		d.l2.prefetch(addr+uint64(d.cfg.LineBytes), cycle)
	}
	return lat
}

func (d *dcache) setOf(addr uint64) int {
	return int(addr/uint64(d.cfg.LineBytes)) % d.numSets
}

func (d *dcache) tagOf(addr uint64) uint64 {
	return addr / uint64(d.cfg.LineBytes) / uint64(d.numSets)
}

// byteIndex returns the flat SRAM index of a line byte (for ACE tracking
// and fault injection).
func (d *dcache) byteIndex(lineIdx, off int) int { return lineIdx*d.cfg.LineBytes + off }

// lookup finds the line holding addr; returns the line index or -1.
func (d *dcache) lookup(addr uint64) int {
	set := d.setOf(addr)
	tag := d.tagOf(addr)
	base := set * d.cfg.Ways
	for w := 0; w < d.cfg.Ways; w++ {
		l := &d.lines[base+w]
		if l.valid && l.tag == tag {
			return base + w
		}
	}
	return -1
}

// fill brings the line containing addr into the cache, evicting the LRU
// way (writing back if dirty). Returns the line index.
func (d *dcache) fill(addr uint64, cycle uint64) (int, *arch.CrashError) {
	lb := uint64(d.cfg.LineBytes)
	lineAddr := addr &^ (lb - 1)
	set := d.setOf(addr)
	base := set * d.cfg.Ways
	victim := base
	for w := 0; w < d.cfg.Ways; w++ {
		l := &d.lines[base+w]
		if !l.valid {
			victim = base + w
			break
		}
		if l.lastUse < d.lines[victim].lastUse {
			victim = base + w
		}
	}
	v := &d.lines[victim]
	if v.valid {
		if err := d.evict(victim, cycle); err != nil {
			return -1, err
		}
	}
	d.touch(victim)
	if err := d.backing.ReadBytes(lineAddr, d.lineData(victim)); err != nil {
		return -1, err
	}
	v.valid = true
	v.dirty = false
	v.tag = d.tagOf(addr)
	v.lastUse = cycle
	if d.rec != nil {
		d.rec.WriteRange(d.byteIndex(victim, 0), d.cfg.LineBytes, cycle)
	}
	return victim, nil
}

// evict writes back a dirty line and invalidates it.
func (d *dcache) evict(lineIdx int, cycle uint64) *arch.CrashError {
	l := &d.lines[lineIdx]
	if !l.valid {
		return nil
	}
	if d.rec != nil && l.dirty {
		// A writeback consumes every byte of the line, including bytes
		// never stored to since the fill: their values reach memory.
		d.rec.ReadRange(d.byteIndex(lineIdx, 0), d.cfg.LineBytes, cycle)
	}
	if l.dirty {
		d.writebacks++
		addr := d.lineAddr(lineIdx)
		if err := d.backing.WriteBytes(addr, d.lineData(lineIdx)); err != nil {
			return err
		}
	}
	d.touch(lineIdx)
	l.valid = false
	l.dirty = false
	return nil
}

func (d *dcache) lineAddr(lineIdx int) uint64 {
	set := lineIdx / d.cfg.Ways
	l := &d.lines[lineIdx]
	return (l.tag*uint64(d.numSets) + uint64(set)) * uint64(d.cfg.LineBytes)
}

// access performs a read or write of size bytes at addr, splitting
// across line boundaries. For reads, buf receives the bytes; for writes,
// buf supplies them. It returns the worst latency among the lines
// touched (HitLatency when everything hit).
func (d *dcache) access(addr uint64, size int, write bool, buf []byte, cycle uint64) (int, *arch.CrashError) {
	lat := d.cfg.HitLatency
	off := 0
	for size > 0 {
		lb := d.cfg.LineBytes
		lineOff := int(addr) & (lb - 1)
		n := lb - lineOff
		if n > size {
			n = size
		}
		// Bounds/permission check against the backing map first, so a
		// wild address faults rather than filling garbage.
		if write {
			if err := d.backing.CheckWrite(addr, uint64(n)); err != nil {
				return lat, err
			}
		}
		li := d.lookup(addr)
		if li < 0 {
			d.misses++
			if l := d.missLatency(addr, cycle); l > lat {
				lat = l
			}
			var err *arch.CrashError
			li, err = d.fill(addr, cycle)
			if err != nil {
				return lat, err
			}
		} else {
			d.hits++
		}
		l := &d.lines[li]
		l.lastUse = cycle
		d.touch(li)
		data := d.lineData(li)
		if write {
			copy(data[lineOff:lineOff+n], buf[off:off+n])
			l.dirty = true
			if d.rec != nil {
				d.rec.WriteRange(d.byteIndex(li, lineOff), n, cycle)
			}
		} else {
			copy(buf[off:off+n], data[lineOff:lineOff+n])
			if d.rec != nil {
				d.rec.ReadRange(d.byteIndex(li, lineOff), n, cycle)
			}
		}
		addr += uint64(n)
		off += n
		size -= n
	}
	return lat, nil
}

// flush writes back all dirty lines (end of simulation, before the
// memory signature is computed), logging each in fl when non-nil.
func (d *dcache) flush(cycle uint64, fl *FlushLog) *arch.CrashError {
	for i := range d.lines {
		l := &d.lines[i]
		if l.valid && l.dirty {
			d.writebacks++
			if fl != nil {
				fl.record(i, d.lineAddr(i), d.rec, d.byteIndex(i, 0))
			}
			if d.rec != nil {
				d.rec.ReadRange(d.byteIndex(i, 0), d.cfg.LineBytes, cycle)
			}
			if err := d.backing.WriteBytes(d.lineAddr(i), d.lineData(i)); err != nil {
				return err
			}
			d.touch(i)
			l.dirty = false
		}
	}
	return nil
}

// FlipBit flips one bit of the cache data SRAM (transient fault). A flip
// in an invalid line is naturally masked.
func (d *dcache) FlipBit(bit int) {
	d.touch(bit / 8 / d.cfg.LineBytes)
	d.data[bit/8] ^= 1 << uint(bit%8)
}

// ForceBit forces one bit of the cache data SRAM (intermittent stuck-at).
func (d *dcache) ForceBit(bit int, val bool) {
	d.touch(bit / 8 / d.cfg.LineBytes)
	mask := byte(1) << uint(bit%8)
	if val {
		d.data[bit/8] |= mask
	} else {
		d.data[bit/8] &^= mask
	}
}
