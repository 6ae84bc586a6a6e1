// Package arch implements the architectural state and full functional
// semantics of the HX86 ISA: general-purpose and vector register files,
// status flags, a region-based memory model with access checking, and an
// executor used both for golden (fault-free) reference runs and as the
// execute-stage semantics of the out-of-order core model.
//
// Faulty behaviour enters through two channels: direct state corruption
// (the injector flips bits in registers, memory or cache lines between
// steps) and functional-unit hooks (FUHooks) that reroute arithmetic
// through gate-level netlists, possibly carrying a stuck-at fault.
package arch

import (
	"encoding/binary"
	"fmt"
	"iter"
	"slices"
)

// PageSize is the unit of guest-memory storage and sharing. Pages are cut
// at region-relative offsets, so an aligned 8-byte digest word never
// straddles one, nor does a 64-byte cache line of a line-aligned region
// (every program's: prog.Validate).
const PageSize = 4096

type page [PageSize]byte

// Region describes a contiguous chunk of the guest address space.
type Region struct {
	Name     string
	Base     uint64
	Size     uint64
	Writable bool
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Base + r.Size }

// MemBus is the memory seen by the executor. The functional emulator
// binds it to a plain *Memory; the out-of-order core model binds it to a
// bus that routes loads through the L1D cache and store-to-load
// forwarding, and captures stores into the store queue.
type MemBus interface {
	Read(addr, size uint64) (uint64, *CrashError)
	Write(addr, size, val uint64) *CrashError
	Read128(addr uint64) ([2]uint64, *CrashError)
	Write128(addr uint64, v [2]uint64) *CrashError
}

// pageTable is one region's storage: the pages that were ever written,
// sorted by page number. A page not in the table reads as zero, so a
// zero-filled gigabyte costs nothing and every whole-memory operation
// (clone, digest, encode) costs what was touched, not what was mapped.
type pageTable []pageRef

type pageRef struct {
	n     uint64 // page number within the region
	p     *page
	owned bool // p is referenced by this memory alone: written in place, else copied first
}

// slot returns where page n is in t, or where it would be inserted.
// (Hand-rolled: slices.BinarySearchFunc here was a quarter of the
// emulator's time on memory-heavy programs.)
func (t pageTable) slot(n uint64) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t[mid].n < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t) && t[lo].n == n
}

// Memory is a sparse, region-based, paged guest memory. Accesses outside
// every region fault, which is the main source of crashes for random
// byte programs (the SiliFuzz baseline) and for fault-corrupted pointers.
//
// Clone and CloneInto share pages instead of copying bytes. The
// ownership rule that keeps this safe: sharing clears the *source's*
// owned marks too, so afterwards both sides copy a page before writing
// it, and a source that owns nothing — a checkpoint, a cached golden
// bundle — is only read, which is what lets any number of goroutines
// restore from one checkpoint at once.
//
// Memory keeps an incremental content digest (see Digest): every
// Write/WriteBytes updates it, so consumers that repeatedly digest the
// image — the output signature and delta resimulation's state hash — pay
// O(bytes written).
type Memory struct {
	regions []Region
	tabs    []pageTable // tabs[i] stores regions[i]
	// digest is the XOR over all writable-region words of
	// wordDigest(addr, word) — an order-independent multiset hash, which
	// is what makes it incrementally updatable: a write XORs out the old
	// words and XORs in the new ones. An empty memory's is 0.
	digest uint64
}

var _ MemBus = (*Memory)(nil)

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// AddRegion registers a zero-filled region; initial content goes in
// through WriteBytes. Regions must not overlap or wrap the address space.
func (m *Memory) AddRegion(r Region) error {
	if r.End() < r.Base {
		return fmt.Errorf("arch: region %q [%#x,+%#x) wraps the address space", r.Name, r.Base, r.Size)
	}
	for _, o := range m.regions {
		if r.Base < o.End() && o.Base < r.End() {
			return fmt.Errorf("arch: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				r.Name, r.Base, r.End(), o.Name, o.Base, o.End())
		}
	}
	m.regions, m.tabs = append(m.regions, r), append(m.tabs, nil)
	return nil
}

// Regions returns the regions in the order they were added. The slice
// must not be modified.
func (m *Memory) Regions() []Region { return m.regions }

// RegionBytes returns a copy of the named region's content, or nil.
func (m *Memory) RegionBytes(name string) []byte {
	for _, r := range m.regions {
		if r.Name == name {
			b := make([]byte, r.Size)
			_ = m.ReadBytes(r.Base, b) // the whole region: in range
			return b
		}
	}
	return nil
}

// Pages yields every present page — region by region as added, a
// region's pages in address order — as its guest address and bytes (the
// last page clipped to the region's end). The bytes are live, possibly
// shared storage: read only.
func (m *Memory) Pages() iter.Seq2[uint64, []byte] {
	return func(yield func(uint64, []byte) bool) {
		for i := range m.regions {
			r := &m.regions[i]
			for _, e := range m.tabs[i] {
				off := e.n * PageSize
				if !yield(r.Base+off, e.p[:min(PageSize, r.Size-off)]) {
					return
				}
			}
		}
	}
}

// locate finds the region holding [addr, addr+size) — for a store, a
// writable one — and the span's offset in it.
func (m *Memory) locate(addr, size uint64, store bool) (int, uint64, *CrashError) {
	for i := range m.regions { // linear scan: programs have 2-3 regions
		if r := &m.regions[i]; addr >= r.Base && size <= r.Size && addr-r.Base <= r.Size-size && (r.Writable || !store) {
			return i, addr - r.Base, nil
		}
	}
	return 0, 0, &CrashError{Kind: CrashBadAddress, Addr: addr}
}

// Read reads size bytes (1..8) as a little-endian integer.
func (m *Memory) Read(addr, size uint64) (uint64, *CrashError) {
	var b [8]byte
	err := m.ReadBytes(addr, b[:size])
	return binary.LittleEndian.Uint64(b[:]), err
}

// Write writes size bytes (1..8) little-endian.
func (m *Memory) Write(addr, size, val uint64) *CrashError {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return m.write(addr, b[:size], true)
}

// Read128 reads a 16-byte value as two little-endian 64-bit lanes.
func (m *Memory) Read128(addr uint64) ([2]uint64, *CrashError) {
	lo, err := m.Read(addr, 8)
	if err != nil {
		return [2]uint64{}, err
	}
	hi, err := m.Read(addr+8, 8)
	if err != nil {
		return [2]uint64{}, err
	}
	return [2]uint64{lo, hi}, nil
}

// Write128 writes a 16-byte value as two little-endian 64-bit lanes.
func (m *Memory) Write128(addr uint64, v [2]uint64) *CrashError {
	if err := m.Write(addr, 8, v[0]); err != nil {
		return err
	}
	return m.Write(addr+8, 8, v[1])
}

// CheckWrite verifies that [addr, addr+size) is writable without writing.
func (m *Memory) CheckWrite(addr, size uint64) *CrashError {
	_, _, err := m.locate(addr, size, true)
	return err
}

// ReadBytes copies [addr, addr+len(dst)) into dst (cache line fills).
func (m *Memory) ReadBytes(addr uint64, dst []byte) *CrashError {
	ri, off, err := m.locate(addr, uint64(len(dst)), false)
	if err != nil {
		return err
	}
	for t := m.tabs[ri]; len(dst) > 0; {
		po := off % PageSize
		n := min(uint64(len(dst)), PageSize-po)
		if i, ok := t.slot(off / PageSize); ok {
			copy(dst[:n], t[i].p[po:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+n
	}
	return nil
}

// WriteBytes copies src to [addr, addr+len(src)) (cache line
// writebacks, initial region content). Unlike Write it ignores the
// Writable flag: a dirty line can only exist for a region that accepted
// the original store.
func (m *Memory) WriteBytes(addr uint64, src []byte) *CrashError { return m.write(addr, src, false) }

// write copies src over [addr, addr+len(src)), first taking ownership (a
// private copy, or a fresh zero page) of every page it touches that this
// memory does not own, and keeps the digest current.
func (m *Memory) write(addr uint64, src []byte, store bool) *CrashError {
	ri, off, err := m.locate(addr, uint64(len(src)), store)
	if err != nil {
		return err
	}
	r := &m.regions[ri]
	for len(src) > 0 {
		po := off % PageSize
		n := min(uint64(len(src)), PageSize-po)
		i, ok := m.tabs[ri].slot(off / PageSize)
		if !ok {
			m.tabs[ri] = slices.Insert(m.tabs[ri], i, pageRef{off / PageSize, new(page), true})
		} else if e := &m.tabs[ri][i]; !e.owned {
			p := *e.p
			e.p, e.owned = &p, true
		}
		p := m.tabs[ri][i].p
		if r.Writable {
			m.digest ^= p.spanDigest(r.Base+off-po, po, n)
		}
		copy(p[po:], src[:n])
		if r.Writable {
			m.digest ^= p.spanDigest(r.Base+off-po, po, n)
		}
		src, off = src[n:], off+n
	}
	return nil
}

// wordDigest maps one aligned (address, 64-bit word) pair to a
// pseudo-random 64-bit value (a splitmix64-style finalizer). The memory
// digest is the XOR of these over all writable words, so each word's
// contribution must look independent of its neighbours'. A zero word
// contributes zero: that is why a page that was never written need not
// exist to be digested, why a fresh memory's digest is known to be 0, and
// why writing zeros back over a word restores the untouched digest.
func wordDigest(addr, w uint64) uint64 {
	if w == 0 {
		return 0
	}
	z := addr*0x9e3779b97f4a7c15 ^ w*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// spanDigest digests the aligned 8-byte words overlapping bytes
// [po, po+size) of the page at guest address base; a write XORs the span
// out of the memory digest before mutating and back in after. Page bytes
// past a region's unaligned end are never written, so the final word is
// zero-padded by construction.
func (p *page) spanDigest(base, po, size uint64) uint64 {
	var d uint64
	for i := po &^ 7; i < po+size; i += 8 {
		d ^= wordDigest(base+i, binary.LittleEndian.Uint64(p[i:]))
	}
	return d
}

// Digest returns a 64-bit digest of the content of all writable regions
// (read-only regions cannot change and are excluded), kept current by
// every write, so it costs nothing to read. It is a deterministic
// function of the memory content alone — two memories with identical
// region layouts and bytes digest equal no matter how they got there or
// which of their zero pages are present — and it survives
// Clone/CloneInto.
func (m *Memory) Digest() uint64 { return m.digest }

// Clone returns a memory with m's content (see CloneInto).
func (m *Memory) Clone() *Memory { return m.CloneInto(nil) }

// CloneInto makes dst (nil for a fresh memory) a copy of m by sharing
// m's pages — a page-table copy into dst's storage, no guest bytes move:
// this is every checkpoint, every restore into a pooled core and every
// State.Clone. m gives up its owned marks, so both sides copy on write
// from here on; an m that owns nothing is not written at all.
func (m *Memory) CloneInto(dst *Memory) *Memory {
	if dst == nil || dst == m {
		dst = &Memory{}
	}
	dst.regions = append(dst.regions[:0], m.regions...)
	dst.digest = m.digest // the copy's bytes are the source's bytes
	dst.tabs = slices.Grow(dst.tabs[:0], len(m.tabs))[:len(m.tabs)]
	for i, t := range m.tabs {
		for j := range t {
			if t[j].owned { // test first: a source that owns nothing must not be written
				t[j].owned = false
			}
		}
		dst.tabs[i] = append(dst.tabs[i][:0], t...)
	}
	return dst
}
