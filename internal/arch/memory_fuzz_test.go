package arch

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// flatMem is the reference model FuzzMemoryOps checks Memory against:
// the representation Memory used to have, one []byte per region.
type flatMem struct {
	regions []Region
	data    [][]byte
}

func (f *flatMem) clone() *flatMem {
	c := &flatMem{regions: f.regions}
	for _, d := range f.data {
		c.data = append(c.data, bytes.Clone(d))
	}
	return c
}

// span returns the bytes [addr, addr+size) when one region holds them.
func (f *flatMem) span(addr, size uint64, write bool) []byte {
	for i, r := range f.regions {
		if addr >= r.Base && addr-r.Base <= r.Size && size <= r.Size-(addr-r.Base) && (r.Writable || !write) {
			return f.data[i][addr-r.Base:][:size]
		}
	}
	return nil
}

// fuzzRegions: a writable region of two pages and an unaligned tail, a
// read-only page, and a writable sixteen pages — exactly what a 16-bit
// offset spans, so its tail can be crossed but not overshot.
var fuzzRegions = []Region{
	{Name: "odd", Base: 0x1000, Size: 2*PageSize + 1003, Writable: true},
	{Name: "ro", Base: 0x8000, Size: PageSize},
	{Name: "big", Base: 0x100000, Size: 16 * PageSize, Writable: true},
}

// pair is one memory under test with its model.
type pair struct {
	m *Memory
	f *flatMem
}

// check compares every byte with the model, and the incrementally kept
// digest with the one computed from those bytes by definition.
func (p pair) check(t *testing.T, step int) {
	t.Helper()
	for i, r := range p.f.regions {
		if got := p.m.RegionBytes(r.Name); !bytes.Equal(got, p.f.data[i]) {
			t.Fatalf("step %d: region %q differs from the flat model", step, r.Name)
		}
	}
	if got, want := p.m.Digest(), rescanDigest(t, p.m); got != want {
		t.Fatalf("step %d: incremental digest %#x != from-scratch %#x", step, got, want)
	}
}

// FuzzMemoryOps drives random Read/Write/Write128/ReadBytes/WriteBytes/
// CheckWrite/Clone/CloneInto sequences — page-straddling and region-tail
// accesses included — against the flat model: same bytes, same crash
// verdicts, the incremental digest equal to a rescan after every step,
// and clones that diverge independently of their source.
func FuzzMemoryOps(f *testing.F) {
	// op, memory, region, 16-bit offset, length, then the op's payload.
	f.Add([]byte{
		0, 0, 0, 0xfd, 0x0f, 7, 1, 2, 3, 4, 5, 6, 7, 8, // 8-byte Write across odd's first page boundary
		5, 0, 0, 0, 0, 0, // Clone
		0, 0, 0, 0xfd, 0x0f, 7, 0, 0, 0, 0, 0, 0, 0, 0, // zeros back over it, in the source only
		1, 1, 0, 0xfc, 0x0f, 7, // the clone reads across the boundary
		0, 1, 0, 0x00, 0x10, 0, 9, 9, 9, 9, 9, 9, 9, 9, // and writes a page it shares
	})
	f.Add([]byte{
		4, 0, 0, 0xe3, 0x23, 8, 9, 9, 9, 9, 9, 9, 9, 9, // WriteBytes up to odd's unaligned end
		0, 0, 0, 0xe9, 0x23, 2, 1, 2, 3, 4, 5, 6, 7, 8, // 3-byte Write one byte past it
		4, 0, 1, 0, 0, 2, 7, 7, // WriteBytes into the read-only region
		2, 0, 2, 0xf8, 0xff, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, // Write128 whose high lane leaves big
		5, 0, 0, 0, 0, 0, 5, 1, 0, 0, 0, 0, 6, 1, 0, 2, 0, 0, 7, 2, 1, 0, 0, 7, // Clone, Clone, CloneInto, CheckWrite of the read-only page
		3, 2, 0, 0xc0, 0x23, 43, // ReadBytes to the unaligned end
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewMemory()
		ref := &flatMem{regions: fuzzRegions}
		for _, r := range fuzzRegions {
			if err := m.AddRegion(r); err != nil {
				t.Fatal(err)
			}
			ref.data = append(ref.data, make([]byte, r.Size))
		}
		mems := []pair{{m, ref}}
		for step := 0; len(ops) >= 6; step++ {
			op, p, arg, n := ops[0], mems[int(ops[1])%len(mems)], uint64(binary.LittleEndian.Uint16(ops[3:])), int(ops[5])
			addr := fuzzRegions[int(ops[2])%len(fuzzRegions)].Base + arg
			ops = ops[6:]
			take := func(n int) []byte {
				b := make([]byte, n)
				ops = ops[copy(b, ops):]
				return b
			}
			switch op % 8 {
			case 0: // Write
				size := uint64(n%8) + 1
				val := binary.LittleEndian.Uint64(take(8))
				want := p.f.span(addr, size, true)
				if err := p.m.Write(addr, size, val); (err == nil) != (want != nil) {
					t.Fatalf("step %d: Write(%#x,%d) verdict %v, model ok=%v", step, addr, size, err, want != nil)
				}
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], val)
				copy(want, b[:])
			case 1: // Read
				size := uint64(n%8) + 1
				want := p.f.span(addr, size, false)
				got, err := p.m.Read(addr, size)
				if (err == nil) != (want != nil) {
					t.Fatalf("step %d: Read(%#x,%d) verdict %v, model ok=%v", step, addr, size, err, want != nil)
				}
				var b [8]byte
				copy(b[:], want)
				if err == nil && got != binary.LittleEndian.Uint64(b[:]) {
					t.Fatalf("step %d: Read(%#x,%d) = %#x, model %#x", step, addr, size, got, b)
				}
			case 2: // Write128
				v := [2]uint64{binary.LittleEndian.Uint64(take(8)), binary.LittleEndian.Uint64(take(8))}
				// Two 8-byte writes: the first lands even when the second faults.
				for i, lane := range v {
					want := p.f.span(addr+8*uint64(i), 8, true)
					if want == nil {
						break
					}
					binary.LittleEndian.PutUint64(want, lane)
				}
				want := p.f.span(addr, 8, true) != nil && p.f.span(addr+8, 8, true) != nil
				if err := p.m.Write128(addr, v); (err == nil) != want {
					t.Fatalf("step %d: Write128(%#x) verdict %v, model ok=%v", step, addr, err, want)
				}
			case 3: // ReadBytes
				got := make([]byte, n%130)
				want := p.f.span(addr, uint64(len(got)), false)
				if err := p.m.ReadBytes(addr, got); (err == nil) != (want != nil) {
					t.Fatalf("step %d: ReadBytes(%#x,%d) verdict %v, model ok=%v", step, addr, len(got), err, want != nil)
				} else if err == nil && !bytes.Equal(got, want) {
					t.Fatalf("step %d: ReadBytes(%#x,%d) differs from the model", step, addr, len(got))
				}
			case 4: // WriteBytes (ignores Writable)
				src := take(n % 130)
				want := p.f.span(addr, uint64(len(src)), false)
				if err := p.m.WriteBytes(addr, src); (err == nil) != (want != nil) {
					t.Fatalf("step %d: WriteBytes(%#x,%d) verdict %v, model ok=%v", step, addr, len(src), err, want != nil)
				}
				copy(want, src)
			case 5: // Clone
				if len(mems) < 6 {
					mems = append(mems, pair{p.m.Clone(), p.f.clone()})
				}
			case 6: // CloneInto another live memory, replacing its content
				if q := &mems[int(arg)%len(mems)]; q.m != p.m {
					if got := p.m.CloneInto(q.m); got != q.m {
						t.Fatalf("step %d: CloneInto did not reuse dst", step)
					}
					q.f = p.f.clone()
				}
			case 7: // CheckWrite
				size := uint64(n%8) + 1
				if err := p.m.CheckWrite(addr, size); (err == nil) != (p.f.span(addr, size, true) != nil) {
					t.Fatalf("step %d: CheckWrite(%#x,%d) verdict %v", step, addr, size, err)
				}
			}
			for _, q := range mems {
				q.check(t, step)
			}
		}
	})
}
