package binfmt

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"harpocrates/internal/binfmt/binfmttest"
)

type flags uint8
type variant uint16

// record exercises every primitive once; walk is its single walker.
type record struct {
	A    uint8
	F    flags
	V    variant
	N    int // u32 on the wire
	Disp int32
	W    uint64
	PC   int // i64 on the wire
	X    float64
	B, C bool
	Blob []byte
	Raw  [3]byte
	Name string
	List []variant
}

const testMagic, testVersion = 0x54534554, 2

func (r *record) walk(c *Codec) uint32 {
	ver := c.Header(testMagic, testVersion, 1)
	U8(c, &r.A)
	U8(c, &r.F)
	U16(c, &r.V)
	U32(c, &r.N)
	U32(c, &r.Disp)
	U64(c, &r.W)
	I64(c, &r.PC)
	c.F64(&r.X)
	c.Bool(&r.B)
	c.Bool(&r.C)
	c.Bytes(&r.Blob, 16)
	c.Raw(r.Raw[:])
	c.String(&r.Name, 16)
	Slice(c, &r.List, 2, 8, func(v *variant) { U16(c, v) })
	return ver
}

var sample = record{
	A: 0xab, F: 0x81, V: 0xbeef, N: 70000, Disp: -2, W: 1 << 63, PC: -7,
	X: math.Copysign(0, -1), B: true, Blob: []byte{1, 2, 3}, Raw: [3]byte{9, 8, 7},
	Name: "héllo", List: []variant{1, 0xffff},
}

func encodeSample(t *testing.T) []byte {
	t.Helper()
	r := sample
	c := NewEncoder(nil)
	if ver := r.walk(c); ver != testVersion {
		t.Fatalf("encoder reports version %d", ver)
	}
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, sample) {
		t.Fatal("encoding wrote to its source")
	}
	return c.Encoded()
}

// TestWalkerRoundTrip: one walker run in encode mode then decode mode
// reproduces every primitive, and the bytes are the documented
// little-endian layout.
func TestWalkerRoundTrip(t *testing.T) {
	data := encodeSample(t)
	want := []byte{
		'T', 'E', 'S', 'T', 2, 0, 0, 0, // header
		0xab, 0x81, 0xef, 0xbe, // u8, u8, u16
		0x70, 0x11, 0x01, 0x00, // u32 70000
		0xfe, 0xff, 0xff, 0xff, // int32 -2 as u32
		0, 0, 0, 0, 0, 0, 0, 0x80, // u64 1<<63
		0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // i64 -7
		0, 0, 0, 0, 0, 0, 0, 0x80, // -0.0
		1, 0, // bools
		3, 0, 0, 0, 1, 2, 3, // bytes
		9, 8, 7, // raw
		6, 0, 0, 0, 'h', 0xc3, 0xa9, 'l', 'l', 'o', // string
		2, 0, 0, 0, 1, 0, 0xff, 0xff, // slice
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("layout:\n got %x\nwant %x", data, want)
	}

	var got record
	c := NewDecoder(data)
	if ver := got.walk(c); ver != testVersion {
		t.Fatalf("decoder reports version %d", ver)
	}
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	if c.Offset() != len(data) {
		t.Fatalf("consumed %d of %d bytes", c.Offset(), len(data))
	}
	if !reflect.DeepEqual(got, sample) || math.Signbit(got.X) != true {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, sample)
	}

	// An accepted older version is reported, not rewritten.
	old := append([]byte(nil), data...)
	old[4] = 1
	c = NewDecoder(old)
	if ver := new(record).walk(c); ver != 1 || c.End() != nil {
		t.Fatalf("older version: got %d, err %v", ver, c.Err())
	}
}

// TestStickyError: truncation at every cut fails with ErrUnexpectedEOF,
// and after the first error every primitive is a no-op that leaves its
// target untouched.
func TestStickyError(t *testing.T) {
	data := encodeSample(t)
	for cut := 0; cut < len(data); cut++ {
		c := NewDecoder(data[:cut])
		new(record).walk(c)
		if err := c.End(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v", cut, err)
		}
	}

	for _, dec := range []bool{false, true} {
		c := NewEncoder([]byte{0xaa})
		if dec {
			c = NewDecoder(data)
		}
		c.Fail("boom %d", 1)
		c.Fail("second") // first error wins
		r := sample
		r.walk(c)
		if n := c.Len(5, 1, 10); dec && n != 0 {
			t.Fatalf("Len after error returned %d", n)
		}
		if !reflect.DeepEqual(r, sample) {
			t.Fatalf("decoding=%v: primitives after an error modified their targets", dec)
		}
		if err := c.End(); err == nil || err.Error() != "boom 1" {
			t.Fatalf("decoding=%v: End = %v", dec, err)
		}
		if !dec && !bytes.Equal(c.Encoded(), []byte{0xaa}) {
			t.Fatalf("encoder kept appending after an error: %x", c.Encoded())
		}
		if dec && c.Offset() != 0 {
			t.Fatalf("decoder kept consuming after an error: offset %d", c.Offset())
		}
	}
}

func TestRejects(t *testing.T) {
	data := encodeSample(t)
	mutate := func(off int, b ...byte) []byte {
		out := append([]byte(nil), data...)
		copy(out[off:], b)
		return out
	}
	boolOff := bytes.Index(data, []byte{1, 0, 3, 0, 0, 0})
	cases := map[string][]byte{
		"bad magic":         mutate(0, 'X'),
		"future version":    mutate(4, 3),
		"bool byte 2":       mutate(boolOff, 2),
		"length over bound": mutate(boolOff+2, 17),
		"trailing":          append(append([]byte(nil), data...), 0),
	}
	for name, in := range cases {
		c := NewDecoder(in)
		new(record).walk(c)
		if c.End() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLenRefusesUnbackedCounts is the length rule: a count within the
// format bound is still refused when the bytes for it are not there, so
// nothing is allocated for them.
func TestLenRefusesUnbackedCounts(t *testing.T) {
	claim := []byte{0xff, 0xff, 0xff, 0x0f} // 1<<28 - 1 elements, no body
	got := binfmttest.AllocatedBy(func() {
		c := NewDecoder(claim)
		var s []uint64
		Slice(c, &s, 8, 1<<28, func(p *uint64) { U64(c, p) })
		var b []byte
		NewDecoder(claim).Bytes(&b, 1<<28)
		if c.Err() == nil || s != nil || b != nil {
			t.Fatal("unbacked count accepted")
		}
	})
	if got > 1<<16 { // two codecs and two error values, never the 2 GiB slice
		t.Fatalf("%d bytes allocated for a 4-byte input", got)
	}

	// Backed exactly: accepted. One byte short: refused.
	body := append([]byte{2, 0, 0, 0}, make([]byte, 16)...)
	if c := NewDecoder(body); c.Len(0, 8, 4) != 2 || c.Err() != nil {
		t.Fatal("exactly-backed count refused")
	}
	if c := NewDecoder(body[:len(body)-1]); c.Len(0, 8, 4) != 0 || c.Err() == nil {
		t.Fatal("count one byte short of its body accepted")
	}
	if c := NewDecoder(body); c.Len(0, 8, 1) != 0 || c.Err() == nil {
		t.Fatal("count over the format bound accepted")
	}
	// elemSize 0 applies only the bound (sizes not backed by bytes).
	if c := NewDecoder(claim); c.Len(0, 0, 1<<28) != 1<<28-1 {
		t.Fatal("elemSize 0 consulted the remaining bytes")
	}
}

// TestSliceReusesCapacity: pooled owners hand Slice a slice with stale
// contents; the decoder reuses the storage but not the contents.
func TestSliceReusesCapacity(t *testing.T) {
	type pair struct{ a, b uint8 }
	backing := []pair{{9, 9}, {9, 9}, {9, 9}}
	s := backing[:3]
	c := NewDecoder([]byte{2, 0, 0, 0, 1, 2})
	Slice(c, &s, 1, 8, func(p *pair) { U8(c, &p.a) })
	if c.End() != nil || len(s) != 2 || &s[0] != &backing[0] {
		t.Fatalf("err %v len %d", c.Err(), len(s))
	}
	if s[0] != (pair{1, 0}) || s[1] != (pair{2, 0}) {
		t.Fatalf("stale fields survived: %+v", s)
	}
}

// TestBytesAppendedIsBytes: a string the encoder appends in place is laid
// out as Bytes lays it out, after whatever came before it, and decodes
// as Bytes decodes it.
func TestBytesAppendedIsBytes(t *testing.T) {
	for _, s := range [][]byte{nil, {1}, bytes.Repeat([]byte{7, 9}, 300)} {
		want := NewEncoder([]byte{0xee})
		want.Bytes(&s, 1<<10)
		got := NewEncoder([]byte{0xee})
		got.BytesAppended(nil, 1<<10, func(out []byte) []byte { return append(out, s...) })
		if !bytes.Equal(got.Encoded(), want.Encoded()) {
			t.Fatalf("%d bytes: appended % x, want % x", len(s), got.Encoded(), want.Encoded())
		}
		var back []byte
		d := NewDecoder(got.Encoded()[1:])
		d.BytesAppended(&back, 1<<10, nil)
		if err := d.End(); err != nil || !bytes.Equal(back, s) {
			t.Fatalf("%d bytes: decoded % x (%v)", len(s), back, err)
		}
	}
}
