// Package binfmt is the one field codec under every binary payload
// format in the tree (HXPG programs, HXGT genotypes, HXSR shard results,
// HXCK loop snapshots, HXGA golden bundles and the ACE interval logs
// embedded in them).
//
// A Codec is a little-endian cursor that is either encoding (appending
// to a byte slice) or decoding (walking one). Every primitive takes a
// pointer and moves the field in whichever direction the codec runs, so
// a format is ONE walker function that names each field once: encode
// and decode cannot disagree on field order or width. The first error
// sticks — every later primitive is a no-op that leaves its target
// untouched — so a walker checks Err (or End) once instead of after
// every field. Direction-specific logic (an encoder's refusals, a
// decoder's range checks) is written explicitly under Decoding().
//
// There is a single length rule, Len: a decoded element count is refused
// unless it is within the format's bound AND the bytes for that many
// elements are actually present, so a hostile length never allocates
// more than a constant factor of the input it arrived in.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Codec is the bidirectional cursor. Build one with NewEncoder or
// NewDecoder; the zero value is an encoder into a nil slice.
type Codec struct {
	buf []byte // encoding: the output so far; decoding: the whole input
	off int    // decoding: read position in buf
	dec bool
	err error
}

// NewEncoder returns a codec that appends to buf (which may be nil).
func NewEncoder(buf []byte) *Codec { return &Codec{buf: buf} }

// NewDecoder returns a codec that reads data front to back. Decoded
// byte slices and strings are copies; data is never retained.
func NewDecoder(data []byte) *Codec { return &Codec{buf: data, dec: true} }

// Decoding reports the direction.
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first error, if any.
func (c *Codec) Err() error { return c.err }

// Fail records a format-level error (a failed validation, an encoder
// refusal) unless one is already recorded.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Encoded returns the encoder's output so far.
func (c *Codec) Encoded() []byte { return c.buf }

// Offset returns how many input bytes a decoder has consumed.
func (c *Codec) Offset() int { return c.off }

// End finishes a walk: when decoding, unread trailing bytes are an
// error. It returns the codec's first error, with a truncation located.
func (c *Codec) End() error {
	if c.err == errShort {
		c.err = fmt.Errorf("binfmt: truncated at offset %d of %d: %w", c.off, len(c.buf), io.ErrUnexpectedEOF)
	} else if c.dec && c.err == nil && c.off != len(c.buf) {
		c.err = fmt.Errorf("binfmt: %d trailing bytes", len(c.buf)-c.off)
	}
	return c.err
}

// errShort marks a truncated input. take records this preallocated
// value so that it stays small enough to inline into every primitive;
// End says where (the cursor stops at the failure, so the offset is
// still exact then).
var errShort = fmt.Errorf("binfmt: truncated: %w", io.ErrUnexpectedEOF)

// take returns the next n input bytes, or nil once an error is recorded.
func (c *Codec) take(n int) []byte {
	if c.err == nil {
		if n <= len(c.buf)-c.off {
			c.off += n
			return c.buf[c.off-n : c.off]
		}
		c.err = errShort
	}
	return nil
}

// Integer is any integer type, named or not: the wire width is chosen
// by the primitive (U8, U16, ...), the in-memory type by the field, and
// the conversion between them is Go's ordinary truncating / extending
// integer conversion — so isa.Flags, isa.VariantID, an Outcome or a
// plain int pass straight through without a temporary.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// U8 moves a one-byte field.
func U8[T Integer](c *Codec, p *T) {
	if !c.dec {
		if c.err == nil {
			c.buf = append(c.buf, uint8(*p))
		}
	} else if b := c.take(1); b != nil {
		*p = T(b[0])
	}
}

// U16 moves a two-byte little-endian field.
func U16[T Integer](c *Codec, p *T) {
	if !c.dec {
		if c.err == nil {
			c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(*p))
		}
	} else if b := c.take(2); b != nil {
		*p = T(binary.LittleEndian.Uint16(b))
	}
}

// U32 moves a four-byte little-endian field.
func U32[T Integer](c *Codec, p *T) {
	if !c.dec {
		if c.err == nil {
			c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*p))
		}
	} else if b := c.take(4); b != nil {
		*p = T(binary.LittleEndian.Uint32(b))
	}
}

// U64 moves an eight-byte little-endian field.
func U64[T Integer](c *Codec, p *T) {
	if !c.dec {
		if c.err == nil {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*p))
		}
	} else if b := c.take(8); b != nil {
		*p = T(binary.LittleEndian.Uint64(b))
	}
}

// I64 moves a signed field as eight two's-complement bytes. It is U64
// restricted to signed types, so a layout reads "i64" where it means it.
func I64[T ~int | ~int32 | ~int64](c *Codec, p *T) { U64(c, p) }

// F64 moves a float64 as its IEEE-754 bits.
func (c *Codec) F64(p *float64) {
	bits := math.Float64bits(*p)
	U64(c, &bits)
	if c.dec && c.err == nil {
		*p = math.Float64frombits(bits)
	}
}

// Bool moves a one-byte boolean. Only 0 and 1 decode: any other byte is
// corruption, and coercing it would break decode→encode byte identity.
func (c *Codec) Bool(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	U8(c, &b)
	if c.dec && c.err == nil {
		if b > 1 {
			c.Fail("binfmt: invalid boolean byte %#x at offset %d", b, c.off-1)
			return
		}
		*p = b == 1
	}
}

// Header moves the 8-byte container header: a u32 magic and a u32
// version. The encoder writes version; the decoder accepts version or
// any of older and refuses everything else. It returns the version in
// effect, so a walker can gate version-dependent sections on it.
func (c *Codec) Header(magic, version uint32, older ...uint32) uint32 {
	m, v := magic, version
	U32(c, &m)
	U32(c, &v)
	if c.dec && c.err == nil {
		if m != magic {
			c.Fail("binfmt: bad magic %#x (want %#x)", m, magic)
		} else if v != version && !slices.Contains(older, v) {
			c.Fail("binfmt: unsupported version %d", v)
		}
	}
	return v
}

// Len moves a u32 element count — the single length rule. The encoder
// writes n. The decoder returns the stored count, refusing it (and
// returning 0) unless it is at most max and count·elemSize bytes are
// still unread; elemSize is the smallest encoding of one element, so
// whatever a caller allocates for the count is bounded by the input.
func (c *Codec) Len(n, elemSize, max int) int {
	v := uint32(n)
	U32(c, &v)
	if !c.dec {
		return n
	}
	if c.err != nil {
		return 0
	}
	if rest := len(c.buf) - c.off; uint64(v) > uint64(max) {
		c.Fail("binfmt: length %d at offset %d exceeds its bound %d", v, c.off-4, max)
		return 0
	} else if uint64(v)*uint64(elemSize) > uint64(rest) {
		c.Fail("binfmt: length %d at offset %d needs %d bytes, %d remain: %w",
			v, c.off-4, uint64(v)*uint64(elemSize), rest, io.ErrUnexpectedEOF)
		return 0
	}
	return int(v)
}

// Raw moves len(b) bytes with no length prefix: the encoder appends b,
// the decoder fills it.
func (c *Codec) Raw(b []byte) {
	if !c.dec {
		if c.err == nil {
			c.buf = append(c.buf, b...)
		}
	} else if src := c.take(len(b)); src != nil {
		copy(b, src)
	}
}

// RawN moves exactly n bytes with no length prefix, for layouts that
// store a payload's size apart from the payload. The encoder appends *p
// (whose length the caller wrote as n); the decoder allocates n fresh
// bytes, refusing — as Len does — a size the unread input cannot back.
func (c *Codec) RawN(p *[]byte, n int) {
	if c.dec {
		if c.err != nil {
			return
		}
		if n < 0 || n > len(c.buf)-c.off {
			c.err = errShort
			return
		}
		*p = make([]byte, n)
	}
	c.Raw(*p)
}

// Bytes moves a u32-length-prefixed byte string of at most max bytes.
func (c *Codec) Bytes(p *[]byte, max int) { c.RawN(p, c.Len(len(*p), 1, max)) }

// BytesAppended moves what Bytes moves, but the encoder writes the string
// in place: app is handed the output, returns it with the string
// appended, and the length prefix is filled in afterwards. A format
// whose payload comes from an append-style encoder thus needs neither its
// size up front nor a staging copy. The decoder reads the string into *p.
func (c *Codec) BytesAppended(p *[]byte, max int, app func([]byte) []byte) {
	if c.dec {
		c.Bytes(p, max)
		return
	}
	if c.err == nil {
		at := len(c.buf)
		c.buf = app(append(c.buf, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(c.buf[at:], uint32(len(c.buf)-at-4))
	}
}

// String moves a u32-length-prefixed string of at most max bytes.
func (c *Codec) String(p *string, max int) {
	n := c.Len(len(*p), 1, max)
	if !c.dec {
		if c.err == nil {
			c.buf = append(c.buf, *p...)
		}
	} else if b := c.take(n); b != nil {
		*p = string(b)
	}
}

// Slice moves a u32-counted sequence under the Len rule, calling elem
// for every element in order. The decoder first resizes *s to the
// stored count of zero elements, reusing its capacity when it suffices
// (pooled owners rely on that).
func Slice[T any](c *Codec, s *[]T, elemSize, max int, elem func(*T)) {
	n := c.Len(len(*s), elemSize, max)
	if c.dec {
		if c.err != nil {
			return
		}
		if cap(*s) >= n {
			*s = (*s)[:n]
			clear(*s)
		} else {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}
