package ace

import (
	"fmt"

	"harpocrates/internal/binfmt"
)

// Binary layout for embedding an IntervalRecorder inside a larger
// container (the golden artifact bundle's HXGA codec): little-endian,
// a uint32 cell count, then per cell the last-write cycle, a span
// count and the (start, end] span pairs. The recorder's fields are
// private to this package, so the walker lives here. Like HXGA it is
// kept only for the frozen benchmark/layers.go probes and is deleted
// with them (ROADMAP item 10; see uarch/goldencodec.go).

// maxCodecCells bounds a decoded recorder (the largest real recorder —
// the L1D data array — is a quarter-million cells; 1<<28 leaves three
// orders of magnitude of headroom).
const maxCodecCells = 1 << 28

// codec walks r's layout in whichever direction c runs; decoding resizes
// r to the stored cell count (12 bytes is the smallest cell: its
// last-write cycle and an empty span list) and derives each cell's last
// read and the consumed total from its spans.
func (r *IntervalRecorder) codec(c *binfmt.Codec) {
	cells := c.Len(len(r.lastWrite), 12, maxCodecCells)
	if c.Decoding() {
		r.Reset(cells)
	}
	span := func(sp *ivalSpan) {
		binfmt.U64(c, &sp.start)
		binfmt.U64(c, &sp.end)
	}
	for i := 0; i < len(r.lastWrite) && c.Err() == nil; i++ {
		binfmt.U64(c, &r.lastWrite[i])
		binfmt.Slice(c, &r.spans[i], 16, maxCodecCells, span)
		if s := r.spans[i]; c.Decoding() && len(s) > 0 {
			r.lastRead[i] = s[len(s)-1].end
			for _, sp := range s {
				r.consumed += sp.end - sp.start
			}
		}
	}
}

// AppendIntervalRecorder appends r's stable binary encoding to buf and
// returns the extended slice. r must be non-nil (the container encodes
// presence itself).
func AppendIntervalRecorder(buf []byte, r *IntervalRecorder) []byte {
	c := binfmt.NewEncoder(buf)
	r.codec(c)
	return c.Encoded()
}

// IntervalRecorderCodec moves one recorder through a container's cursor.
// Encoding writes *rp, which must be non-nil. Decoding draws a recorder
// from the pool into *rp (release it with ReleaseIntervalRecorder); when
// the stream is bad the recorder goes straight back and *rp stays nil,
// with the error left on c.
func IntervalRecorderCodec(c *binfmt.Codec, rp **IntervalRecorder) {
	if !c.Decoding() {
		(*rp).codec(c)
		return
	}
	r := GetIntervalRecorder(0)
	if r.codec(c); c.Err() != nil {
		ReleaseIntervalRecorder(r)
		return
	}
	*rp = r
}

// DecodeIntervalRecorder parses one recorder from the front of data,
// returning it (drawn from the recorder pool — release with
// ReleaseIntervalRecorder) and the number of bytes consumed.
func DecodeIntervalRecorder(data []byte) (*IntervalRecorder, int, error) {
	c := binfmt.NewDecoder(data)
	var r *IntervalRecorder
	if IntervalRecorderCodec(c, &r); c.Err() != nil {
		return nil, 0, fmt.Errorf("ace: interval recorder: %w", c.Err())
	}
	return r, c.Offset(), nil
}

// ApproxBytes estimates r's in-memory footprint (for cache accounting).
func (r *IntervalRecorder) ApproxBytes() int {
	if r == nil {
		return 0
	}
	n := 16*len(r.lastWrite) + 24*len(r.spans)
	for _, s := range r.spans {
		n += 16 * cap(s)
	}
	return n
}
