package ace

import (
	"fmt"
	"unsafe"

	"harpocrates/internal/binfmt"
)

// Binary layout for embedding an IntervalRecorder inside a larger
// container (the golden artifact bundle's HXGA codec): little-endian,
// a uint32 cell count, then per cell the last-write cycle, a span
// count and the (start, end] span pairs. A cell's spans are its log as
// cellSpans merges it, and a cell of a whole block gives the block's
// write, so the bytes do not depend on how the recorder split its log
// between cells and segments. The recorder's fields are private to this
// package, so the walker lives here. Like HXGA it is kept only for the
// frozen benchmark/layers.go probes and is deleted with them (ROADMAP
// item 7; see uarch/goldencodec.go).

// maxCodecCells bounds a decoded recorder (the largest real recorder —
// the L1D data array — is a quarter-million cells; 1<<28 leaves three
// orders of magnitude of headroom).
const maxCodecCells = 1 << 28

// codec walks r's layout in whichever direction c runs; decoding resizes
// r to the stored cell count (12 bytes is the smallest cell: its
// last-write cycle and an empty span list), keeps every cell per cell
// with its spans in its own list, and derives the consumed total from
// them.
func (r *IntervalRecorder) codec(c *binfmt.Codec) {
	cells := c.Len(r.cells, 12, maxCodecCells)
	dec := c.Decoding()
	if dec {
		r.Reset(cells)
		r.growCells()
		for b := range r.blocks {
			r.blocks[b].whole = false
		}
	}
	span := func(sp *ivalSpan) {
		binfmt.U64(c, &sp.start)
		binfmt.U64(c, &sp.end)
	}
	var spans []ivalSpan
	for i := 0; i < r.cells && c.Err() == nil; i++ {
		var w uint64
		if !dec {
			w, spans = r.writeOf(i), r.cellSpans(spans[:0], i)
		}
		binfmt.U64(c, &w)
		binfmt.Slice(c, &spans, 16, maxCodecCells, span)
		if dec && c.Err() == nil {
			r.lastWrite[i] = w
			for _, sp := range spans {
				r.push(&r.cellLog[i], sp)
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
	return 8*len(r.lastWrite) + 8*len(r.lastRead) + int(unsafe.Sizeof(spanList{}))*len(r.cellLog) +
		int(unsafe.Sizeof(segBlock{}))*len(r.blocks) + int(unsafe.Sizeof(segLog{}))*len(r.segLog) +
		int(unsafe.Sizeof([chunkLen]spanNode{}))*len(r.arena)
}
