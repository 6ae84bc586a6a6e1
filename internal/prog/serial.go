package prog

import (
	"fmt"
	"io"
	"os"

	"harpocrates/internal/binfmt"
	"harpocrates/internal/isa"
)

// Binary container format for test programs ("HXPG"): generated and
// evolved programs can be persisted and reloaded — the corpus artifacts
// the paper's toolchain passes between the generator, the grading engine
// and the fleet-deployment side.
const (
	serialMagic   = 0x48585047 // "HXPG"
	serialVersion = 1
)

// Decoder bounds. Every length field of the container is untrusted; on
// top of these ceilings binfmt refuses any count the bytes actually
// present cannot back.
const (
	maxSerialField   = 1 << 30 // a name, a region, the instruction bytes
	maxSerialRegions = 64
	// maxSerialBytes is the largest container those ceilings allow; it
	// caps how much of a stream ReadProgram will buffer.
	maxSerialBytes = (maxSerialRegions + 2) * maxSerialField
)

// codec walks the HXPG layout in whichever direction c runs: header,
// name, initial GPR/XMM/flags, the regions (name, base, u32 size, a flag
// byte — bit 0 writable, bit 1 data present — and the data when
// present), then a u32 instruction count and the length-prefixed
// isa-encoded instruction bytes.
func (p *Program) codec(c *binfmt.Codec) error {
	c.Header(serialMagic, serialVersion)
	c.String(&p.Name, maxSerialField)
	for i := range p.InitGPR {
		binfmt.U64(c, &p.InitGPR[i])
	}
	for i := range p.InitXMM {
		binfmt.U64(c, &p.InitXMM[i][0])
		binfmt.U64(c, &p.InitXMM[i][1])
	}
	binfmt.U8(c, &p.InitFlags)

	binfmt.Slice(c, &p.Regions, 17, maxSerialRegions, func(r *RegionSpec) {
		c.String(&r.Name, maxSerialField)
		binfmt.U64(c, &r.Base)
		// A zero-fill region's size is backed by no bytes, so only the
		// ceiling applies here; RawN checks a data region's against the input.
		size := c.Len(r.size(), 0, maxSerialField)
		var flags uint8
		if r.Writable {
			flags |= 1
		}
		if r.Data != nil {
			flags |= 2
		}
		binfmt.U8(c, &flags)
		if c.Decoding() {
			r.Writable = flags&1 != 0
		}
		if flags&2 != 0 {
			c.RawN(&r.Data, size)
		} else if c.Decoding() {
			r.Size = size
		}
	})

	nInsts := len(p.Insts)
	binfmt.U32(c, &nInsts)
	var enc []byte
	c.BytesAppended(&enc, maxSerialField, func(out []byte) []byte {
		for i := range p.Insts {
			out = isa.Encode(out, &p.Insts[i])
		}
		return out
	})
	if c.Decoding() && c.Err() == nil {
		// nInsts is untrusted too, but each iteration consumes at least
		// one byte of enc, so the loop is bounded by the input.
		for i := 0; i < nInsts; i++ {
			in, n, err := isa.Decode(enc)
			if err != nil {
				c.Fail("instruction %d: %w", i, err)
				break
			}
			p.Insts = append(p.Insts, in)
			enc = enc[n:]
		}
		if len(enc) != 0 {
			c.Fail("%d trailing bytes after instructions", len(enc))
		}
	}
	return c.End()
}

// Serialize returns the program's HXPG container, encoded into one
// buffer sized up front: the header, registers and regions exactly, the
// instructions at 8 bytes each, above every preset program's average
// (5.8–7.2 bytes). Measuring them exactly (p.EncodedLen) would cost a
// third of the encoding.
func (p *Program) Serialize() []byte {
	size := 8 + 4 + len(p.Name) + 8*len(p.InitGPR) + 16*len(p.InitXMM) + 1 + 4 + 4 + 4 + 8*len(p.Insts)
	for i := range p.Regions {
		r := &p.Regions[i]
		size += 4 + len(r.Name) + 8 + 4 + 1 + len(r.Data)
	}
	c := binfmt.NewEncoder(make([]byte, 0, size))
	_ = p.codec(c) // the walker only fails when decoding
	return c.Encoded()
}

// Deserialize parses an HXPG container (Serialize's bytes) and validates
// the program. Bytes after the container are an error; data is not
// retained.
func Deserialize(data []byte) (*Program, error) {
	p := &Program{}
	if err := p.codec(binfmt.NewDecoder(data)); err != nil {
		return nil, fmt.Errorf("prog: %w", err)
	}
	return p, p.Validate()
}

// WriteTo serializes the program.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.Serialize())
	return int64(n), err
}

// ReadProgram deserializes a program written by WriteTo. The stream is
// buffered incrementally (io.ReadAll grows as bytes arrive) and decoded
// from memory, so a hostile length claim backed by a short stream costs
// only the bytes actually present; bytes after the container are an
// error.
func ReadProgram(r io.Reader) (*Program, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxSerialBytes+1))
	if err != nil {
		return nil, fmt.Errorf("prog: read: %w", err)
	}
	if len(data) > maxSerialBytes {
		return nil, fmt.Errorf("prog: container exceeds %d bytes", maxSerialBytes)
	}
	return Deserialize(data)
}

// Save writes the program to a file.
func (p *Program) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := p.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a program from a file.
func Load(path string) (*Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadProgram(f)
}
