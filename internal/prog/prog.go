// Package prog defines the self-contained functional test program
// container: an instruction sequence plus everything needed to run it
// deterministically — initial register values, memory region templates,
// and the stack. It is the analogue of MuSeqGen's generated
// microbenchmark plus its C wrapper (paper §V-D): the wrapper's
// register/memory initialization is the recorded initial state, and the
// wrapper's output computation is the architectural signature.
package prog

import (
	"fmt"

	"harpocrates/internal/arch"
	"harpocrates/internal/isa"
)

// Standard address-space layout for generated programs.
const (
	DataBase  = 0x100000
	StackBase = 0x200000
	StackSize = 16 * 1024
)

// RegionSpec is a memory region template. Data is copied into each fresh
// state, so repeated runs always start identically. A nil Data with a
// positive Size yields a zero-filled region, which costs a fresh state
// nothing until it is written (cheap large stacks).
type RegionSpec struct {
	Name     string
	Base     uint64
	Data     []byte
	Size     int // used when Data is nil
	Writable bool
}

// size returns the region's byte size.
func (r *RegionSpec) size() int {
	if r.Data != nil {
		return len(r.Data)
	}
	return r.Size
}

// Program is a runnable functional test program.
type Program struct {
	Name  string
	Insts []isa.Inst

	InitGPR   [isa.NumGPR]uint64
	InitXMM   [isa.NumXMM][2]uint64
	InitFlags isa.Flags

	Regions []RegionSpec

	// image, when set (UseImage), is Regions' content built once.
	image *Image
}

// Image is the initial memory of a program's regions, built once and
// never written: NewState of a program that uses it clones it
// copy-on-write instead of allocating, copying and digesting pages, so
// any number of goroutines may start states from one image at once.
type Image struct{ mem *arch.Memory }

// NewImage builds the initial memory of p's regions.
func (p *Program) NewImage() *Image {
	mem := p.newMemory()
	mem.Clone() // gives up every owned mark: from here on mem is only read
	return &Image{mem: mem}
}

// UseImage makes NewState start from img, which must have been built by
// NewImage from a program whose Regions hold the same content as p's.
// p's Regions must not change afterwards.
func (p *Program) UseImage(img *Image) { p.image = img }

// region returns the guest-memory descriptor of a region template.
func (r *RegionSpec) region() arch.Region {
	return arch.Region{Name: r.Name, Base: r.Base, Size: uint64(r.size()), Writable: r.Writable}
}

// Validate performs structural checks: line-aligned regions (the L1D
// model requires it) that neither overlap nor wrap the address space —
// NewState panics on those, and a program can arrive as bytes.
func (p *Program) Validate() error {
	mem := arch.NewMemory()
	for i := range p.Regions {
		r := &p.Regions[i]
		if r.Base%64 != 0 || r.size()%64 != 0 {
			return fmt.Errorf("prog %q: region %q not 64-byte aligned", p.Name, r.Name)
		}
		if err := mem.AddRegion(r.region()); err != nil {
			return fmt.Errorf("prog %q: %w", p.Name, err)
		}
	}
	return nil
}

// NewState builds a fresh architectural state for one run.
func (p *Program) NewState() *arch.State {
	var mem *arch.Memory
	if p.image != nil {
		mem = p.image.mem.Clone()
	} else {
		mem = p.newMemory()
	}
	s := arch.NewState(mem)
	s.GPR = p.InitGPR
	s.XMM = p.InitXMM
	s.Flags = p.InitFlags
	return s
}

// newMemory builds the initial memory of p's regions.
func (p *Program) newMemory() *arch.Memory {
	mem := arch.NewMemory()
	for i := range p.Regions {
		r := &p.Regions[i]
		if err := mem.AddRegion(r.region()); err != nil {
			panic(fmt.Sprintf("prog %q: %v", p.Name, err))
		}
		_ = mem.WriteBytes(r.Base, r.Data) // cannot fault: the region was added with Data's size
	}
	return mem
}

// InitFunc returns a fresh-state factory (the form fault campaigns
// consume).
func (p *Program) InitFunc() func() *arch.State {
	return func() *arch.State { return p.NewState() }
}

// GoldenRun executes the program on the functional emulator and returns
// retired instructions, the output signature and any crash.
func (p *Program) GoldenRun(maxSteps int) (int, uint64, *arch.CrashError) {
	s := p.NewState()
	n, err := arch.Run(p.Insts, s, maxSteps)
	return n, s.Signature(), err
}

// Deterministic reports whether two emulator runs with different
// nondeterminism salts produce the same output — the determinism filter
// both MuSeqGen and the SiliFuzz snapshot selection apply (§V-B).
func (p *Program) Deterministic(maxSteps int) bool {
	s1 := p.NewState()
	s1.NondetSalt = 1
	n1, e1 := arch.Run(p.Insts, s1, maxSteps)
	s2 := p.NewState()
	s2.NondetSalt = 2
	n2, e2 := arch.Run(p.Insts, s2, maxSteps)
	if (e1 == nil) != (e2 == nil) || n1 != n2 {
		return false
	}
	if e1 != nil {
		return e1.Kind == e2.Kind && e1.PC == e2.PC
	}
	return s1.Signature() == s2.Signature()
}

// EncodedLen returns the byte-encoded size of the instruction sequence.
func (p *Program) EncodedLen() int {
	n := 0
	for i := range p.Insts {
		n += isa.EncodedLen(&p.Insts[i])
	}
	return n
}

// Encode returns the byte encoding of the instruction sequence.
func (p *Program) Encode() []byte {
	buf := make([]byte, 0, p.EncodedLen())
	for i := range p.Insts {
		buf = isa.Encode(buf, &p.Insts[i])
	}
	return buf
}

// Disassemble renders the program as assembly text.
func (p *Program) Disassemble() string {
	s := ""
	for i, in := range p.Insts {
		s += fmt.Sprintf("%5d:  %s\n", i, in.String())
	}
	return s
}

// Clone deep-copies the program (mutation works on copies).
func (p *Program) Clone() *Program {
	c := *p
	c.Insts = make([]isa.Inst, len(p.Insts))
	copy(c.Insts, p.Insts)
	c.Regions = make([]RegionSpec, len(p.Regions))
	copy(c.Regions, p.Regions)
	for i := range c.Regions {
		d := make([]byte, len(p.Regions[i].Data))
		copy(d, p.Regions[i].Data)
		c.Regions[i].Data = d
	}
	return &c
}
