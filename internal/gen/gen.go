// Package gen is the MuSeqGen analogue: configurable constrained-random
// generation of valid, deterministic, non-crashing HX86 test programs
// (paper §V).
//
// A program's genotype is its variant sequence plus an operand-resolution
// seed; materialization runs the pass pipeline (instruction fill,
// register allocation, memory-operand resolution, immediate sampling,
// branch resolution, state initialization) to produce the runnable
// phenotype. The mutation engine edits genotypes; re-materialization
// re-resolves operands deterministically, guaranteeing every mutant is
// still valid — the ISA-awareness that separates Harpocrates from raw
// byte fuzzing (paper Fig. 8).
//
// Validity constraints encoded here (paper §V-B):
//   - nondeterministic and privileged variants are excluded;
//   - a reserved base register (R14) anchors all memory operands inside
//     a designated region, so implicit-output clobbers (MUL writing
//     RAX:RDX) can never corrupt an address base;
//   - RSP is reserved for the stack, which is sized so that any PUSH/POP
//     imbalance a mutation can produce stays in bounds;
//   - 128-bit memory operands resolve to 16-byte-aligned addresses;
//   - branches resolve to the next instruction (taken and not-taken
//     paths coincide, §V-D);
//   - wide division is excluded from the default pool (its quotient-
//     overflow trap depends on runtime data and cannot be guaranteed
//     crash-free by construction).
package gen

import (
	"math/rand/v2"
	"sync"

	"harpocrates/internal/binfmt"
	"harpocrates/internal/isa"
	"harpocrates/internal/prog"
	"harpocrates/internal/stats"
)

// BaseReg is the reserved memory base register.
const BaseReg = isa.R14

// StackBytes is the generated programs' stack size: large enough that no
// mutation can push or pop out of bounds (30K single-push instructions
// move RSP by 240 KB; we budget 512 KB each way).
const StackBytes = 1 << 20

// RegAllocPolicy selects the register-allocation pass.
type RegAllocPolicy int

// Register allocation policies (paper §V-D: "constant register
// dependency distance, random allocation subject to ISA constraints,
// round-robin, etc.").
const (
	// AllocMaxDistance maximizes dependency distance: destinations and
	// sources pick the least-recently-written register, balancing ILP
	// and data-flow propagation (the paper's choice).
	AllocMaxDistance RegAllocPolicy = iota
	// AllocRoundRobin cycles through the allowed registers.
	AllocRoundRobin
	// AllocRandom picks uniformly among allowed registers.
	AllocRandom
)

// MemPolicy configures memory-operand resolution: a cursor walking a
// region with a fixed stride (paper §V-D: "memory operands are always
// resolved in a round-robin fashion and within a cache-sized designated
// memory space with a fixed stride").
type MemPolicy struct {
	RegionBytes int
	Stride      int
}

// Config parameterizes generation.
type Config struct {
	// NumInstrs is the program length (5K/10K/30K in the paper).
	NumInstrs int
	// Allowed is the variant pool for instruction fill and mutation.
	// Defaults to DefaultPool().
	Allowed []isa.VariantID
	// Weights optionally biases instruction selection (parallel to
	// Allowed; nil = uniform).
	Weights  []float64
	RegAlloc RegAllocPolicy
	Mem      MemPolicy
}

// DefaultConfig returns the generator configuration used for the
// register-file target (10K instructions, uniform selection, max
// dependency distance, 32 KB region with a 64-byte stride).
func DefaultConfig() Config {
	return Config{
		NumInstrs: 10000,
		Allowed:   DefaultPool(),
		RegAlloc:  AllocMaxDistance,
		Mem:       MemPolicy{RegionBytes: 32 * 1024, Stride: 64},
	}
}

// defaultPool is built once; parallel tests and campaign workers all
// reach DefaultPool.
var defaultPool = sync.OnceValue(func() []isa.VariantID {
	var pool []isa.VariantID
	for _, id := range isa.Deterministic() {
		switch isa.Lookup(id).Op {
		case isa.OpDIV, isa.OpIDIV:
			continue
		}
		pool = append(pool, id)
	}
	return pool
})

// DefaultPool returns the default variant pool: every deterministic
// variant except wide division (runtime-data-dependent traps).
func DefaultPool() []isa.VariantID { return defaultPool() }

// PoolFilter returns the subset of DefaultPool satisfying keep.
func PoolFilter(keep func(*isa.Variant) bool) []isa.VariantID {
	var out []isa.VariantID
	for _, id := range DefaultPool() {
		if keep(isa.Lookup(id)) {
			out = append(out, id)
		}
	}
	return out
}

// PoolUsage reports the fraction of the configured variant pool that
// appears in at least one of the given genotypes (0..1). A refinement
// loop whose survivors exercise a shrinking slice of the pool has
// collapsed onto a few instruction kinds — a diversity signal surfaced
// by the observability layer.
func PoolUsage(cfg *Config, gs []*Genotype) float64 {
	if len(cfg.Allowed) == 0 {
		return 0
	}
	present := make(map[isa.VariantID]struct{}, len(cfg.Allowed))
	for _, g := range gs {
		for _, v := range g.Variants {
			present[v] = struct{}{}
		}
	}
	// Count only variants actually in the pool: mutation cannot introduce
	// out-of-pool variants, but seeded genotypes might carry them.
	n := 0
	for _, v := range cfg.Allowed {
		if _, ok := present[v]; ok {
			n++
		}
	}
	return float64(n) / float64(len(cfg.Allowed))
}

// Genotype is the heritable representation: the variant sequence plus
// the operand-resolution seed. Mutation edits Variants; materialization
// is a pure function of the genotype and config.
type Genotype struct {
	Variants []isa.VariantID
	Seed     uint64
}

// Hash returns the genotype's content hash: the materialization seed and
// every variant folded in a fixed order. Because materialization is a
// pure function of (genotype, config), the hash identifies the phenotype
// too — it keys the evaluator's fitness memo and the corpus store's
// content-addressed filenames.
func (g *Genotype) Hash() uint64 {
	h := stats.Mix64(stats.HashInit, g.Seed)
	for _, v := range g.Variants {
		h = stats.Mix64(h, uint64(v))
	}
	return h
}

// MaxCodecVariants bounds a decoded variant sequence.
const MaxCodecVariants = 1 << 24

// Codec walks the genotype's binary body — u64 seed, u32-counted u16
// variant IDs — in whichever direction c runs. It is the one genotype
// layout: the HXGT sidecar (and so the dist wire) wraps it in a header,
// the HXCK snapshot embeds it per individual.
func (g *Genotype) Codec(c *binfmt.Codec) {
	binfmt.U64(c, &g.Seed)
	binfmt.Slice(c, &g.Variants, 2, MaxCodecVariants, func(v *isa.VariantID) { binfmt.U16(c, v) })
}

// Clone deep-copies the genotype.
func (g *Genotype) Clone() *Genotype {
	c := &Genotype{Variants: make([]isa.VariantID, len(g.Variants)), Seed: g.Seed}
	copy(c.Variants, g.Variants)
	return c
}

// NewRandom samples a fresh random genotype.
func NewRandom(cfg *Config, rng *rand.Rand) *Genotype {
	g := &Genotype{Variants: make([]isa.VariantID, cfg.NumInstrs), Seed: rng.Uint64()}
	total := cfg.weightTotal()
	for i := range g.Variants {
		g.Variants[i] = cfg.pick(rng, total)
	}
	return g
}

// weightTotal is the sum of cfg.Weights, left to right: pick's draws
// depend on the float it comes to, so the order is part of every
// genotype's identity.
func (cfg *Config) weightTotal() float64 {
	total := 0.0
	for _, w := range cfg.Weights {
		total += w
	}
	return total
}

// pick draws one variant: uniformly, or by weight, total being
// cfg.weightTotal().
func (cfg *Config) pick(rng *rand.Rand, total float64) isa.VariantID {
	if len(cfg.Weights) != len(cfg.Allowed) || cfg.Weights == nil {
		return cfg.Allowed[rng.IntN(len(cfg.Allowed))]
	}
	x := rng.Float64() * total
	for i, w := range cfg.Weights {
		x -= w
		if x <= 0 {
			return cfg.Allowed[i]
		}
	}
	return cfg.Allowed[len(cfg.Allowed)-1]
}

// allocatable integer registers: everything except RSP (stack) and the
// reserved memory base.
var intAllocOrder = func() []isa.Reg {
	var out []isa.Reg
	for r := isa.Reg(0); r < isa.NumGPR; r++ {
		if r == isa.RSP || r == BaseReg {
			continue
		}
		out = append(out, r)
	}
	return out
}()

// allocator implements the register-allocation policies over one
// register class.
type allocator struct {
	policy RegAllocPolicy
	order  []uint8 // register ids, least-recently-written first
	rrNext int
}

func newAllocator(policy RegAllocPolicy, regs []uint8) *allocator {
	o := make([]uint8, len(regs))
	copy(o, regs)
	return &allocator{policy: policy, order: o}
}

// src picks a source register (read).
func (a *allocator) src(rng *rand.Rand, i int) uint8 {
	switch a.policy {
	case AllocMaxDistance:
		// Oldest-written registers give the longest producer→consumer
		// distance.
		return a.order[i%len(a.order)]
	case AllocRoundRobin:
		r := a.order[a.rrNext%len(a.order)]
		a.rrNext++
		return r
	default:
		return a.order[rng.IntN(len(a.order))]
	}
}

// dst picks a destination register (write) and updates recency.
func (a *allocator) dst(rng *rand.Rand) uint8 {
	var idx int
	switch a.policy {
	case AllocMaxDistance:
		idx = 0 // least recently written: maximal overwrite distance
	case AllocRoundRobin:
		idx = a.rrNext % len(a.order)
		a.rrNext++
	default:
		idx = rng.IntN(len(a.order))
	}
	r := a.order[idx]
	copy(a.order[idx:], a.order[idx+1:])
	a.order[len(a.order)-1] = r
	return r
}

// Materialize resolves operands and initial state, producing the
// runnable program. It is deterministic in (genotype, config).
func Materialize(g *Genotype, cfg *Config) *prog.Program {
	d := drawRegion(g.Seed, cfg.regionBytes())
	return materialize(g, cfg, &d)
}

// regionBytes is the data region's size (default 32 KB).
func (cfg *Config) regionBytes() int {
	if cfg.Mem.RegionBytes <= 0 {
		return 32 * 1024
	}
	return cfg.Mem.RegionBytes
}

// regionDraw is what Materialize draws from a genotype's seed before any
// operand: the data region, and the generator's state after drawing it.
// Both depend on the seed and the region size alone.
type regionDraw struct {
	data []byte
	pcg  rand.PCG
}

func drawRegion(seed uint64, n int) regionDraw {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return regionDraw{data: randomBytes(rand.New(pcg), n), pcg: *pcg}
}

// regions is a generated program's memory layout around its data region.
func regions(data []byte) []prog.RegionSpec {
	return []prog.RegionSpec{
		{Name: "data", Base: prog.DataBase, Data: data, Writable: true},
		{Name: "stack", Base: prog.StackBase, Size: StackBytes, Writable: true},
	}
}

// materialize resolves g's operands and initial registers, drawing them
// after the region d holds.
func materialize(g *Genotype, cfg *Config, d *regionDraw) *prog.Program {
	pcg := d.pcg // d may be shared: draw from a copy
	rng := rand.New(&pcg)
	regionBytes := len(d.data)
	stride := cfg.Mem.Stride
	if stride <= 0 {
		stride = 64
	}

	p := &prog.Program{
		Name:    "museqgen",
		Insts:   make([]isa.Inst, 0, len(g.Variants)),
		Regions: regions(d.data),
	}

	intRegs := make([]uint8, len(intAllocOrder))
	for i, r := range intAllocOrder {
		intRegs[i] = uint8(r)
	}
	xmmRegs := make([]uint8, isa.NumXMM)
	for i := range xmmRegs {
		xmmRegs[i] = uint8(i)
	}
	ialloc := newAllocator(cfg.RegAlloc, intRegs)
	xalloc := newAllocator(cfg.RegAlloc, xmmRegs)

	cursor := 0
	nsrc := 0
	for _, vid := range g.Variants {
		v := isa.Lookup(vid)
		in := isa.Inst{V: vid, NOps: uint8(len(v.Ops))}
		nsrc = 0
		for i, spec := range v.Ops {
			switch spec.Kind {
			case isa.KReg:
				var r uint8
				if spec.Acc == isa.AccR {
					r = ialloc.src(rng, nsrc)
					nsrc++
				} else {
					r = ialloc.dst(rng)
				}
				in.Ops[i] = isa.RegOp(isa.Reg(r))
			case isa.KXmm:
				var r uint8
				if spec.Acc == isa.AccR {
					r = xalloc.src(rng, nsrc)
					nsrc++
				} else {
					r = xalloc.dst(rng)
				}
				in.Ops[i] = isa.XmmOp(isa.XReg(r))
			case isa.KImm:
				if v.IsBranch {
					in.Ops[i] = isa.ImmOp(0) // resolve to next instruction
					break
				}
				w := spec.Width
				if w > isa.W64 {
					w = isa.W64
				}
				sh := 64 - 8*uint(w)
				in.Ops[i] = isa.ImmOp(int64(rng.Uint64()<<sh) >> sh)
			case isa.KMem:
				align := int(spec.Width)
				if align > 16 {
					align = 16
				}
				disp := cursor &^ (align - 1)
				if disp > regionBytes-16 {
					disp = 0
				}
				in.Ops[i] = isa.MemOp(BaseReg, int32(disp))
				cursor += stride
				if cursor > regionBytes-16 {
					cursor = 0
				}
			}
		}
		p.Insts = append(p.Insts, in)
	}

	// Initial architectural state (the "wrapper" initialization).
	for r := 0; r < isa.NumGPR; r++ {
		p.InitGPR[r] = rng.Uint64()
	}
	p.InitGPR[isa.RSP] = prog.StackBase + StackBytes/2
	p.InitGPR[BaseReg] = prog.DataBase
	for x := 0; x < isa.NumXMM; x++ {
		p.InitXMM[x] = [2]uint64{randFiniteDouble(rng), randFiniteDouble(rng)}
	}
	return p
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := rng.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * uint(k)))
		}
	}
	return b
}

// randFiniteDouble returns the bits of a finite, normal double with a
// moderate exponent, so FP sequences stay numerically interesting
// instead of saturating to Inf/NaN immediately.
func randFiniteDouble(rng *rand.Rand) uint64 {
	mant := rng.Uint64() & (1<<52 - 1)
	exp := uint64(1023 - 30 + rng.IntN(61))
	sign := uint64(rng.IntN(2)) << 63
	return sign | exp<<52 | mant
}

// RegionCache keeps, per genotype seed, what Materialize draws and builds
// before it resolves any operand: the data region, the generator state
// after drawing it, and the frozen initial memory of the program's
// regions (prog.Image). Mutation keeps a genotype's seed, so the programs
// of one refinement run share few regions; through the cache each is
// drawn once, and every state of every program carrying it starts as a
// copy-on-write clone of one image. Programs come out equal to
// Materialize's, bit for bit.
//
// A cache belongs to one refinement run (or one batch of grades) and is
// safe for concurrent use. It keeps the seeds materialized in the
// current and the previous generation (Age), so seeds that crossover
// leaves behind are dropped.
type RegionCache struct {
	mu       sync.Mutex
	cur, old map[regionKey]*seedRegion
}

type regionKey struct {
	seed  uint64
	bytes int
}

// seedRegion is one seed's cached draw and image, built once.
type seedRegion struct {
	once sync.Once
	draw regionDraw
	img  *prog.Image
}

// NewRegionCache returns an empty cache.
func NewRegionCache() *RegionCache { return &RegionCache{} }

// Age starts a new generation: a seed not materialized since the
// previous Age call is dropped by this one.
func (c *RegionCache) Age() {
	c.mu.Lock()
	c.old, c.cur = c.cur, nil
	c.mu.Unlock()
}

// Materialize is gen.Materialize through the cache; the program's
// NewState clones the seed's image. A nil cache materializes cold.
func (c *RegionCache) Materialize(g *Genotype, cfg *Config) *prog.Program {
	if c == nil {
		return Materialize(g, cfg)
	}
	r := c.region(regionKey{g.Seed, cfg.regionBytes()})
	p := materialize(g, cfg, &r.draw)
	p.UseImage(r.img)
	return p
}

func (c *RegionCache) region(k regionKey) *seedRegion {
	c.mu.Lock()
	r := c.cur[k]
	if r == nil {
		if r = c.old[k]; r == nil {
			r = &seedRegion{}
		}
		if c.cur == nil {
			c.cur = make(map[regionKey]*seedRegion)
		}
		c.cur[k] = r
	}
	c.mu.Unlock()
	r.once.Do(func() {
		r.draw = drawRegion(k.seed, k.bytes)
		p := prog.Program{Regions: regions(r.draw.data)}
		r.img = p.NewImage()
	})
	return r
}
