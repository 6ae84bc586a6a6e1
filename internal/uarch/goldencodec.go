package uarch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"unsafe"

	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
	"harpocrates/internal/binfmt"
	"harpocrates/internal/gates"
	"harpocrates/internal/isa"
)

// Golden artifact bundle and its HXGA codec.
//
// A fault-injection campaign's expensive fixed cost is the instrumented
// golden run: the execution that produces the golden Result (with ACE
// interval logs), the fast-forward checkpoints and the delta trajectory
// every faulty run rides on. GoldenArtifacts packages those
// outputs as one shareable value so the inject package's golden cache
// can compute them once per (program, config) and reuse them across
// structures and shards within a process.
//
// Nothing in the program encodes a bundle any more: it is recomputed,
// never persisted (the golden disk tier cost more than the run it saved;
// EXPERIMENTS.md, "Tried and removed"), so no HXGA byte outlives a
// process and the format is not a compatibility surface. The codec (and
// ace/intervals_codec.go under it) stays for one reason only: the frozen
// benchmark/layers.go probes call EncodeGoldenArtifacts,
// DecodeGoldenArtifacts and ace.AppendIntervalRecorder. Its deletion is
// ROADMAP item 8. Its bytes moved twice since it stopped being persisted:
// the µop record lost its waitSrc byte when issue moved to wake-up lists,
// bundles gained a checkpoint when the golden run began keeping one at
// cycle 0, and again when it began keeping one every 128 cycles, whose
// trajectory points hash the cache a chunk digest at a time
// (TestGoldenBundlePinned re-pinned for exactly those). A compact
// checkpoint is encoded by restoring it into a pooled core, and decoded
// into one that is then captured.
//
// The format is one set of binfmt walker methods on gaCodec — bundle,
// result, core, uop, inst, crash — each naming its fields once and
// serving both EncodeGoldenArtifacts and DecodeGoldenArtifacts; what
// only one direction needs (the encoder's refusals, the decoder's
// config-vs-stream and index-range checks, µop variants, pool
// release) sits under an explicit Decoding() test.
//
// Serializing a Checkpoint means serializing a full Core snapshot. The
// codec walks what a copy carries: the register files, queues and
// structures Core.copyState copies one by one, and pipeState, the
// authoritative list of scalar simulator state, field by field (all but
// the execute stage's bus, which a copy rebinds). The same exclusions
// apply: runScratch (run-loop scratch, the checkpoint schedule and delta
// arming, re-derived by RestoreFrom), the wake-up lists and ready set
// that restore rebuilds, the predecode table (derived from the program:
// the decoder's init builds one per checkpoint) and per-run
// instrumentation (coverage tracking, recorders, trace sinks) are not
// state.
// ROB entries outside the live window ∪ in-flight set hold dead values
// that rename always resets before reuse, exactly as pooled-core copies
// carry them; only the live subset is serialized. The memory digest is
// not serialized either: it is content-pure, so the one the decoder's
// page writes build matches the encode side's bit for bit. A checkpoint
// carries no coverage state (Core.Checkpoint), so neither the core's IBR
// counters nor µops' buffered IBR events are encoded: a decoded value
// there would be dropped by the capture, and re-encoding would differ.

// GoldenArtifacts bundles everything a campaign derives from one golden
// instrumented run. Checkpoints are in ascending cycle order; Trajectory
// and the Result's interval recorders may be shared read-only across any
// number of concurrent faulty runs.
type GoldenArtifacts struct {
	Result      *Result
	Checkpoints []*Checkpoint
	Trajectory  *DeltaTrajectory
	// FUStream is the operand stream of the functional unit a campaign
	// targets, recorded by the inject package's golden hooks (nil for
	// every other campaign). Plain memory: the HXGA codec does not encode
	// it, and nothing needs releasing.
	FUStream *gates.Stream
}

// Release returns every pooled resource the bundle references (interval
// recorders, checkpoint cores, the trajectory) and clears the fields.
// Idempotent and nil-safe.
func (ga *GoldenArtifacts) Release() {
	if ga == nil {
		return
	}
	if ga.Result != nil {
		ace.ReleaseIntervalRecorder(ga.Result.IRFIntervals)
		ace.ReleaseIntervalRecorder(ga.Result.FPRFIntervals)
		ace.ReleaseIntervalRecorder(ga.Result.L1DIntervals)
		ga.Result.IRFIntervals = nil
		ga.Result.FPRFIntervals = nil
		ga.Result.L1DIntervals = nil
		ga.Result.L1DFlush = nil
	}
	for _, ck := range ga.Checkpoints {
		ck.Release()
	}
	ga.Checkpoints = nil
	ReleaseDeltaTrajectory(ga.Trajectory)
	ga.Trajectory = nil
	ga.FUStream = nil
}

// ApproxBytes estimates the bundle's in-memory footprint, dominated by
// the checkpoints' live ROB entries, cache chunks, guest pages and
// register files — the number the golden cache's bytes gauge reports.
// Consecutive checkpoints share the pages and cache chunks the golden run
// did not write between them, and the flush log's final memory shares
// the pages the run did not write after its last checkpoint, so each
// page and chunk is counted once, by identity.
func (ga *GoldenArtifacts) ApproxBytes() int {
	if ga == nil {
		return 0
	}
	n := 0
	if r := ga.Result; r != nil {
		n += 256
		n += r.IRFIntervals.ApproxBytes()
		n += r.FPRFIntervals.ApproxBytes()
		n += r.L1DIntervals.ApproxBytes()
	}
	if t := ga.Trajectory; t != nil {
		n += 32 * cap(t.Points)
	}
	if s := ga.FUStream; s != nil {
		// A call is 16 bytes; a pair costs its key, result, index entry
		// and share of the packed lane words, about 100 bytes.
		n += 16*cap(s.Calls) + 100*s.Table.Len()
	}
	seen := map[any]bool{}
	once := func(id any, size int) {
		if !seen[id] {
			seen[id] = true
			n += size
		}
	}
	if r := ga.Result; r != nil && r.L1DFlush != nil {
		fl := r.L1DFlush
		n += fl.approxBytes()
		for _, data := range fl.Final.Mem.(*arch.Memory).Pages() {
			once(&data[0], len(data))
		}
	}
	for _, ck := range ga.Checkpoints {
		if ck == nil || ck.ckState == nil {
			continue
		}
		n += ck.ownBytes()
		for _, data := range ck.core.mem.Pages() {
			once(&data[0], len(data))
		}
		for _, e := range ck.l1d {
			once(e, int(unsafe.Sizeof(*e))+len(e.data))
		}
		for _, e := range ck.l2 {
			once(e, int(unsafe.Sizeof(*e))+17*len(e.tag))
		}
	}
	return n
}

// ownBytes estimates what a checkpoint holds alone: its core's scalars,
// register files and queues, the predictor table, the live µops and the
// chunk and page tables.
func (ck *Checkpoint) ownBytes() int {
	cp := ck.core
	n := int(unsafe.Sizeof(*ck)) + int(unsafe.Sizeof(*cp)) + int(unsafe.Sizeof(*cp.cache))
	n += 9*len(cp.intPRF) + 17*len(cp.fpPRF) + 2*len(cp.flagPRF)
	n += 2 * (len(cp.free[clsInt]) + len(cp.free[clsFP]) + len(cp.free[clsFlag]))
	n += 8*(len(cp.iq)+len(cp.sq)+len(cp.inflight)) + int(unsafe.Sizeof(fqEntry{}))*len(cp.fq)
	n += len(cp.bp.table)
	n += (int(unsafe.Sizeof(uop{})) + 4) * len(ck.rob)
	n += 8 * (len(ck.l1d) + len(ck.l2))
	for range cp.mem.Pages() {
		n += 24 // the page-table entry
	}
	return n
}

// HXGA container framing.
const (
	goldenMagic   uint32 = 0x41475848 // "HXGA" little-endian
	goldenVersion uint32 = 2

	// maxGoldenElems is the format's ceiling on any decoded length
	// (checkpoints, regions, byte strings, queue lengths); binfmt.Len
	// further refuses whatever the remaining input cannot back.
	maxGoldenElems = 1 << 28
)

// scrubGoldenConfig clears the per-run instrumentation flags from a
// checkpoint core's config before it travels: a restored core never
// carries recorders (copyState sets them nil), so the decode-side init must
// not draw them.
func scrubGoldenConfig(cfg Config) Config {
	cfg.TrackIRF = false
	cfg.TrackL1D = false
	cfg.TrackFPRF = false
	cfg.TrackIBR = false
	cfg.RecordIRFIntervals = false
	cfg.RecordFPRFIntervals = false
	cfg.RecordL1DIntervals = false
	return cfg
}

// memPage is one present page of a checkpoint's memory image on the wire.
type memPage struct {
	addr uint64
	data []byte
}

// gaCodec is the HXGA walker: a binfmt cursor plus the format's shared
// sub-walkers.
type gaCodec struct{ *binfmt.Codec }

// present moves a presence byte for an optional section and reports
// whether the section follows.
func (g gaCodec) present(has bool) bool {
	g.Bool(&has)
	return has
}

// sized moves the length of a section whose size the core's config
// fixes; a decoded length that disagrees with the config is refused.
func (g gaCodec) sized(what string, n int) {
	if got := g.Len(n, 0, maxGoldenElems); g.Decoding() && g.Err() == nil && got != n {
		g.Fail("%s size %d does not match config %d", what, got, n)
	}
}

func (g gaCodec) u16s(s *[]uint16) {
	binfmt.Slice(g.Codec, s, 2, maxGoldenElems, func(p *uint16) { binfmt.U16(g.Codec, p) })
}

func (g gaCodec) inst(in *isa.Inst) {
	c := g.Codec
	if binfmt.U16(c, &in.V); g.Decoding() && int(in.V) >= isa.NumVariants() {
		g.Fail("instruction of variant %d outside the ISA table", in.V)
	}
	binfmt.U8(c, &in.NOps)
	for i := range in.Ops {
		op := &in.Ops[i]
		binfmt.U8(c, &op.Kind)
		binfmt.U8(c, &op.Reg)
		binfmt.U8(c, &op.X)
		binfmt.I64(c, &op.Imm)
		binfmt.U8(c, &op.Mem.Base)
		g.Bool(&op.Mem.HasIndex)
		binfmt.U8(c, &op.Mem.Index)
		binfmt.U8(c, &op.Mem.Scale)
		binfmt.U32(c, &op.Mem.Disp)
	}
}

// crash walks a crash held by pointer (nil for none) as crashValue does.
func (g gaCodec) crash(pp **arch.CrashError) {
	var e arch.CrashError
	if *pp != nil {
		e = **pp
	}
	if g.crashValue(&e); g.Decoding() && e.Kind != arch.CrashNone {
		*pp = &e
	}
}

// crashValue walks a crash held by value (zero when decoding): a
// presence byte, then, if its kind is not none, its fields. A present
// crash of kind none would re-encode as absent, so it is refused.
func (g gaCodec) crashValue(e *arch.CrashError) {
	if c := g.Codec; g.present(e.Kind != arch.CrashNone) {
		binfmt.U8(c, &e.Kind)
		binfmt.U64(c, &e.Addr)
		binfmt.I64(c, &e.PC)
		binfmt.U8(c, &e.Exc)
		if g.Decoding() && g.Err() == nil && e.Kind == arch.CrashNone {
			g.Fail("crash of kind %v", e.Kind)
		}
	}
}

func (g gaCodec) rat(r *ratSnapshot) {
	for i := range r {
		binfmt.U16(g.Codec, &r[i])
	}
}

func (g gaCodec) recorder(rp **ace.IntervalRecorder) {
	if g.present(*rp != nil) {
		ace.IntervalRecorderCodec(g.Codec, rp)
	}
}

func (g gaCodec) result(r *Result) {
	c := g.Codec
	binfmt.U64(c, &r.Cycles)
	binfmt.U64(c, &r.Instructions)
	g.F64(&r.IRFVuln)
	g.F64(&r.L1DVuln)
	g.F64(&r.FPRFVuln)
	for s := range r.IBR {
		g.F64(&r.IBR[s])
		binfmt.U64(c, &r.UnitUses[s])
	}
	g.crash(&r.Crash)
	binfmt.U8(c, &r.Trap)
	g.Bool(&r.TimedOut)
	binfmt.U64(c, &r.Signature)
	g.Bool(&r.Reconverged)
	for _, f := range []*uint64{&r.Branches, &r.Mispredicts, &r.Flushes, &r.CacheHits,
		&r.CacheMisses, &r.Writebacks, &r.L2Hits, &r.L2Misses, &r.Prefetches} {
		binfmt.U64(c, f)
	}
	g.recorder(&r.IRFIntervals)
	g.recorder(&r.FPRFIntervals)
	g.recorder(&r.L1DIntervals)
}

// uop walks one ROB entry of cp.
func (g gaCodec) uop(cp *Core, u *uop) {
	c := g.Codec
	if g.Decoding() {
		*u = uop{}
	}
	binfmt.U64(c, &u.seq)
	binfmt.I64(c, &u.pc)
	binfmt.U8(c, &u.st)
	for _, f := range []*bool{&u.isLoad, &u.isStore, &u.poison, &u.mutated, &u.bad, &u.snapValid, &u.squashed} {
		g.Bool(f)
	}
	binfmt.U64(c, &u.doneAt)
	binfmt.I64(c, &u.memLat)
	binfmt.I64(c, &u.predNext)
	binfmt.I64(c, &u.actualNext)
	uopList(c, u.srcs[:], &u.nSrcs, 6, func(s *rsrc) {
		binfmt.U8(c, &s.cls)
		binfmt.U8(c, &s.arch)
		binfmt.U16(c, &s.bits)
		binfmt.U16(c, &s.phys)
	})
	uopList(c, u.dsts[:], &u.nDsts, 6, func(d *rdst) {
		binfmt.U8(c, &d.cls)
		binfmt.U8(c, &d.arch)
		binfmt.U16(c, &d.phys)
		binfmt.U16(c, &d.old)
	})
	if u.snapValid {
		g.rat(&u.snap)
	}
	g.crashValue(&u.err)
	uopList(c, u.writes[:], &u.nWrites, 17, func(w *storeWrite) {
		binfmt.U64(c, &w.addr)
		binfmt.U64(c, &w.data)
		binfmt.U8(c, &w.size)
	})
	// The variant is not serialized: decoding sets it from the instruction
	// the µop executes (Core.instOf; decInst is walked before the ROB).
	// Poison and undecodable µops keep the zero variant.
	if !g.Decoding() || u.poison || u.bad {
		return
	}
	if !u.mutated && (u.pc < 0 || u.pc >= len(cp.prog)) {
		g.Fail("µop pc %d outside program of %d instructions", u.pc, len(cp.prog))
		return
	}
	u.vid = cp.instOf(u).V
}

// uopList walks a µop's list, a's first *n elements, as binfmt.Slice
// walks a slice; a decoded count past the bound len(a) is refused.
func uopList[T any](c *binfmt.Codec, a []T, n *uint8, elemSize int, elem func(*T)) {
	*n = uint8(c.Len(int(*n), elemSize, len(a)))
	for i := range a[:*n] {
		elem(&a[i])
	}
}

// core walks one checkpoint core — the dynamic-state inventory of
// Core.copyState in stable binary form. Encoding reads cp. Decoding takes
// a nil cp: once the memory image is in, a fresh pooled core is
// initialized from it and the scrubbed config, every dynamic field is
// patched from the stream, and the core is returned — or released and
// nil when the stream is bad.
func (g gaCodec) core(cp *Core, prog []isa.Inst, cfg Config) *Core {
	c := g.Codec
	dec := g.Decoding()
	if !dec && (cp.recIRF != nil || cp.recFPRF != nil || cp.cache.rec != nil) {
		g.Fail("cannot serialize a core with ACE instrumentation attached")
		return cp
	}

	// Architectural memory image: the region descriptors, then the pages
	// that were ever written. Everything else reads as zero on both sides.
	var regions []arch.Region
	var pages []memPage
	mem := arch.NewMemory()
	if !dec {
		mem = cp.mem
		regions = mem.Regions()
		for addr, data := range mem.Pages() {
			pages = append(pages, memPage{addr, data})
		}
	}
	binfmt.Slice(c, &regions, 21, maxGoldenElems, func(r *arch.Region) {
		g.String(&r.Name, maxGoldenElems)
		binfmt.U64(c, &r.Base)
		binfmt.U64(c, &r.Size)
		g.Bool(&r.Writable)
		if dec && g.Err() == nil {
			if err := mem.AddRegion(*r); err != nil {
				g.Fail("region %q: %v", r.Name, err)
			}
		}
	})
	binfmt.Slice(c, &pages, 13, maxGoldenElems, func(p *memPage) {
		binfmt.U64(c, &p.addr)
		g.Bytes(&p.data, arch.PageSize)
		if dec && g.Err() == nil {
			if err := mem.WriteBytes(p.addr, p.data); err != nil {
				g.Fail("page at %#x: %v", p.addr, err)
			}
		}
	})
	if dec {
		// Only the encoder's own page list is accepted: the memory's present
		// pages — whole, each once, in order.
		i := 0
		for addr, data := range mem.Pages() {
			if i < len(pages) && (pages[i].addr != addr || len(pages[i].data) != len(data)) {
				i = len(pages) // a mismatch: overshoot, so the count below fails too
			}
			i++
		}
		if i != len(pages) {
			g.Fail("page list is not the memory's whole pages, each once, in order")
		}
		if g.Err() != nil {
			return nil
		}
		// The checkpoint gets a clone: one that owns no page, so restores
		// only read it (arch.Memory's ownership rule).
		cp = getPooledCore()
		cp.init(Compile(prog), arch.NewState(mem.Clone()), cfg)
	}

	// Scratch architectural execution state (nondet stream position).
	st := &cp.execState
	for i := range st.GPR {
		binfmt.U64(c, &st.GPR[i])
	}
	for i := range st.XMM {
		binfmt.U64(c, &st.XMM[i][0])
		binfmt.U64(c, &st.XMM[i][1])
	}
	binfmt.U8(c, &st.Flags)
	binfmt.I64(c, &st.PC)
	binfmt.U64(c, &st.NondetSalt)
	nondet := st.NondetCounter()
	binfmt.U64(c, &nondet)
	binfmt.U64(c, &st.InstRet)
	if dec {
		st.RestoreNondetCounter(nondet)
		st.Mem = nil
		st.FU = nil
	}

	binfmt.U64(c, &cp.cycle)
	binfmt.U64(c, &cp.seq)
	binfmt.U64(c, &cp.instret)

	// Front end.
	binfmt.I64(c, &cp.fetchPC)
	binfmt.U64(c, &cp.fetchStallUntil)
	binfmt.Slice(c, &cp.fq, 19, maxGoldenElems, func(f *fqEntry) {
		binfmt.I64(c, &f.pc)
		binfmt.I64(c, &f.predNext)
		g.Bool(&f.poison)
		g.Bool(&f.mutated)
		g.Bool(&f.bad)
	})
	g.Bool(&cp.decArmed)
	binfmt.I64(c, &cp.decBit)
	g.inst(&cp.decInst)

	// Rename map.
	g.rat(&cp.rat)

	// Physical register files, ready bits and free lists.
	g.sized("int PRF", len(cp.intPRF))
	for i := range cp.intPRF {
		binfmt.U64(c, &cp.intPRF[i])
		g.Bool(&cp.ready[clsInt][i])
	}
	g.u16s(&cp.free[clsInt])
	g.sized("fp PRF", len(cp.fpPRF))
	for i := range cp.fpPRF {
		binfmt.U64(c, &cp.fpPRF[i][0])
		binfmt.U64(c, &cp.fpPRF[i][1])
		g.Bool(&cp.ready[clsFP][i])
	}
	g.u16s(&cp.free[clsFP])
	g.sized("flag PRF", len(cp.flagPRF))
	for i := range cp.flagPRF {
		binfmt.U8(c, &cp.flagPRF[i])
		g.Bool(&cp.ready[clsFlag][i])
	}
	g.u16s(&cp.free[clsFlag])

	// ROB: geometry, then the entries that carry state (Core.liveSlots),
	// sorted by slot for a deterministic byte stream.
	g.sized("ROB", len(cp.rob))
	binfmt.U32(c, &cp.robHead)
	binfmt.U32(c, &cp.robCnt)
	if dec && g.Err() == nil && (cp.robHead >= len(cp.rob) || cp.robCnt > len(cp.rob)) {
		g.Fail("ROB window [%d,%d) out of range", cp.robHead, cp.robCnt)
	}
	var idxs []int32
	if !dec {
		idxs = cp.liveSlots(nil)
		slices.Sort(idxs)
	}
	// 73 bytes is the smallest µop: index, fixed fields, three empty
	// lists and an absent crash.
	binfmt.Slice(c, &idxs, 73, maxGoldenElems, func(ip *int32) {
		binfmt.U32(c, ip)
		if g.Err() != nil {
			return
		}
		if *ip < 0 || int(*ip) >= len(cp.rob) {
			g.Fail("µop index %d out of range", *ip)
			return
		}
		g.uop(cp, &cp.rob[*ip])
	})

	// Scheduler queues (ROB indices).
	for _, q := range []*[]int{&cp.iq, &cp.sq, &cp.inflight} {
		binfmt.Slice(c, q, 8, maxGoldenElems, func(ip *int) {
			binfmt.I64(c, ip)
			if dec && g.Err() == nil && (*ip < 0 || *ip >= len(cp.rob)) {
				g.Fail("queue index %d out of range", *ip)
			}
		})
	}

	// A live entry the stream did not carry would keep whatever the
	// pooled core last held there.
	if dec && g.Err() == nil {
		live := cp.liveSlots(nil)
		slices.Sort(live)
		if !slices.Equal(idxs, live) {
			g.Fail("µops %v are not the live ROB window ∪ in-flight set", idxs)
		}
	}

	// Branch predictor.
	binfmt.U64(c, &cp.bp.history)
	g.sized("gshare table", len(cp.bp.table))
	g.Raw(cp.bp.table)

	// L1D lines, flat SRAM and stats.
	binfmt.U64(c, &cp.cache.hits)
	binfmt.U64(c, &cp.cache.misses)
	binfmt.U64(c, &cp.cache.writebacks)
	g.sized("L1D line count", len(cp.cache.lines))
	for i := range cp.cache.lines {
		l := &cp.cache.lines[i]
		g.Bool(&l.valid)
		g.Bool(&l.dirty)
		binfmt.U64(c, &l.tag)
		binfmt.U64(c, &l.lastUse)
	}
	g.sized("L1D SRAM", len(cp.cache.data))
	g.Raw(cp.cache.data)

	// L2 tag array.
	l2 := cp.cache.l2
	if g.present(l2 != nil) != (l2 != nil) { // can only differ when decoding
		g.Fail("L2 presence does not match config")
	}
	if l2 != nil {
		binfmt.U64(c, &l2.hits)
		binfmt.U64(c, &l2.misses)
		binfmt.U64(c, &l2.prefetches)
		g.sized("L2 tag count", len(l2.tag))
		for i := range l2.tag {
			g.Bool(&l2.valid[i])
			// An invalid line's tag and last use are dead until fill
			// rewrites them (initL2Tags only invalidates): zero on the
			// wire, whatever the pooled array holds.
			tag, lastUse := l2.tag[i], l2.lastUse[i]
			if !l2.valid[i] {
				tag, lastUse = 0, 0
			}
			binfmt.U64(c, &tag)
			binfmt.U64(c, &lastUse)
			if dec {
				if !l2.valid[i] && tag|lastUse != 0 {
					g.Fail("invalid L2 line carries a tag")
				}
				l2.tag[i], l2.lastUse[i] = tag, lastUse
			}
		}
	}

	// Counters and scratch that binds future behaviour.
	binfmt.U64(c, &cp.branches)
	binfmt.U64(c, &cp.mispredicts)
	binfmt.U64(c, &cp.flushes)
	binfmt.I64(c, &cp.nLoads)
	binfmt.I64(c, &cp.nStores)
	binfmt.U64(c, &cp.divBusyUntil[0])
	binfmt.U64(c, &cp.divBusyUntil[1])
	binfmt.U64(c, &cp.streamDigest)
	g.crash(&cp.crash)
	g.Bool(&cp.timedOut)
	g.Bool(&cp.finished)
	if dec && g.Err() != nil {
		putPooledCore(cp)
		return nil
	}
	return cp
}

// bundle walks the whole HXGA container. prog is only read when decoding.
func (g gaCodec) bundle(ga *GoldenArtifacts, prog []isa.Inst) {
	c := g.Codec
	dec := g.Decoding()
	g.Header(goldenMagic, goldenVersion)

	// The checkpoint cores' scalar configuration, once for the bundle
	// (every checkpoint of one golden run shares it; hook fields carry
	// json:"-" and drop out, exactly as on the dist wire). The
	// instrumentation flags are scrubbed: a restored core never carries
	// coverage state or recorders, so the decode-side init must not draw them —
	// and scrubbing here (not just at decode) makes re-encoding a decoded
	// bundle byte-identical.
	var cfg Config
	var cfgJSON []byte
	if !dec {
		for _, ck := range ga.Checkpoints {
			if ck == nil || ck.ckState == nil {
				g.Fail("given a released checkpoint")
				return
			}
		}
		if len(ga.Checkpoints) > 0 {
			var err error
			if cfgJSON, err = json.Marshal(scrubGoldenConfig(ga.Checkpoints[0].core.cfg)); err != nil {
				g.Fail("config: %w", err)
			}
		}
	}
	g.Bytes(&cfgJSON, maxGoldenElems)
	if dec && len(cfgJSON) > 0 {
		if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
			g.Fail("config: %w", err)
		}
		cfg = scrubGoldenConfig(cfg) // belt-and-braces; the encoder scrubbed already
		// Only the encoder's own bytes are accepted (no unknown fields, no
		// set instrumentation flags), so decode→encode is the identity.
		if canon, _ := json.Marshal(cfg); !bytes.Equal(canon, cfgJSON) {
			g.Fail("config blob is not in canonical form")
		}
	}

	if dec {
		ga.Result = &Result{}
	}
	g.result(ga.Result)

	if g.present(ga.Trajectory != nil) {
		var interval uint64
		if !dec {
			interval = ga.Trajectory.Interval
		}
		binfmt.U64(c, &interval)
		if dec {
			if g.Err() != nil {
				return
			}
			ga.Trajectory = GetDeltaTrajectory(interval)
			ga.Trajectory.Interval = interval // preserve 0 exactly as recorded (Get defaults it)
		}
		binfmt.Slice(c, &ga.Trajectory.Points, 32, maxGoldenElems, func(p *DeltaPoint) {
			binfmt.U64(c, &p.Cycle)
			binfmt.U64(c, &p.Instret)
			binfmt.U64(c, &p.Stream)
			binfmt.U64(c, &p.State)
		})
	}

	// Checkpoints join the bundle one by one as they decode, so a failure
	// part-way leaves exactly the acquired ones for Release.
	n := g.Len(len(ga.Checkpoints), 8, maxGoldenElems)
	if dec && (n == 0) != (len(cfgJSON) == 0) {
		g.Fail("%d checkpoints with a %d-byte config blob", n, len(cfgJSON))
	}
	for i := 0; i < n && g.Err() == nil; i++ {
		var cycle uint64
		var cp *Core
		if !dec {
			// The walker reads whole cores: encoding restores the checkpoint
			// into a pooled one. A restore only reads the checkpoint, so
			// faulty runs may be restoring from it meanwhile.
			cycle = ga.Checkpoints[i].cycle
			cp = getPooledCore()
			cp.restore(ga.Checkpoints[i])
		}
		binfmt.U64(c, &cycle)
		if cp = g.core(cp, prog, cfg); cp == nil {
			break // a failed decode released its core
		}
		if dec && g.Err() == nil {
			ck := cp.Checkpoint()
			ck.cycle = cycle
			ga.Checkpoints = append(ga.Checkpoints, ck)
		}
		putPooledCore(cp)
	}
	g.End()
}

// EncodeGoldenArtifacts serializes a bundle into its HXGA bytes.
func EncodeGoldenArtifacts(ga *GoldenArtifacts) ([]byte, error) {
	if ga == nil || ga.Result == nil {
		return nil, fmt.Errorf("uarch: golden codec needs a result")
	}
	g := gaCodec{binfmt.NewEncoder(make([]byte, 0, 1<<16))}
	if g.bundle(ga, nil); g.Err() != nil {
		return nil, fmt.Errorf("uarch: golden codec: %w", g.Err())
	}
	return g.Encoded(), nil
}

// DecodeGoldenArtifacts parses HXGA bytes back into a bundle. The
// program must be the exact instruction slice the bundle was computed
// for (the cache key guarantees this) — a µop's variant is read from it
// (a mutated µop's from the decoded decInst). On error every pooled
// resource acquired during the partial decode is released.
func DecodeGoldenArtifacts(data []byte, prog []isa.Inst) (*GoldenArtifacts, error) {
	g := gaCodec{binfmt.NewDecoder(data)}
	ga := &GoldenArtifacts{}
	if g.bundle(ga, prog); g.Err() != nil {
		ga.Release()
		return nil, fmt.Errorf("uarch: golden codec: %w", g.Err())
	}
	return ga, nil
}
