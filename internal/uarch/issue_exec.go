package uarch

import (
	"math/bits"
	"slices"

	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
)

// --- issue + execute ----------------------------------------------------

// unitCapacity returns how many operations of a unit class can issue per
// cycle.
func (c *Core) unitCapacity(u isa.Unit) int {
	switch u {
	case isa.UIntALU, isa.UNone:
		return c.cfg.NumIntALU
	case isa.UIntMul:
		return c.cfg.NumIntMul
	case isa.UIntDiv:
		return c.cfg.NumIntDiv
	case isa.UFPAdd:
		return c.cfg.NumFPAdd
	case isa.UFPMul:
		return c.cfg.NumFPMul
	case isa.UFPDiv:
		return c.cfg.NumFPDiv
	case isa.UBranch:
		return c.cfg.NumBranch
	case isa.UVecALU:
		return c.cfg.NumVecALU
	}
	return 1
}

// --- wake-up ----------------------------------------------------------------
//
// A waiting µop is never re-tested: rename counts its unready sources
// (u.pending) and hangs one waiter node per such source on that physical
// register's list; writeback, the one place a ready bit is set, walks the
// list and moves each waiter whose count reaches zero into the ready set.
// A source's readiness is monotonic while a consumer waits (the register
// it reads cannot be reallocated before the consumer issues or is
// squashed), so the count is exact. Squash does not unlink its waiters:
// a node names its µop by ROB slot and sequence number and is ignored
// once that slot holds another µop, or the same one squashed or issued.
//
// The ready set is two bitmaps over ROB slots, loads apart from the rest,
// so that issue applies the older-unexecuted-store rule as one mask. Age
// order is circular slot order from robHead. All of it is derived from
// the IQ and the ready bits: restore and init rebuild it, stateHash and
// checkpoints never see it.

// wkNode is one waiter on a register's wake-up list.
type wkNode struct {
	seq  uint64 // the waiting µop's sequence number
	idx  int32  // its ROB slot
	next int32  // next node of the list (or of the free chain), -1 at the end
}

// wkReg numbers a physical register across the three files: integer,
// then FP, then flags.
func (c *Core) wkReg(cls uint8, phys uint16) int {
	switch cls {
	case clsFP:
		return len(c.ready[clsInt]) + int(phys)
	case clsFlag:
		return len(c.ready[clsInt]) + len(c.ready[clsFP]) + int(phys)
	}
	return int(phys)
}

// readySet returns the bitmap that holds the µop at ROB slot idx.
func (c *Core) readySet(idx int) []uint64 {
	if c.rob[idx].isLoad {
		return c.rdyLoad
	}
	return c.rdyOther
}

// watch enters the freshly renamed µop at ROB slot idx into the
// scheduler: on the wake-up list of each unready source, or straight into
// the ready set when there is none.
func (c *Core) watch(idx int) {
	u := &c.rob[idx]
	u.pending = 0
	for _, s := range u.sources() {
		if c.ready[s.cls][s.phys] {
			continue
		}
		u.pending++
		r := c.wkReg(s.cls, s.phys)
		n := c.wkFree
		if n < 0 {
			n = int32(len(c.wkNodes))
			c.wkNodes = append(c.wkNodes, wkNode{})
		} else {
			c.wkFree = c.wkNodes[n].next
		}
		c.wkNodes[n] = wkNode{seq: u.seq, idx: int32(idx), next: c.wkHead[r]}
		c.wkHead[r] = n
	}
	if u.pending == 0 {
		c.readySet(idx)[idx>>6] |= 1 << (idx & 63)
	}
}

// wake empties register r's wake-up list as its value is written back,
// moving every live waiter whose last source this was into the ready
// set.
func (c *Core) wake(r int) {
	head := c.wkHead[r]
	if head < 0 {
		return
	}
	c.wkHead[r] = -1
	n := head
	for {
		w := &c.wkNodes[n]
		if u := &c.rob[w.idx]; u.seq == w.seq && !u.squashed && u.st == uWaiting {
			if u.pending--; u.pending == 0 {
				idx := int(w.idx)
				c.readySet(idx)[idx>>6] |= 1 << (idx & 63)
			}
		}
		if w.next < 0 {
			w.next = c.wkFree
			c.wkFree = head
			return
		}
		n = w.next
	}
}

// dropWaiters frees register r's list as rename reallocates r; only
// squashed µops can still be on it.
func (c *Core) dropWaiters(r int) {
	head := c.wkHead[r]
	if head < 0 {
		return
	}
	c.wkHead[r] = -1
	n := head
	for c.wkNodes[n].next >= 0 {
		n = c.wkNodes[n].next
	}
	c.wkNodes[n].next = c.wkFree
	c.wkFree = head
}

// rebuildWakeup derives the wake-up lists and the ready set from the IQ
// and the ready bits (init, and every copy: a checkpoint carries none of
// it).
func (c *Core) rebuildWakeup() {
	c.wkHead = grow(c.wkHead, len(c.ready[clsInt])+len(c.ready[clsFP])+len(c.ready[clsFlag]))
	for i := range c.wkHead {
		c.wkHead[i] = -1
	}
	if c.wkNodes == nil {
		// Room for two waiting sources per IQ entry: a fresh core
		// allocates its nodes once.
		c.wkNodes = make([]wkNode, 0, 2*c.cfg.IQSize)
	}
	c.wkNodes = c.wkNodes[:0]
	c.wkFree = -1
	words := (len(c.rob) + 63) / 64
	c.rdyOther = grow(c.rdyOther, words)
	clear(c.rdyOther)
	c.rdyLoad = grow(c.rdyLoad, words)
	clear(c.rdyLoad)
	for _, idx := range c.iq {
		c.watch(idx)
	}
}

// computeOldestUnexecStore returns the ROB slot of the oldest store that
// has not executed (-1 if none).
func (c *Core) computeOldestUnexecStore() int {
	for _, si := range c.sq {
		su := &c.rob[si]
		if !su.squashed && su.st == uWaiting {
			return si
		}
	}
	return -1
}

// issue walks the ready set in age order and issues what the structural
// limits admit: issue width, unit capacity, memory ports and the busy
// dividers. Loads younger than the oldest unexecuted store never reach the
// walk; the store's own slot stays in, since a read-modify-write µop is
// that store and a load at once.
func (c *Core) issue() {
	var unitUsed [isa.NumUnits]int
	memPortsUsed := 0
	n := len(c.rob)
	head, end := c.robHead, c.robHead+c.robCnt // positions, unwrapped
	ldEnd := end
	if st := c.computeOldestUnexecStore(); st >= 0 {
		ldEnd = head + (st-head+n)%n + 1
	}
	var done [64]int // issued slots, in age order; Config.Validate bounds IssueWidth by 64
	width := min(c.cfg.IssueWidth, len(done))
	issued := 0
	for p := head; p < end && issued < width; {
		s := p
		if s >= n {
			s -= n
		}
		w, b := s>>6, s&63
		span := min(64-b, n-s, end-p)
		m := ^uint64(0) >> (64 - span) << b
		lm := uint64(0)
		if ld := min(span, ldEnd-p); ld > 0 {
			lm = ^uint64(0) >> (64 - ld) << b
		}
		for cand := (c.rdyOther[w] | c.rdyLoad[w]&lm) & m; cand != 0 && issued < width; cand &= cand - 1 {
			idx := w<<6 | bits.TrailingZeros64(cand)
			u := &c.rob[idx]
			unit := u.variant().Unit
			needMem := u.isLoad || u.isStore
			if unitUsed[unit] >= c.unitCapacity(unit) ||
				(needMem && memPortsUsed >= c.cfg.NumMemPort) ||
				(unit == isa.UIntDiv && c.divBusyUntil[0] > c.cycle) ||
				(unit == isa.UFPDiv && c.divBusyUntil[1] > c.cycle) {
				continue
			}
			unitUsed[unit]++
			if needMem {
				memPortsUsed++
			}
			c.readySet(idx)[w] &^= 1 << (idx & 63)
			c.execUop(idx)
			done[issued] = idx
			issued++
		}
		p += span
	}
	if issued == 0 {
		return
	}
	// Drop the issued µops from the IQ: both lists are in age order, and
	// the issued ones are mostly near its head.
	w, r := 0, 0
	for _, idx := range done[:issued] {
		j := r + slices.Index(c.iq[r:], idx)
		w += copy(c.iq[w:], c.iq[r:j])
		r = j + 1
	}
	w += copy(c.iq[w:], c.iq[r:])
	c.iq = c.iq[:w]
}

// activeFU returns the functional-unit hook set in force at the current
// cycle: cfg.FU inside the fault window, cfg.FUOutside elsewhere. A zero
// window means cfg.FU is always active.
func (c *Core) activeFU() *arch.FUHooks {
	if c.cfg.FUWindow[0] == 0 && c.cfg.FUWindow[1] == 0 {
		return c.cfg.FU
	}
	if c.cycle >= c.cfg.FUWindow[0] && c.cycle < c.cfg.FUWindow[1] {
		return c.cfg.FU
	}
	return c.cfg.FUOutside
}

func (c *Core) execUop(idx int) {
	u := &c.rob[idx]
	ms := &c.execState
	c.bus.u = u
	ms.Mem = &c.bus
	ms.PC = u.pc
	ms.Flags = 0
	if c.cfg.DebugScrub {
		for i := range ms.GPR {
			ms.GPR[i] = 0xdead4dead4dead
		}
		for i := range ms.XMM {
			ms.XMM[i] = [2]uint64{0xdead, 0xdead}
		}
	}
	for _, s := range u.sources() {
		switch s.cls {
		case clsInt:
			ms.GPR[s.arch] = c.intPRF[s.phys]
			if c.recIRF != nil {
				// Width-limited is sound: the executor masks operands to
				// the declared read width, so higher bits cannot reach
				// architectural state through this read.
				width := min(int(s.bits), 64)
				if c.cfg.ACEIgnoreWidths {
					width = 64
				}
				c.recIRF.ReadRange(int(s.phys)*64, width, c.cycle)
			}
		case clsFP:
			ms.XMM[s.arch] = c.fpPRF[s.phys]
			if c.recFPRF != nil {
				c.recFPRF.ReadRange(2*int(s.phys)*64, min(int(s.bits), 128), c.cycle)
			}
		case clsFlag:
			ms.Flags = c.flagPRF[s.phys]
		}
	}
	if c.cfg.TrackIBR && !u.poison && !u.bad {
		c.captureIBR(u, ms)
	}
	ms.FU = c.activeFU()
	u.memLat = 0

	switch {
	case u.poison:
		u.err = arch.CrashError{Kind: arch.CrashBadBranch, PC: u.pc}
	case u.bad:
		// The fetched bytes did not decode: architecturally a #UD trap.
		u.err = arch.CrashError{Kind: arch.CrashInvalidOpcode, PC: u.pc, Exc: isa.ExcInvalidOpcode}
	default:
		// A mutated µop executes the core's decoder-corrupted instruction
		// with the original PC's control-flow context.
		if err := ms.StepInst(c.prog, c.instOf(u)); err != nil {
			u.err = *err
		}
	}
	if u.crashed() {
		u.actualNext = u.pc + 1
	} else {
		u.actualNext = ms.PC
		for _, d := range u.dests() {
			switch d.cls {
			case clsInt:
				c.intPRF[d.phys] = ms.GPR[d.arch]
				if c.recIRF != nil {
					c.recIRF.WriteRange(int(d.phys)*64, 64, c.cycle)
				}
			case clsFP:
				c.fpPRF[d.phys] = ms.XMM[d.arch]
				if c.recFPRF != nil {
					c.recFPRF.WriteRange(2*int(d.phys)*64, 128, c.cycle)
				}
			case clsFlag:
				c.flagPRF[d.phys] = ms.Flags
			}
		}
	}
	v := u.variant()
	lat := v.Latency + u.memLat
	if lat < 1 {
		lat = 1
	}
	u.st = uIssued
	u.doneAt = c.cycle + uint64(lat)
	if v.Unit == isa.UIntDiv {
		c.divBusyUntil[0] = u.doneAt
	}
	if v.Unit == isa.UFPDiv {
		c.divBusyUntil[1] = u.doneAt
	}
	if u.doneAt < c.wbReadyAt {
		c.wbReadyAt = u.doneAt
	}
	c.progressed = true
	c.inflight = append(c.inflight, idx)
}

// captureIBR records the effective input bits fed to the functional unit
// this operation exercises (paper §II-D footnote 5). Memory operands are
// approximated at full operation width.
func (c *Core) captureIBR(u *uop, ms *arch.State) {
	v := u.variant()
	st, ok := coverage.FUOf(v)
	if !ok {
		return
	}
	in := c.instOf(u)
	intOp := func(i int) uint64 {
		op := &in.Ops[i]
		switch op.Kind {
		case isa.KReg:
			return ms.GPR[op.Reg] & v.Width.Mask()
		case isa.KImm:
			return uint64(op.Imm) & v.Width.Mask()
		default:
			return v.Width.Mask()
		}
	}
	xmmLane := func(i, lane int) uint64 {
		op := &in.Ops[i]
		if op.Kind == isa.KXmm {
			return ms.XMM[op.X][lane]
		}
		return ^uint64(0)
	}
	add := func(a, b uint64) {
		u.ibr[u.nIBR] = ibrEvent{unit: uint8(st), a: a, b: b}
		u.nIBR++
	}
	switch st {
	case coverage.IntAdder:
		switch v.Op {
		case isa.OpINC, isa.OpDEC:
			add(intOp(0), 1)
		case isa.OpNEG:
			add(0, intOp(0))
		case isa.OpCMPXCHG:
			add(ms.GPR[isa.RAX]&v.Width.Mask(), intOp(0))
		default:
			add(intOp(0), intOp(1))
		}
	case coverage.IntMul:
		switch v.Op {
		case isa.OpMUL, isa.OpIMUL:
			add(ms.GPR[isa.RAX]&v.Width.Mask(), intOp(0))
		case isa.OpIMULRR:
			add(intOp(0), intOp(1))
		case isa.OpIMULRRI:
			add(intOp(1), uint64(in.Ops[2].Imm)&v.Width.Mask())
		}
	case coverage.FPAdd, coverage.FPMul:
		switch v.Width {
		case isa.W128:
			add(xmmLane(0, 0), xmmLane(1, 0))
			add(xmmLane(0, 1), xmmLane(1, 1))
		case isa.W32:
			add(xmmLane(0, 0)&0xffffffff, xmmLane(1, 0)&0xffffffff)
		default:
			add(xmmLane(0, 0), xmmLane(1, 0))
		}
	}
}

// --- rename ---------------------------------------------------------------

func (c *Core) rename() {
	// The renamed prefix leaves the fetch queue in one compaction:
	// popping by reslicing would shrink its capacity from the front and
	// make fetch's append reallocate.
	k := 0
	for k < c.cfg.RenameWidth && k < len(c.fq) && c.renameOne(c.fq[k]) {
		c.progressed = true
		k++
	}
	if k > 0 {
		c.fq = c.fq[:copy(c.fq, c.fq[k:])]
	}
}

func (c *Core) renameOne(f fqEntry) bool {
	if c.robCnt == len(c.rob) || len(c.iq) >= c.cfg.IQSize {
		return false
	}
	var e predecoded
	var srcs, dsts []archRef
	switch {
	case f.poison, f.bad:
		// Poison and bad-decode entries carry no decodable instruction;
		// they occupy a slot and raise their error at execute.
		e.v = isa.Lookup(0)
	case f.mutated:
		// The decoder-corrupted instruction is in no table: derive it here
		// (a decoder fault corrupts one fetch per run).
		v := isa.Lookup(c.decInst.V)
		srcs, dsts = collectRefs(&c.decInst, v, nil, nil)
		e = summarize(v, srcs, dsts)
	default:
		e = c.pre.ops[f.pc]
		srcs, dsts = c.pre.operands(&e)
	}
	// Resource checks.
	for cls, n := range e.need {
		if int(n) > len(c.free[cls]) {
			return false
		}
	}
	if e.isLoad && c.nLoads >= c.cfg.LQSize {
		return false
	}
	if e.isStore && c.nStores >= c.cfg.SQSize {
		return false
	}

	idx := (c.robHead + c.robCnt) % len(c.rob)
	u := &c.rob[idx]
	u.reset()
	u.seq = c.seq
	c.seq++
	u.pc = f.pc
	u.vid = e.v.ID
	u.poison = f.poison
	u.mutated = f.mutated
	u.bad = f.bad
	u.predNext = f.predNext
	u.isLoad = e.isLoad
	u.isStore = e.isStore

	for i, s := range srcs {
		u.srcs[i] = rsrc{archRef: s, phys: c.rat[ratSlot(s.cls, s.arch)]}
	}
	for i, d := range dsts {
		free := c.free[d.cls]
		phys := free[len(free)-1]
		c.free[d.cls] = free[:len(free)-1]
		slot := ratSlot(d.cls, d.arch)
		u.dsts[i] = rdst{cls: d.cls, arch: d.arch, phys: phys, old: c.rat[slot]}
		c.rat[slot] = phys
		c.ready[d.cls][phys] = false
		c.dropWaiters(c.wkReg(d.cls, phys))
	}
	u.nSrcs, u.nDsts = uint8(len(srcs)), uint8(len(dsts))
	if e.v.IsBranch || f.poison {
		u.snap = c.rat
		u.snapValid = true
	}
	if e.isStore {
		c.sq = append(c.sq, idx)
		c.nStores++
	}
	if e.isLoad {
		c.nLoads++
	}
	c.iq = append(c.iq, idx)
	c.watch(idx)
	c.robCnt++
	return true
}

// --- fetch ------------------------------------------------------------------

func (c *Core) fetch() {
	if c.cycle < c.fetchStallUntil {
		return
	}
	for i := 0; i < c.cfg.FetchWidth && len(c.fq) < c.cfg.FetchQueue; i++ {
		pc := c.fetchPC
		if pc == len(c.prog) {
			return
		}
		if pc < 0 || pc > len(c.prog) {
			// Wild (wrong-path or truly bad) target: a poison µop crashes
			// at commit if it turns out to be on the correct path.
			c.fq = append(c.fq, fqEntry{pc: pc, predNext: len(c.prog), poison: true})
			c.fetchPC = len(c.prog)
			c.progressed = true
			return
		}
		in := &c.prog[pc]
		var mutated bool
		if c.decArmed {
			// One-shot: the first in-range fetch (wrong-path or not)
			// consumes the armed decoder fault.
			c.decArmed = false
			if ci, ok := corruptInst(*in, c.decBit); ok {
				c.decInst = ci
				in = &c.decInst
				mutated = true
			} else {
				// Undecodable bytes: the entry still occupies a pipeline
				// slot and raises #UD when it reaches execute.
				c.fq = append(c.fq, fqEntry{pc: pc, predNext: pc + 1, bad: true})
				c.fetchPC = pc + 1
				c.progressed = true
				continue
			}
		}
		v := c.pre.ops[pc].v
		if mutated {
			v = isa.Lookup(in.V)
		}
		next := pc + 1
		if v.IsBranch {
			target := pc + 1 + int(in.Ops[0].Imm)
			if v.Op == isa.OpJMP || c.bp.predict(pc) {
				next = target
			}
			c.fq = append(c.fq, fqEntry{pc: pc, predNext: next, mutated: mutated})
			c.fetchPC = next
			c.progressed = true
			return // at most one branch fetched per cycle
		}
		c.fq = append(c.fq, fqEntry{pc: pc, predNext: next, mutated: mutated})
		c.fetchPC = next
		c.progressed = true
	}
}

// --- execution-time memory bus ------------------------------------------------

// execBus is the arch.MemBus the execute stage sees: loads go through the
// L1D with store-to-load forwarding from uncommitted older stores, and
// stores are captured into the µop's write set (applied at commit).
type execBus struct {
	c *Core
	u *uop
}

var _ arch.MemBus = (*execBus)(nil)

func (b *execBus) Read(addr, size uint64) (uint64, *arch.CrashError) {
	c := b.c
	var buf [8]byte
	lat, err := c.cache.access(addr, int(size), false, buf[:size], c.cycle)
	if err != nil {
		return 0, err
	}
	// Forward bytes from older uncommitted stores, oldest first so the
	// youngest write wins.
	for _, si := range c.sq {
		su := &c.rob[si]
		if su.seq >= b.u.seq {
			break
		}
		if su.squashed || su.st == uWaiting {
			continue
		}
		for _, w := range su.stores() {
			lo := max(addr, w.addr)
			hi := min(addr+size, w.addr+uint64(w.size))
			for a := lo; a < hi; a++ {
				buf[a-addr] = byte(w.data >> (8 * (a - w.addr)))
			}
		}
	}
	if lat > b.u.memLat {
		b.u.memLat = lat
	}
	var v uint64
	for i := uint64(0); i < size; i++ {
		v |= uint64(buf[i]) << (8 * i)
	}
	return v, nil
}

func (b *execBus) Write(addr, size, val uint64) *arch.CrashError {
	if err := b.c.mem.CheckWrite(addr, size); err != nil {
		return err
	}
	b.u.writes[b.u.nWrites] = storeWrite{addr: addr, data: val, size: uint8(size)}
	b.u.nWrites++
	if b.u.memLat < b.c.cfg.L1D.HitLatency {
		b.u.memLat = 1 // address generation only; the write retires later
	}
	return nil
}

func (b *execBus) Read128(addr uint64) ([2]uint64, *arch.CrashError) {
	lo, err := b.Read(addr, 8)
	if err != nil {
		return [2]uint64{}, err
	}
	hi, err := b.Read(addr+8, 8)
	if err != nil {
		return [2]uint64{}, err
	}
	return [2]uint64{lo, hi}, nil
}

func (b *execBus) Write128(addr uint64, v [2]uint64) *arch.CrashError {
	if err := b.Write(addr, 8, v[0]); err != nil {
		return err
	}
	return b.Write(addr+8, 8, v[1])
}
