package uarch

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
	"harpocrates/internal/isa"
)

// copyFrom makes c a copy of src the way every checkpoint and restore
// copies: src captures a checkpoint (sharing the chunks it did not write
// since its last capture) and c restores from it.
func (c *Core) copyFrom(src *Core) { c.restore(src.snapshot(ckStatePool.Get().(*ckState))) }

// touchAll marks every L1D set and L2 chunk of c written, as the write a
// perturbation stands for would.
func touchAll(c *Core) {
	for _, bits := range [][]uint64{c.cache.touched, c.cache.l2.touched} {
		for i := range bits {
			bits[i] = ^uint64(0)
		}
	}
}

// The core's state is hashed field by field in stateHash. copyState and
// init list the register files, queues and structures one by one and
// take the scalars as two values: pipeState, copied whole, and
// runScratch, reset whole. coreState classifies every field of the
// structs that hold the state, once: a field missed in stateHash lets
// delta termination call a live fault Masked, one a copy drops (or a
// scalar put in the wrong one of the two values) breaks fast-forward ≡
// from-zero, and the differentials catch either only if a test program
// happens to reach the field. TestCoreStateTableComplete finds every
// field by reflection; TestCoreStateTablePerturbation proves the table
// is what the code does.

type stateClass int

func (c stateClass) String() string { return [...]string{"?", "hashed", "copied", "scratch"}[c] }

const (
	// hashed: copied by copyFrom and folded into stateHash.
	hashed stateClass = iota + 1
	// copied: copied by copyFrom, deliberately not hashed.
	copied
	// scratch: reset or rebuilt by copyFrom and init; never hashed.
	scratch
)

// stateRow classifies one field. The perturbation check changes the field
// on a mid-run golden core and compares stateHash and a copyFrom of the
// result against the unperturbed core.
type stateRow struct {
	class stateClass
	// why says, for a field that is not hashed, why it cannot influence
	// future behaviour (copied) or what re-derives it (scratch).
	why string
	// live picks the µop a uop row perturbs (nil: the ROB head).
	live func(*uop) bool
	// elem picks the slice or array element to perturb (nil: the first).
	elem func(*Core) int
	// prep puts both cores in a state where the field binds, before
	// either is hashed.
	prep func(*Core)
	// mut perturbs the field (nil: the generic perturbation of its value).
	mut func(*Core)
	// muts, when set, perturbs the field several ways instead of mut,
	// each checked on its own: one per register class of a field indexed
	// by class.
	muts []func(*Core)
	// eq compares the field of two cores (nil: reflect.DeepEqual).
	eq func(a, b *Core) bool
}

const (
	whyConfig    = "run configuration: every run compared against one trajectory shares it"
	whyTelemetry = "statistics for the Result: nothing reads them back"
	whyCoverage  = "coverage telemetry of a tracking run: a copy tracks nothing and starts it empty, as init does"
	whyRecorder  = "interval recorder: golden-run instrumentation, nil in every copy"
	whySum       = "sum-only ACE recorder the core keeps for reuse: init resets it, no copy carries it"
	whyIssueCtr  = "recomputed at the top of every issue stage; copied only because HXGA encodes it"
	whyTerminal  = "set only as the run stops, before any later compare point"
	whyWakeup    = "derived from iq and the ready bits: rebuilt by copyFrom and init"
	whyArming    = "delta arming: re-derived by RestoreFrom"
	whyDerived   = "fixed by pc (by decInst for a mutated µop, hashed as such): a restore re-derives it as rename set it"
	whyFrom      = "the checkpoint chunks the arrays last equaled: set by every capture and restore"
	whyTouched   = "chunks written since the arrays last equaled their from chunks: a capture or restore clears it"
)

var (
	waiting  = func(u *uop) bool { return u.st == uWaiting }
	issuedOp = func(u *uop) bool { return u.st == uIssued }
	executed = func(u *uop) bool { return u.st != uWaiting }
)

// livePhys picks a mapped physical register of class cls; liveInt,
// liveFP and liveFlag pick one of each class.
func livePhys(c *Core, cls uint8) int { return int(c.rat[ratSlot(cls, 0)]) }
func liveInt(c *Core) int             { return livePhys(c, clsInt) }
func liveFP(c *Core) int              { return livePhys(c, clsFP) }
func liveFlag(c *Core) int            { return livePhys(c, clsFlag) }

// perClass returns mut's perturbation of each register class.
func perClass(mut func(c *Core, cls uint8)) []func(*Core) {
	var muts []func(*Core)
	for cls := range uint8(3) {
		muts = append(muts, func(c *Core) { mut(c, cls) })
	}
	return muts
}

// firstValid returns the index of the first valid entry.
func firstValid(valid func(int) bool, n int) int {
	for i := 0; i < n; i++ {
		if valid(i) {
			return i
		}
	}
	return -1
}

func validLine(c *Core) int {
	return firstValid(func(i int) bool { return c.cache.lines[i].valid }, len(c.cache.lines))
}

func validL2(c *Core) int {
	return firstValid(func(i int) bool { return c.cache.l2.valid[i] }, len(c.cache.l2.valid))
}

// swapFirst swaps the first two entries of a free list: its order is what
// future renames pop.
func swapFirst(s []uint16) { s[0], s[1] = s[1], s[0] }

var coreState = map[string]stateRow{
	"Core.cfg":   {class: copied, why: whyConfig},
	"Core.prog":  {class: copied, why: "the program image: immutable, shared by every run of the program", mut: func(c *Core) { p := slices.Clone(c.prog); p[0].Ops[0].Imm++; c.prog = p }},
	"Core.pre":   {class: copied, why: "derived from prog, immutable, shared", mut: func(c *Core) { c.pre = newPredecode(c.prog) }, eq: func(a, b *Core) bool { return a.pre == b.pre }},
	"Core.mem":   {class: hashed, mut: flipMemByte, eq: func(a, b *Core) bool { return a.mem.Digest() == b.mem.Digest() }},
	"Core.cache": {class: hashed},
	"Core.bp":    {class: hashed},
	"Core.recIRF": {class: scratch, why: whyRecorder,
		mut: func(c *Core) { c.recIRF = ace.GetIntervalRecorder(64) }},
	"Core.recFPRF": {class: scratch, why: whyRecorder,
		mut: func(c *Core) { c.recFPRF = ace.GetIntervalRecorder(64) }},
	"Core.sumIRF":  {class: scratch, why: whySum, mut: func(c *Core) { c.sumIRF = ace.NewSumRecorder(64) }},
	"Core.sumFPRF": {class: scratch, why: whySum, mut: func(c *Core) { c.sumFPRF = ace.NewSumRecorder(64) }},
	"Core.sumL1D":  {class: scratch, why: whySum, mut: func(c *Core) { c.sumL1D = ace.NewSumRecorder(64) }},
	"Core.ibrC":    {class: scratch, why: whyCoverage},
	"Core.intPRF":  {class: hashed, elem: liveInt},
	"Core.fpPRF":   {class: hashed, elem: liveFP},
	"Core.flagPRF": {class: hashed, elem: liveFlag},
	// A live register's ready bit, and the pop order of the free list,
	// of each class.
	"Core.ready": {class: hashed, muts: perClass(func(c *Core, cls uint8) {
		r := livePhys(c, cls)
		c.ready[cls][r] = !c.ready[cls][r]
	})},
	"Core.free": {class: hashed, muts: perClass(func(c *Core, cls uint8) { swapFirst(c.free[cls]) })},
	"Core.rob":  {class: hashed},
	"Core.iq":   {class: hashed, mut: func(c *Core) { c.iq = c.iq[1:] }},
	"Core.sq":   {class: hashed, mut: func(c *Core) { c.sq = c.sq[1:] }},
	"Core.inflight": {class: hashed, mut: func(c *Core) {
		// Writeback prunes squashed and written-back entries lazily, so
		// only an issued one binds.
		i := slices.IndexFunc(c.inflight, func(idx int) bool { return issuedOp(&c.rob[idx]) })
		c.inflight = slices.Delete(slices.Clone(c.inflight), i, i+1)
	}},
	"Core.wkHead":       {class: scratch, why: whyWakeup},
	"Core.wkNodes":      {class: scratch, why: whyWakeup},
	"Core.wkFree":       {class: scratch, why: whyWakeup},
	"Core.rdyOther":     {class: scratch, why: whyWakeup},
	"Core.rdyLoad":      {class: scratch, why: whyWakeup},
	"Core.fq":           {class: hashed},
	"Core.deltaScratch": {class: scratch, why: "stateHash's free-list scratch, overwritten before use"},
	"Core.pipeState":    {class: hashed},
	"Core.runScratch":   {class: scratch, why: "reset whole by copyFrom, armed whole by init: its own rows are the check"},

	"pipeState.rat":             {class: hashed},
	"pipeState.robHead":         {class: hashed},
	"pipeState.robCnt":          {class: hashed},
	"pipeState.fetchPC":         {class: hashed},
	"pipeState.fetchStallUntil": {class: hashed, mut: func(c *Core) { c.fetchStallUntil = c.cycle + 100 }},
	"pipeState.decArmed":        {class: hashed},
	"pipeState.decBit":          {class: hashed, prep: func(c *Core) { c.decArmed = true }},
	"pipeState.decInst": {class: hashed, prep: func(c *Core) {
		u := &c.rob[c.robHead]
		u.mutated, u.inst = true, &c.decInst
	}},
	"pipeState.cycle": {class: copied, why: "compare points match at equal cycles; timers hash relative to it",
		prep: func(c *Core) { c.fetchStallUntil, c.divBusyUntil = 0, [2]uint64{} }},
	"pipeState.seq":               {class: hashed},
	"pipeState.instret":           {class: hashed},
	"pipeState.nLoads":            {class: hashed},
	"pipeState.nStores":           {class: hashed},
	"pipeState.memPortsUsed":      {class: copied, why: whyIssueCtr},
	"pipeState.unitUsed":          {class: copied, why: whyIssueCtr},
	"pipeState.divBusyUntil":      {class: hashed, mut: func(c *Core) { c.divBusyUntil[0] = c.cycle + 100 }},
	"pipeState.oldestUnexecStore": {class: copied, why: whyIssueCtr},
	"pipeState.streamDigest":      {class: copied, why: "compared on its own, as the point's Stream, before the state hash"},
	// Of the execute stage's scratch state only the nondeterminism
	// counter binds: execUop loads every operand a µop reads before use
	// (DebugScrub poisons the rest to prove it).
	"pipeState.execState": {class: hashed, mut: func(c *Core) {
		c.execState.RestoreNondetCounter(c.execState.NondetCounter() + 1)
	}},
	"pipeState.bus": {class: scratch, why: "execute-stage memory bus: copyFrom rebinds it to the copy",
		mut: func(c *Core) { c.bus.u = &c.rob[c.robHead] },
		eq: func(a, b *Core) bool {
			return a.bus == execBus{c: a} && b.bus == execBus{c: b}
		}},
	"pipeState.branches":    {class: copied, why: whyTelemetry},
	"pipeState.mispredicts": {class: copied, why: whyTelemetry},
	"pipeState.flushes":     {class: copied, why: whyTelemetry},
	"pipeState.crash": {class: copied, why: whyTerminal,
		mut: func(c *Core) { c.crash = &arch.CrashError{Kind: arch.CrashBadBranch} }},
	"pipeState.timedOut": {class: copied, why: whyTerminal},
	"pipeState.finished": {class: copied, why: whyTerminal},

	"runScratch.progressed":   {class: scratch, why: "per-cycle progress flag: copyFrom clears it"},
	"runScratch.wbReadyAt":    {class: scratch, why: "lower bound on the next writeback: copyFrom resets it to 0, always safe"},
	"runScratch.skipped":      {class: scratch, why: "skipped-cycle telemetry: copyFrom resets it"},
	"runScratch.ckNext":       {class: scratch, why: "checkpoint capture schedule: init arms it from Config.Checkpoints, a copy captures none"},
	"runScratch.ckSpacing":    {class: scratch, why: "checkpoint capture spacing: init resets it, only a capturing run reads it"},
	"runScratch.deltaHashOn":  {class: scratch, why: whyArming},
	"runScratch.deltaNextRec": {class: scratch, why: whyArming},
	"runScratch.deltaCmpIdx":  {class: scratch, why: whyArming},
	"runScratch.deltaCmpFrom": {class: scratch, why: whyArming},
	"runScratch.reconverged":  {class: scratch, why: whyArming},

	"uop.seq": {class: hashed},
	"uop.pc":  {class: hashed},
	"uop.v": {class: scratch, why: whyDerived,
		mut: func(c *Core) { u := &c.rob[liveSlot(c, nil)]; u.v = isa.Lookup(u.v.ID + 1) }},
	"uop.inst": {class: scratch, why: whyDerived,
		mut: func(c *Core) { u := &c.rob[liveSlot(c, nil)]; in := *u.inst; in.Ops[0].Imm++; u.inst = &in }},
	"uop.srcs":       {class: hashed, live: func(u *uop) bool { return u.nSrcs > 0 }},
	"uop.dsts":       {class: hashed, live: func(u *uop) bool { return u.nDsts > 0 }},
	"uop.nSrcs":      {class: hashed, live: func(u *uop) bool { return u.nSrcs < maxSrcs }},
	"uop.nDsts":      {class: hashed, live: func(u *uop) bool { return u.nDsts < maxDsts }},
	"uop.st":         {class: hashed},
	"uop.doneAt":     {class: hashed, live: issuedOp},
	"uop.memLat":     {class: copied, why: "execute scratch: folded into doneAt when the µop executes"},
	"uop.pending":    {class: scratch, why: whyWakeup, live: func(u *uop) bool { return waiting(u) && u.pending > 0 }},
	"uop.isLoad":     {class: hashed},
	"uop.isStore":    {class: hashed},
	"uop.poison":     {class: hashed},
	"uop.mutated":    {class: hashed},
	"uop.bad":        {class: hashed},
	"uop.predNext":   {class: hashed},
	"uop.actualNext": {class: hashed, live: executed},
	"uop.snapValid":  {class: hashed},
	"uop.snap":       {class: hashed, live: func(u *uop) bool { return u.snapValid }},
	"uop.err": {class: hashed, live: executed, mut: func(c *Core) {
		u := &c.rob[liveSlot(c, executed)]
		u.err = arch.CrashError{Kind: arch.CrashBadBranch, PC: u.pc}
	}},
	"uop.writes":  {class: hashed, live: func(u *uop) bool { return executed(u) && u.nWrites > 0 }},
	"uop.nWrites": {class: hashed, live: func(u *uop) bool { return executed(u) && u.nWrites < maxWrites }},
	"uop.ibr": {class: scratch, why: whyCoverage, eq: func(a, b *Core) bool {
		ua, ub := &a.rob[a.robHead], &b.rob[b.robHead]
		return slices.Equal(ua.ibr[:ua.nIBR], ub.ibr[:ub.nIBR])
	}},
	"uop.nIBR": {class: scratch, why: whyCoverage},
	"uop.squashed": {class: copied, why: "never set inside the live window: a squash removes a contiguous youngest suffix",
		live: waiting},

	"dcache.cfg":     {class: copied, why: whyConfig},
	"dcache.numSets": {class: copied, why: whyConfig},
	"dcache.lines":   {class: hashed},
	"dcache.data":    {class: hashed, elem: func(c *Core) int { return validLine(c) * c.cache.cfg.LineBytes }},
	"dcache.from": {class: scratch, why: whyFrom, mut: func(c *Core) { c.cache.from[0] = nil },
		eq: func(a, b *Core) bool {
			return slices.EqualFunc(a.cache.from, b.cache.from, func(x, y *l1dLine) bool {
				return x.line == y.line && slices.Equal(x.data, y.data)
			})
		}},
	"dcache.touched": {class: scratch, why: whyTouched},
	"dcache.backing": {class: scratch, why: "copyFrom rebinds it to the copy's memory",
		mut: func(c *Core) { c.cache.backing = arch.NewMemory() },
		eq: func(a, b *Core) bool {
			return a.cache.backing == a.mem && b.cache.backing == b.mem
		}},
	"dcache.rec": {class: scratch, why: whyRecorder,
		mut: func(c *Core) { c.cache.rec = ace.GetIntervalRecorder(64) }},
	"dcache.l2":         {class: hashed},
	"dcache.l2HitLat":   {class: copied, why: whyConfig},
	"dcache.memLat":     {class: copied, why: whyConfig},
	"dcache.prefetch":   {class: copied, why: whyConfig},
	"dcache.hits":       {class: copied, why: whyTelemetry},
	"dcache.misses":     {class: copied, why: whyTelemetry},
	"dcache.writebacks": {class: copied, why: whyTelemetry},

	"cacheLine.valid":   {class: hashed},
	"cacheLine.dirty":   {class: hashed},
	"cacheLine.tag":     {class: hashed},
	"cacheLine.lastUse": {class: hashed},

	"l2tags.numSets":   {class: copied, why: whyConfig},
	"l2tags.ways":      {class: hashed}, // it sets the digested chunks' bounds
	"l2tags.lineBytes": {class: copied, why: whyConfig},
	"l2tags.valid":     {class: hashed},
	"l2tags.tag":       {class: hashed, elem: validL2},
	"l2tags.lastUse":   {class: hashed, elem: validL2},
	"l2tags.from": {class: scratch, why: whyFrom, mut: func(c *Core) { c.cache.l2.from[0] = nil },
		eq: func(a, b *Core) bool {
			return slices.EqualFunc(a.cache.l2.from, b.cache.l2.from, func(x, y *l2Chunk) bool {
				return slices.Equal(x.valid, y.valid) && slices.Equal(x.tag, y.tag) && slices.Equal(x.lastUse, y.lastUse)
			})
		}},
	"l2tags.touched":    {class: scratch, why: whyTouched},
	"l2tags.hits":       {class: copied, why: whyTelemetry},
	"l2tags.misses":     {class: copied, why: whyTelemetry},
	"l2tags.prefetches": {class: copied, why: whyTelemetry},

	"gshare.history": {class: hashed},
	"gshare.mask":    {class: copied, why: whyConfig},
	"gshare.table":   {class: hashed},
}

// stateStructs are the structs whose every field coreState classifies. A
// field of one of these types is composite: its own rows are the check.
var stateStructs = map[string]reflect.Type{
	"Core":       reflect.TypeFor[Core](),
	"pipeState":  reflect.TypeFor[pipeState](),
	"runScratch": reflect.TypeFor[runScratch](),
	"uop":        reflect.TypeFor[uop](),
	"dcache":     reflect.TypeFor[dcache](),
	"cacheLine":  reflect.TypeFor[cacheLine](),
	"l2tags":     reflect.TypeFor[l2tags](),
	"gshare":     reflect.TypeFor[gshare](),
}

// composite returns the name of the state struct a field of type t
// holds ("" for none).
func composite(t reflect.Type) string {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	for name, st := range stateStructs {
		if t == st {
			return name
		}
	}
	return ""
}

// holdsHashed reports whether any field of state struct name is hashed.
func holdsHashed(name string) bool {
	for key, row := range coreState {
		if typ, _, _ := strings.Cut(key, "."); typ == name && row.class == hashed {
			return true
		}
	}
	return false
}

func flipMemByte(c *Core) {
	for _, r := range c.mem.Regions() {
		if r.Writable {
			var b [1]byte
			_ = c.mem.ReadBytes(r.Base, b[:]) // the region's base is mapped
			b[0] ^= 1
			_ = c.mem.WriteBytes(r.Base, b[:])
			return
		}
	}
}

// liveSlot returns the ROB slot of the oldest µop of the window that
// pick accepts (the head for nil), or -1.
func liveSlot(c *Core, pick func(*uop) bool) int {
	for k := 0; k < c.robCnt; k++ {
		if i := (c.robHead + k) % len(c.rob); pick == nil || pick(&c.rob[i]) {
			return i
		}
	}
	return -1
}

// writable returns v with the read-only flag of an unexported field
// dropped.
func writable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// perturb changes a value in place: flips a bool, increments a number,
// recurses into the first field of a struct or element elem of an array
// or slice, and grows an empty slice by one zero element.
func perturb(v reflect.Value, elem int) {
	v = writable(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Struct:
		perturb(v.Field(0), 0)
	case reflect.Array:
		perturb(v.Index(elem), 0)
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			return
		}
		perturb(v.Index(elem), 0)
	default:
		panic("perturb: no generic perturbation for " + v.Type().String())
	}
}

// stateSite resolves a row's host struct on any copy of one source core:
// the same ROB slot and cache line on every copy.
type stateSite struct{ slot, line int }

func (s stateSite) field(c *Core, key string) reflect.Value {
	typ, name, _ := strings.Cut(key, ".")
	var host any
	switch typ {
	case "Core":
		host = c
	case "pipeState":
		host = &c.pipeState
	case "runScratch":
		host = &c.runScratch
	case "uop":
		host = &c.rob[s.slot]
	case "dcache":
		host = c.cache
	case "cacheLine":
		host = &c.cache.lines[s.line]
	case "l2tags":
		host = c.cache.l2
	case "gshare":
		host = c.bp
	}
	return reflect.ValueOf(host).Elem().FieldByName(name)
}

// TestCoreStateTableComplete: every field of the core's state structs is
// classified, and every row names a field that exists. A field that holds
// a state struct is classified hashed when any of that struct's fields is
// hashed.
func TestCoreStateTableComplete(t *testing.T) {
	seen := map[string]bool{}
	for name, typ := range stateStructs {
		for i := 0; i < typ.NumField(); i++ {
			key := name + "." + typ.Field(i).Name
			seen[key] = true
			row, ok := coreState[key]
			switch {
			case !ok:
				t.Errorf("%s (%s) is not classified: add a row saying whether copyFrom copies it and stateHash covers it", key, typ.Field(i).Type)
			case row.class != hashed && row.why == "":
				t.Errorf("%s is not hashed but gives no reason", key)
			case composite(typ.Field(i).Type) != "" && holdsHashed(composite(typ.Field(i).Type)) != (row.class == hashed):
				t.Errorf("%s holds state struct %s, but its class %v disagrees with whether that holds a hashed field",
					key, composite(typ.Field(i).Type), row.class)
			}
		}
	}
	for key := range coreState {
		if !seen[key] {
			t.Errorf("row %s names no field", key)
		}
	}
}

// stateSource returns a golden core mid-run, captured at the first cycle
// where every row's perturbation binds: waiting, issued and executed
// µops with sources and a RAT snapshot, queued stores and fetches, valid
// L1D and L2 lines, trackers attached.
func stateSource(t *testing.T) *Core {
	t.Helper()
	rng := rand.New(rand.NewPCG(601, 602))
	prog := randomProgram(rng, 400, false)
	cfg := fullTracking(DefaultConfig())
	var src *Core
	cfg.OnCycle = func(c *Core, _ uint64) {
		if src != nil || len(c.iq) == 0 || len(c.sq) == 0 || len(c.fq) == 0 || len(c.wkNodes) == 0 ||
			!slices.ContainsFunc(c.inflight, func(idx int) bool { return issuedOp(&c.rob[idx]) }) ||
			validLine(c) < 0 || validL2(c) < 0 {
			return
		}
		for _, row := range coreState {
			if row.live != nil && liveSlot(c, row.live) < 0 {
				return
			}
		}
		src = new(Core)
		src.copyFrom(c)
	}
	Run(prog, newInitState(t, 603), cfg)
	if src == nil {
		t.Fatal("no cycle of the source run reaches every row's state")
	}
	src.cfg.OnCycle = nil
	return src
}

// TestCoreStateTablePerturbation proves the table on a mid-run golden
// core: perturbing a hashed field moves stateHash and any other field
// leaves it alone; copyFrom carries a copied field's perturbation and
// drops a scratch field's.
func TestCoreStateTablePerturbation(t *testing.T) {
	src := stateSource(t)
	for _, key := range slices.Sorted(maps.Keys(coreState)) {
		row := coreState[key]
		typ, name, _ := strings.Cut(key, ".")
		f, ok := stateStructs[typ].FieldByName(name)
		if !ok || composite(f.Type) != "" {
			continue // reported by TestCoreStateTableComplete, or checked through its own struct's rows
		}
		site := stateSite{slot: liveSlot(src, row.live), line: validLine(src)}
		muts := row.muts
		if muts == nil {
			mut := row.mut
			if mut == nil {
				mut = func(c *Core) {
					elem := 0
					if row.elem != nil {
						elem = row.elem(c)
					}
					perturb(site.field(c, key), elem)
				}
			}
			muts = []func(*Core){mut}
		}
		eq := row.eq
		if eq == nil {
			eq = func(a, b *Core) bool {
				x, y := site.field(a, key), site.field(b, key)
				if x.Kind() == reflect.Slice && x.Len() == 0 && y.Len() == 0 {
					return true // nil and empty alike
				}
				return reflect.DeepEqual(writable(x).Interface(), writable(y).Interface())
			}
		}
		for i, mut := range muts {
			what := key
			if len(muts) > 1 {
				what = fmt.Sprintf("%s (perturbation %d)", key, i)
			}
			base, pert := new(Core), new(Core)
			base.copyFrom(src)
			pert.copyFrom(src)
			if row.prep != nil {
				row.prep(base)
				row.prep(pert)
			}
			mut(pert)
			touchAll(pert)

			moved := base.stateHash() != pert.stateHash()
			if moved != (row.class == hashed) {
				t.Errorf("%s: classified %v, but perturbing it moves stateHash: %v", what, row.class, moved)
			}

			fromBase, fromPert := new(Core), new(Core)
			fromBase.copyFrom(base)
			fromPert.copyFrom(pert)
			switch row.class {
			case hashed, copied:
				if !eq(fromPert, pert) || eq(fromPert, fromBase) {
					t.Errorf("%s: classified %v, but copyFrom does not carry its perturbation", what, row.class)
				}
			case scratch:
				if !eq(fromPert, fromBase) {
					t.Errorf("%s: classified scratch, but copyFrom carries its perturbation", what)
				}
			}
		}
	}
}
