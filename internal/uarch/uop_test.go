package uarch

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/gen"
	"harpocrates/internal/isa"
	"harpocrates/internal/stats"
)

// TestUopListBounds: the µop's inline lists are as long as they need to
// be and no longer. Over every variant of isa's table, with memory
// operands with and without an index (so movsd's full-width and merging
// forms both come up), collectRefs fits maxSrcs and maxDsts and some
// instruction reaches each. Over the four presets and the 20 suite
// kernels, IBR tracked, no µop holds more than maxWrites stores or maxIBR
// IBR events, and some µop holds exactly that many.
func TestUopListBounds(t *testing.T) {
	var srcMax, dstMax int
	var srcAt, dstAt string
	fullWrite := map[bool]bool{}
	for id := 1; id < isa.NumVariants(); id++ {
		v := isa.Lookup(isa.VariantID(id))
		for _, indexed := range []bool{false, true} {
			in := isa.Inst{V: v.ID, NOps: uint8(len(v.Ops))}
			for i, spec := range v.Ops {
				in.Ops[i].Kind = spec.Kind
				in.Ops[i].Mem.HasIndex = indexed
			}
			if v.Op == isa.OpMOVSD {
				fullWrite[xmmFullWrite(v, &in)] = true
			}
			srcs, dsts := collectRefs(&in, v, nil, nil)
			if len(srcs) > srcMax {
				srcMax, srcAt = len(srcs), in.String()
			}
			if len(dsts) > dstMax {
				dstMax, dstAt = len(dsts), in.String()
			}
		}
	}
	if !fullWrite[true] || !fullWrite[false] {
		t.Errorf("movsd variants cover xmmFullWrite %v, want both cases", fullWrite)
	}
	if srcMax != maxSrcs || dstMax != maxDsts {
		t.Errorf("widest operand lists: %d sources (%s), %d destinations (%s); bounds %d and %d",
			srcMax, srcAt, dstMax, dstAt, maxSrcs, maxDsts)
	}

	progs := append(dcdiag.Programs(1), mibench.Programs(1)...)
	for _, g := range presetGens() {
		progs = append(progs, gen.Materialize(gen.NewRandom(&g.cfg, stats.Derive(5, 51)), &g.cfg))
	}
	var writesMax, ibrMax int
	for _, p := range progs {
		cfg := DefaultConfig()
		cfg.TrackIBR = true
		cfg.MaxCycles = 20000
		cfg.OnCycle = func(c *Core, _ uint64) {
			for k := 0; k < c.robCnt; k++ {
				u := &c.rob[(c.robHead+k)%len(c.rob)]
				writesMax = max(writesMax, int(u.nWrites))
				ibrMax = max(ibrMax, int(u.nIBR))
			}
		}
		Run(p.Insts, p.NewState(), cfg)
	}
	if writesMax != maxWrites || ibrMax != maxIBR {
		t.Errorf("fullest µops: %d stores, %d IBR events; bounds %d and %d", writesMax, ibrMax, maxWrites, maxIBR)
	}
}

// TestUopIsPlainData: a µop holds no reference of any kind, so copying
// one is a struct assignment that shares nothing and the collector never
// scans a checkpoint's µops. The walk recurses through arrays and
// structs.
func TestUopIsPlainData(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface,
			reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %v (%v): a uop must be plain data", path, typ.Kind(), typ)
		}
	}
	walk("uop", reflect.TypeFor[uop]())
	t.Logf("unsafe.Sizeof(uop{}) = %d bytes", unsafe.Sizeof(uop{}))
}

// TestSummarizePanicsPastBounds: an instruction whose operands overflow
// a µop's lists is refused where the predecode table is built, naming
// its variant.
func TestSummarizePanicsPastBounds(t *testing.T) {
	v := isa.Lookup(isa.Deterministic()[0])
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, v.String()) {
			t.Fatalf("summarize of %d sources: panic %q, want one naming %v", maxSrcs+1, msg, v)
		}
	}()
	summarize(v, make([]archRef, maxSrcs+1), nil)
}

// captureSites runs the IRF preset's program and returns two mid-run
// cores, copied where few µops are live and where many are, each with
// every queue copyState copies non-empty.
func captureSites(t testing.TB) (few, many *Core) {
	t.Helper()
	g := presetGens()[0]
	p := gen.Materialize(gen.NewRandom(&g.cfg, stats.Derive(5, 52)), &g.cfg)
	cfg := DefaultConfig()
	cfg.OnCycle = func(c *Core, _ uint64) {
		if len(c.iq) == 0 || len(c.sq) == 0 || len(c.inflight) == 0 || len(c.fq) == 0 {
			return
		}
		switch {
		case few == nil && c.robCnt <= 16:
			few = new(Core)
			few.copyFrom(c)
		case many == nil && c.robCnt >= 96:
			many = new(Core)
			many.copyFrom(c)
		}
	}
	Run(p.Insts, p.NewState(), cfg)
	if few == nil || many == nil {
		t.Fatal("the run never reached both a nearly empty and a busy ROB")
	}
	return few, many
}

// TestColdCaptureAllocs: a capture into fresh checkpoint state, as a
// process's first golden run makes before ckStatePool holds any,
// allocates the same whatever the number of live µops: a µop owns no
// storage of its own.
func TestColdCaptureAllocs(t *testing.T) {
	few, many := captureSites(t)
	allocs := func(c *Core) float64 {
		return testing.AllocsPerRun(20, func() { c.snapshot(&ckState{core: new(Core)}) })
	}
	a, b := allocs(few), allocs(many)
	if b > a {
		t.Fatalf("a cold capture of %d live µops allocates %v times, of %d live µops %v times",
			len(few.liveSlots(nil)), a, len(many.liveSlots(nil)), b)
	}
	t.Logf("cold capture: %v allocations with %d live µops, %v with %d", a, len(few.liveSlots(nil)), b, len(many.liveSlots(nil)))
}

// BenchmarkCheckpointCapture times one mid-run capture on the IRF
// preset with a busy ROB: cold into fresh checkpoint state, pooled into
// state a released checkpoint handed back.
func BenchmarkCheckpointCapture(b *testing.B) {
	_, c := captureSites(b)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			c.snapshot(&ckState{core: new(Core)})
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			c.Checkpoint().Release()
		}
	})
}
