package dist

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"harpocrates/internal/gen"
	"harpocrates/internal/obs"
	"harpocrates/internal/stats"
)

// randomWire is the HXPG bytes of a small program of its own seed.
func randomWire(t *testing.T, seed uint64) []byte {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 40
	p := gen.Materialize(gen.NewRandom(&cfg, rand.New(rand.NewPCG(seed, 1))), &cfg)
	wire, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// The decoded-program memo: hit, miss, eviction, and a hash collision
// between different bytes; then the property it exists for — campaigns
// built concurrently from one shared decoded program each equal
// Campaign.Run on a program of their own.
func TestProgramMemoBitIdentical(t *testing.T) {
	ForgetPrograms()
	reg := obs.NewRegistry()
	ob := obs.New(reg, nil)
	count := func(decodes, reuses int64) {
		t.Helper()
		if d, r := reg.Counter("dist.program.decodes").Load(), reg.Counter("dist.program.reuses").Load(); d != decodes || r != reuses {
			t.Fatalf("decodes, reuses = %d, %d; want %d, %d", d, r, decodes, reuses)
		}
	}

	a := randomWire(t, 1)
	p1, h1, err := programs.decode(a, ob)
	if err != nil || h1 != stats.HashBytes(a) {
		t.Fatalf("miss: hash %#x, err %v", h1, err)
	}
	count(1, 0)
	p2, h2, err := programs.decode(slices.Clone(a), ob) // equal bytes off another request
	if err != nil || p2 != p1 || h2 != h1 {
		t.Fatalf("hit returned another program (%p vs %p, %#x vs %#x, %v)", p2, p1, h2, h1, err)
	}
	held, ok := HeldProgram(h1)
	if !ok || !slices.Equal(held, a) || &held[0] == &a[0] {
		t.Fatal("HeldProgram: want the memo's own copy of the bytes")
	}
	if p3, h3, _ := programs.decode(held, ob); p3 != p1 || h3 != h1 { // the memo's bytes, by identity
		t.Fatal("the memo's own bytes resolved to another program")
	}
	count(1, 2)

	// Same hash, different bytes: never the other program.
	b := randomWire(t, 2)
	programs.held[0].hash = stats.HashBytes(b)
	pb, hb, err := programs.decode(b, ob)
	if err != nil || pb == p1 || hb != stats.HashBytes(b) {
		t.Fatalf("colliding bytes resolved to the held program (err %v)", err)
	}
	count(2, 2)
	programs.held[1].hash = h1 // undo the forgery; a is now the older of two

	if _, _, err := programs.decode([]byte("not an HXPG program"), ob); err == nil {
		t.Fatal("garbage decoded")
	}
	if got := HeldPrograms(); !slices.Equal(got, []uint64{hb, h1}) {
		t.Fatalf("held %x, want b then a (a failed decode is not kept)", got)
	}

	// Fill past capacity: a, the least recently used, goes first.
	for i := 0; i < programMemoEntries-1; i++ {
		if _, _, err := programs.decode(randomWire(t, uint64(100+i)), ob); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := HeldProgram(h1); ok || len(HeldPrograms()) != programMemoEntries {
		t.Fatalf("after %d programs: a still held (%v), %d entries", programMemoEntries+1, ok, len(HeldPrograms()))
	}
	if _, ok := HeldProgram(hb); !ok {
		t.Fatal("b evicted before the capacity was exceeded by two")
	}

	// N campaigns at once on one shared *prog.Program.
	c, p := testCampaign(t, 24)
	want, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	req, err := NewInjectRequest(c, p)
	if err != nil {
		t.Fatal(err)
	}
	req.Lo, req.Hi = 0, c.N
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := req
			r.Program = slices.Clone(req.Program)
			got, err := RunInjectCached(&r, ob, nil)
			if err != nil || !got.Equal(want) {
				t.Errorf("campaign on the shared program: %+v (err %v), want %+v", got, err, want)
			}
		}()
	}
	wg.Wait()
	before := reg.Counter("dist.program.decodes").Load()
	if _, _, err := programs.decode(req.Program, ob); err != nil || reg.Counter("dist.program.decodes").Load() != before {
		t.Fatalf("the campaigns' program is not held (err %v)", err)
	}
	if got := int64(programMemoEntries + 2); before != got {
		t.Fatalf("%d decodes in all, want %d: one per distinct program, however many campaigns", before, got)
	}
}
