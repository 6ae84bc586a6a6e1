package dist

import (
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// testCampaign builds a small deterministic campaign plus the program's
// serializable form (what a coordinator ships to workers).
func testCampaign(t *testing.T, n int) (*inject.Campaign, *prog.Program) {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumInstrs = 300
	rng := rand.New(rand.NewPCG(99, 100))
	p := gen.Materialize(gen.NewRandom(&cfg, rng), &cfg)
	c := &inject.Campaign{
		Prog:   p.Insts,
		Init:   p.InitFunc(),
		Target: coverage.IRF,
		Type:   inject.Transient,
		N:      n,
		Seed:   7,
		Cfg:    uarch.DefaultConfig(),
	}
	return c, p
}

// startWorkers spins up n in-process workers and returns their URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(NewServer(nil).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func fastOptions() Options {
	return Options{
		Timeout:     30 * time.Second,
		Retries:     2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

// The acceptance property: a campaign's merged distributed result is
// bit-identical to the in-process run, for any worker count.
func TestDistributedCampaignBitIdentical(t *testing.T) {
	c, p := testCampaign(t, 40)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		pool := New(startWorkers(t, workers), fastOptions())
		if got := pool.Probe(); got != workers {
			t.Fatalf("%d workers: %d healthy", workers, got)
		}
		st, err := pool.RunCampaign(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Equal(local) {
			t.Fatalf("%d workers: distributed %+v != local %+v", workers, st, local)
		}
	}
}

// A worker that fails transiently (here: its first two shard requests
// return 500) must be retried with backoff, not evicted, and the final
// result must still be exact.
func TestRetryThenSuccess(t *testing.T) {
	c, p := testCampaign(t, 24)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	inner := NewServer(nil).Handler()
	var failures atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathHealthz && failures.Add(1) <= 2 {
			http.Error(w, "synthetic transient failure", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	opts := fastOptions()
	opts.Retries = 3
	opts.Obs = obs.New(reg, nil)
	pool := New([]string{srv.URL}, opts)
	st, err := pool.RunCampaign(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(local) {
		t.Fatalf("distributed %+v != local %+v", st, local)
	}
	if got := reg.Counter("dist.rpc.retries").Load(); got < 2 {
		t.Fatalf("retries counter = %d, want >= 2", got)
	}
	if pool.Alive() != 1 {
		t.Fatal("transiently failing worker was evicted")
	}
}

// A request exceeding the per-request timeout counts as a failure and is
// retried; the retry (no artificial delay the second time) succeeds.
func TestTimeoutRetry(t *testing.T) {
	c, p := testCampaign(t, 8)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	inner := NewServer(nil).Handler()
	var first atomic.Bool
	first.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathHealthz && first.CompareAndSwap(true, false) {
			time.Sleep(2 * time.Second) // well past the pool timeout
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	opts := fastOptions()
	opts.Timeout = 200 * time.Millisecond
	opts.Obs = obs.New(reg, nil)
	pool := New([]string{srv.URL}, opts)
	st, err := pool.RunCampaign(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(local) {
		t.Fatalf("distributed %+v != local %+v", st, local)
	}
	if reg.Counter("dist.rpc.retries").Load() == 0 {
		t.Fatal("timeout did not trigger a retry")
	}
}

// A permanently failing worker is evicted after its retries are spent
// and its shard is re-queued onto the healthy worker; the merged result
// is still exact.
func TestEvictionAndRequeue(t *testing.T) {
	c, p := testCampaign(t, 24)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	good := startWorkers(t, 1)[0]
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathHealthz {
			writeJSON(w, HealthzResponse{OK: true})
			return
		}
		http.Error(w, "synthetic permanent failure", http.StatusInternalServerError)
	}))
	defer dead.Close()

	reg := obs.NewRegistry()
	opts := fastOptions()
	opts.Obs = obs.New(reg, nil)
	pool := New([]string{good, dead.URL}, opts)
	if pool.Probe() != 2 {
		t.Fatal("both workers should pass healthz")
	}
	st, err := pool.RunCampaign(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(local) {
		t.Fatalf("distributed %+v != local %+v", st, local)
	}
	if pool.Alive() != 1 {
		t.Fatalf("alive = %d, want 1 (dead worker evicted)", pool.Alive())
	}
	if reg.Counter("dist.worker.evictions").Load() != 1 {
		t.Fatalf("evictions = %d, want 1", reg.Counter("dist.worker.evictions").Load())
	}
	if reg.Counter("dist.shard.requeues").Load() == 0 {
		t.Fatal("dead worker's shard was not re-queued")
	}
}

// A worker dying mid-campaign (healthy when probed, then the connection
// drops on its first shard) must not lose its in-flight shard: the
// survivor picks it up. Dropping the first shard rather than a later one
// makes the eviction certain however fast the good worker drains the
// queue.
func TestWorkerKilledMidCampaign(t *testing.T) {
	c, p := testCampaign(t, 32)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	good := startWorkers(t, 1)[0]
	inner := NewServer(nil).Handler()
	var flaky *httptest.Server
	flaky = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathHealthz {
			// Simulate a crash: drop the connection without a response.
			flaky.CloseClientConnections()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	reg := obs.NewRegistry()
	opts := fastOptions()
	opts.Retries = 1
	opts.Obs = obs.New(reg, nil)
	pool := New([]string{good, flaky.URL}, opts)
	st, err := pool.RunCampaign(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(local) {
		t.Fatalf("distributed %+v != local %+v", st, local)
	}
	if pool.Alive() != 1 {
		t.Fatalf("alive = %d, want 1 (killed worker evicted)", pool.Alive())
	}
	if reg.Counter("dist.shard.requeues").Load() == 0 {
		t.Fatal("killed worker's shard was not re-queued")
	}
}

// With no reachable workers the pool degrades to the in-process path.
func TestZeroWorkersFallback(t *testing.T) {
	c, p := testCampaign(t, 8)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for name, pool := range map[string]*Pool{
		"no workers":   New(nil, fastOptions()),
		"unreachable":  New([]string{"http://127.0.0.1:1"}, fastOptions()),
		"empty string": New([]string{"", " "}, fastOptions()),
	} {
		pool.Probe()
		if pool.Alive() != 0 {
			t.Fatalf("%s: alive = %d, want 0", name, pool.Alive())
		}
		st, err := pool.RunCampaign(c, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Equal(local) {
			t.Fatalf("%s: fallback %+v != local %+v", name, st, local)
		}
	}
}

// The distributed evaluator must reproduce the local refinement
// trajectory exactly: same best fitness, same best genotype, same
// per-iteration history.
func TestEvalDistributedBitIdentical(t *testing.T) {
	baseOptions := func() core.Options {
		o := core.Options{Structure: coverage.IntAdder, Seed: 42}
		o.Gen = gen.DefaultConfig()
		o.Gen.NumInstrs = 150
		o.PopSize = 8
		o.TopK = 2
		o.MutantsPerParent = 3
		o.Iterations = 3
		return o
	}
	local, err := core.Run(baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		pool := New(startWorkers(t, workers), fastOptions())
		o := baseOptions()
		o.Evaluator = pool.Evaluator()
		res, err := core.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Fitness != local.Best.Fitness {
			t.Fatalf("%d workers: best fitness %v != %v", workers, res.Best.Fitness, local.Best.Fitness)
		}
		if res.Best.G.Hash() != local.Best.G.Hash() {
			t.Fatalf("%d workers: best genotype %016x != %016x",
				workers, res.Best.G.Hash(), local.Best.G.Hash())
		}
		for i := range local.History.Best {
			if res.History.Best[i] != local.History.Best[i] {
				t.Fatalf("%d workers: trajectory diverged at iteration %d: %v != %v",
					workers, i, res.History.Best[i], local.History.Best[i])
			}
		}
	}
}

// The evaluator degrades to in-process grading when the fleet is gone.
func TestEvalZeroWorkersFallback(t *testing.T) {
	o := core.Options{Structure: coverage.IntAdder, Seed: 42}
	o.Gen = gen.DefaultConfig()
	o.Gen.NumInstrs = 150
	o.PopSize = 6
	o.TopK = 2
	o.MutantsPerParent = 2
	o.Iterations = 2
	local, err := core.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	pool := New([]string{"http://127.0.0.1:1"}, fastOptions())
	pool.Probe()
	o.Evaluator = pool.Evaluator()
	res, err := core.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness != local.Best.Fitness || res.Best.G.Hash() != local.Best.G.Hash() {
		t.Fatal("in-process fallback diverged from the local run")
	}
}

// Unconfigured evaluator must refuse cleanly rather than grade garbage.
func TestEvaluatorRequiresConfigure(t *testing.T) {
	pool := New(startWorkers(t, 1), fastOptions())
	e := pool.Evaluator()
	gs, _ := testGenotypes(t, 1)
	if _, err := e.EvaluateBatch(gs); err == nil {
		t.Fatal("unconfigured evaluator graded a batch")
	}
}

// Worker HTTP error handling: wrong method, garbage body, bad range.
func TestWorkerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + PathInject)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET inject: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+PathEval, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty eval: status %d, want 400", resp.StatusCode)
	}
}

// A worker always runs a shard the one way — checkpoint resume, delta
// termination, golden reuse — and none of that is on the wire: the
// distributed outcome must be bit-identical, for any worker count, to
// the in-process reference that runs every fault to completion, and the
// worker-side delta counters must prove early termination actually ran.
func TestDistributedDeltaTermination(t *testing.T) {
	c, p := testCampaign(t, 40)
	c.NoDeltaTermination = true
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		regs := make([]*obs.Registry, workers)
		urls := make([]string, workers)
		for i := range urls {
			regs[i] = obs.NewRegistry()
			srv := httptest.NewServer(NewServer(obs.New(regs[i], nil)).Handler())
			t.Cleanup(srv.Close)
			urls[i] = srv.URL
		}
		st, err := New(urls, fastOptions()).RunCampaign(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Equal(local) {
			t.Fatalf("%d workers: distributed %+v != local full-run reference %+v", workers, st, local)
		}
		var conv, div int64
		for _, reg := range regs {
			conv += reg.Counter("inject.delta.converged").Load()
			div += reg.Counter("inject.delta.diverged").Load()
		}
		if conv == 0 {
			t.Fatalf("%d workers: no worker run reconverged (diverged=%d)", workers, div)
		}
	}
}

// TestDistributedTrapAndBurstBitIdentical: the trap outcome channel and
// the multi-bit-upset parameter must survive the wire protocol — a
// distributed decoder campaign (trap-heavy) and a distributed burst
// campaign both merge to statistics bit-identical to the local run.
func TestDistributedTrapAndBurstBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(c *inject.Campaign)
	}{
		{"decoder-trap", func(c *inject.Campaign) { c.Target = coverage.Decoder }},
		{"irf-burst", func(c *inject.Campaign) { c.BurstLen = 3 }},
	} {
		c, p := testCampaign(t, 32)
		tc.tweak(c)
		local, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "decoder-trap" && local.Trap == 0 {
			t.Fatalf("%s: no traps locally; the wire assertion would be vacuous: %+v", tc.name, local)
		}
		pool := New(startWorkers(t, 2), fastOptions())
		st, err := pool.RunCampaign(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Equal(local) {
			t.Fatalf("%s: distributed %+v != local %+v", tc.name, st, local)
		}
	}
}
