package dist

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"harpocrates/internal/core"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
)

// Options tunes the coordinator's view of the unreliable network.
type Options struct {
	// Timeout bounds each RPC, golden run and shard simulation included
	// (default 5 minutes).
	Timeout time.Duration
	// Retries is how many times a failed RPC is re-attempted on the
	// same worker before the worker is evicted (default 2).
	Retries int
	// BackoffBase is the first retry delay; each further retry doubles
	// it, jittered ±50%, capped at BackoffMax (defaults 100ms / 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// ShardsPerWorker is the shard multiplier: a campaign or eval batch
	// is cut into alive-workers × ShardsPerWorker contiguous shards
	// (default 4), so a dead worker forfeits only a fraction of the
	// work and faster workers absorb the remainder.
	ShardsPerWorker int
	// Obs, if set, receives RPC counters (dist.rpc.*), retry/eviction/
	// requeue/fallback counters and per-worker latency histograms.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Minute
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.ShardsPerWorker <= 0 {
		o.ShardsPerWorker = 4
	}
	return o
}

// workerHandle tracks one worker's address and health.
type workerHandle struct {
	url   string // normalized base URL, no trailing slash
	name  string // host:port, for metrics
	alive atomic.Bool
}

// Pool is the coordinator side of the protocol: it shards
// fault-injection campaigns (RunCampaign) and evaluation batches
// (Evaluator) across a set of workers, merges partial results
// deterministically by shard index, and degrades gracefully — failed
// RPCs are retried with jittered exponential backoff, persistently
// failing workers are evicted and their shards re-queued, and when no
// worker is left the remaining shards run in process. Eviction is
// sticky for the Pool's lifetime (a long refinement run does not keep
// re-probing a dead machine); build a fresh Pool to re-admit workers.
type Pool struct {
	opts    Options
	ob      *obs.Observer
	client  *http.Client
	workers []*workerHandle
}

// New builds a pool over worker base URLs ("http://host:port"; a bare
// "host:port" gets the scheme prefixed). All workers start out assumed
// alive; Probe checks them eagerly.
func New(urls []string, opts Options) *Pool {
	opts = opts.withDefaults()
	p := &Pool{
		opts:   opts,
		ob:     opts.Obs,
		client: &http.Client{},
	}
	for _, u := range urls {
		if u = NormalizeURL(u); u == "" {
			continue
		}
		name := u
		if parsed, err := url.Parse(u); err == nil && parsed.Host != "" {
			name = parsed.Host
		}
		w := &workerHandle{url: u, name: name}
		w.alive.Store(true)
		p.workers = append(p.workers, w)
	}
	return p
}

// Size returns the number of configured workers.
func (p *Pool) Size() int { return len(p.workers) }

// Alive returns the number of workers not yet evicted.
func (p *Pool) Alive() int { return len(p.liveWorkers()) }

// Probe health-checks every non-evicted worker, evicting unreachable
// ones, and returns the number alive.
func (p *Pool) Probe() int {
	var wg sync.WaitGroup
	for _, w := range p.liveWorkers() {
		wg.Add(1)
		go func(w *workerHandle) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), min(p.opts.Timeout, 5*time.Second))
			defer cancel()
			p.ob.Counter("dist.rpc.healthz").Inc()
			if err := GetJSON(ctx, p.client, w.url+PathHealthz, nil); err != nil {
				p.evict(w, err)
			}
		}(w)
	}
	wg.Wait()
	return p.Alive()
}

func (p *Pool) liveWorkers() []*workerHandle {
	var out []*workerHandle
	for _, w := range p.workers {
		if w.alive.Load() {
			out = append(out, w)
		}
	}
	return out
}

func (p *Pool) evict(w *workerHandle, err error) {
	if !w.alive.CompareAndSwap(true, false) {
		return
	}
	p.ob.Counter("dist.worker.evictions").Inc()
	p.ob.Event("worker_evicted", obs.Fields{"worker": w.name, "error": err.Error()})
}

// post sends one JSON request to a worker with the per-request timeout
// and decodes the JSON response. Any transport error, timeout or
// non-200 status is returned as a failure for the retry layer.
func (p *Pool) post(w *workerHandle, path string, reqBody, respBody any) error {
	ctx, cancel := context.WithTimeout(context.Background(), p.opts.Timeout)
	defer cancel()
	t0 := time.Now()
	err := PostJSON(ctx, p.client, w.url+path, reqBody, respBody)
	p.ob.Histogram("dist.worker." + w.name + ".ns").ObserveDuration(time.Since(t0))
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	return nil
}

// withRetries attempts one shard RPC up to 1+Retries times with
// jittered exponential backoff between attempts.
func (p *Pool) withRetries(w *workerHandle, attempt func() error) error {
	var err error
	for try := 0; try <= p.opts.Retries; try++ {
		if try > 0 {
			p.ob.Counter("dist.rpc.retries").Inc()
			time.Sleep(p.backoff(try))
		}
		if err = attempt(); err == nil {
			return nil
		}
		p.ob.Counter("dist.rpc.failures").Inc()
	}
	return err
}

// backoff returns the delay before retry attempt `try` (1-based):
// BackoffBase·2^(try-1), jittered uniformly in [50%, 150%), capped at
// BackoffMax. The jitter decorrelates a fleet of coordinators
// hammering one recovering worker; it cannot affect campaign results.
func (p *Pool) backoff(try int) time.Duration {
	d := p.opts.BackoffBase << uint(try-1)
	if d > p.opts.BackoffMax || d <= 0 {
		d = p.opts.BackoffMax
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(rand.Uint64N(uint64(2*half)))
	}
	if d > p.opts.BackoffMax {
		d = p.opts.BackoffMax
	}
	return d
}

// runShards drives n shards to completion: live workers pull shards
// from a shared queue, a shard whose worker fails permanently (after
// per-worker retries) is re-queued for the surviving workers, and any
// shards left when every worker is gone run in process via local. Shard
// results are written by index, so completion order never affects the
// merged outcome.
func (p *Pool) runShards(n int, remote func(w *workerHandle, shard int) error, local func(shard int) error) error {
	if n <= 0 {
		return nil
	}
	pending := make(chan int, n)
	for i := 0; i < n; i++ {
		pending <- i
	}
	var remaining atomic.Int64
	remaining.Store(int64(n))
	quit := make(chan struct{})
	var quitOnce sync.Once

	var wg sync.WaitGroup
	for _, w := range p.liveWorkers() {
		wg.Add(1)
		go func(w *workerHandle) {
			defer wg.Done()
			for {
				select {
				case <-quit:
					return
				case shard := <-pending:
					err := p.withRetries(w, func() error { return remote(w, shard) })
					if err != nil {
						// The worker is not answering (or answering
						// garbage): evict it and hand its shard to the
						// survivors.
						p.evict(w, err)
						p.ob.Counter("dist.shard.requeues").Inc()
						pending <- shard
						return
					}
					if remaining.Add(-1) == 0 {
						quitOnce.Do(func() { close(quit) })
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Every worker finished or was evicted. Whatever shards remain are
	// sitting in the buffered queue; run them in process so the
	// campaign completes even with the whole fleet gone.
	for remaining.Load() > 0 {
		select {
		case shard := <-pending:
			p.ob.Counter("dist.fallback.local").Inc()
			if err := local(shard); err != nil {
				return err
			}
			remaining.Add(-1)
		default:
			return fmt.Errorf("dist: internal: %d shards unaccounted for", remaining.Load())
		}
	}
	return nil
}

// shardBounds cuts [0, n) into k contiguous ranges of near-equal size.
func shardBounds(n, k int) [][2]int {
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// shardCount picks the shard count for n work items.
func (p *Pool) shardCount(n int) int {
	k := p.Alive() * p.opts.ShardsPerWorker
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// RunCampaign executes a fault-injection campaign sharded across the
// pool and merges the partial statistics by shard index. For a fixed
// (seed, config) the result is bit-identical to c.Run() in process —
// regardless of worker count, shard sizes, failures, re-queues or
// fallbacks. The program p must be the campaign's test program (the
// wire form of c.Prog/c.Init); campaigns with a custom Init not
// derived from a serializable program cannot be distributed.
func (c *Pool) RunCampaign(camp *inject.Campaign, p *prog.Program) (*inject.Stats, error) {
	if camp.N <= 0 {
		return nil, fmt.Errorf("inject: campaign needs N > 0")
	}
	stop := c.ob.Phase("dist.coord.campaign")
	defer stop()
	progBytes, err := EncodeProgram(p)
	if err != nil {
		return nil, err
	}
	template := campaignRequest(camp, progBytes)
	bounds := shardBounds(camp.N, c.shardCount(camp.N))
	parts := make([]*inject.Stats, len(bounds))

	remote := func(w *workerHandle, shard int) error {
		req := template
		req.Lo, req.Hi = bounds[shard][0], bounds[shard][1]
		var resp InjectResponse
		c.ob.Counter("dist.rpc.inject").Inc()
		if err := c.post(w, PathInject, &req, &resp); err != nil {
			return err
		}
		if resp.Stats.N != req.Hi-req.Lo || len(resp.Stats.Outcomes) != resp.Stats.N {
			return fmt.Errorf("dist: %s: shard [%d,%d) returned %d outcomes",
				w.url, req.Lo, req.Hi, len(resp.Stats.Outcomes))
		}
		parts[shard] = &resp.Stats
		return nil
	}
	local := func(shard int) error {
		st, err := camp.RunRange(bounds[shard][0], bounds[shard][1])
		if err != nil {
			return err
		}
		parts[shard] = st
		return nil
	}
	if err := c.runShards(len(bounds), remote, local); err != nil {
		return nil, err
	}
	return inject.MergeStats(parts)
}

// Evaluator returns a core.Evaluator fanning evaluation batches out
// over the pool (set it as core.Options.Evaluator): batches are sharded
// across workers like campaign specs, with the same retry/evict/
// re-queue/fallback machinery, and results are reassembled in input
// order.
func (p *Pool) Evaluator() core.Evaluator { return NewEvaluator(p.evalBatch) }

func (p *Pool) evalBatch(req *EvalRequest) ([]WireEvalResult, error) {
	stop := p.ob.Phase("dist.coord.eval")
	defer stop()
	n := len(req.Genotypes)
	results := make([]WireEvalResult, n)
	bounds := shardBounds(n, p.shardCount(n))
	// run grades one shard through grade and files its results in place.
	run := func(shard int, grade func(*EvalRequest) ([]WireEvalResult, error)) error {
		lo, hi := bounds[shard][0], bounds[shard][1]
		sreq := *req
		sreq.Genotypes = req.Genotypes[lo:hi]
		res, err := grade(&sreq)
		if err != nil {
			return err
		}
		if len(res) != hi-lo {
			return fmt.Errorf("dist: eval shard [%d,%d) returned %d results", lo, hi, len(res))
		}
		copy(results[lo:hi], res)
		return nil
	}
	remote := func(w *workerHandle, shard int) error {
		return run(shard, func(sreq *EvalRequest) ([]WireEvalResult, error) {
			var resp EvalResponse
			p.ob.Counter("dist.rpc.eval").Inc()
			err := p.post(w, PathEval, sreq, &resp)
			return resp.Results, err
		})
	}
	local := func(shard int) error { return run(shard, RunEval) }
	if err := p.runShards(len(bounds), remote, local); err != nil {
		return nil, err
	}
	return results, nil
}
