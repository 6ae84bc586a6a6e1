package queue

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
)

// WorkerOptions tunes a pull-mode worker.
type WorkerOptions struct {
	// Name identifies the worker in leases and metrics (default the
	// process hostname is NOT consulted — pass something meaningful).
	Name string
	// WaitMs is the long-poll wait per lease request (default 30s).
	WaitMs int
	// GoldenCacheEntries bounds the golden bundles (inject golden runs:
	// result, checkpoints, trajectory, interval logs) held in memory
	// (<= 0 means inject.DefaultGoldenCacheEntries), so a job's later
	// shards skip the golden run its first one paid for.
	GoldenCacheEntries int
	// Obs receives worker counters; may be nil.
	Obs *obs.Observer
}

// leaser is the coordinator as a worker sees it. *Coordinator satisfies
// it directly (in-process workers, Options.LocalExec); httpLeaser speaks
// it over POST /v1/lease and /v1/complete. programs are the hashes of
// the programs the worker holds (see Coordinator.Lease).
type leaser interface {
	Lease(worker string, wait time.Duration, programs ...uint64) (*dist.LeaseResponse, error)
	Complete(req *dist.CompleteRequest) (*dist.CompleteResponse, error)
}

// httpLeaser is the leaser of a remote coordinator; ctx bounds every
// request, so cancelling a worker also cuts its long poll short.
type httpLeaser struct {
	ctx    context.Context
	base   string
	client *http.Client
}

func (h httpLeaser) Lease(worker string, wait time.Duration, programs ...uint64) (*dist.LeaseResponse, error) {
	var resp dist.LeaseResponse
	req := dist.LeaseRequest{Worker: worker, WaitMs: int(wait / time.Millisecond), Programs: programs}
	return &resp, dist.PostJSON(h.ctx, h.client, h.base+dist.PathLease, &req, &resp)
}

func (h httpLeaser) Complete(req *dist.CompleteRequest) (*dist.CompleteResponse, error) {
	var resp dist.CompleteResponse
	return &resp, dist.PostJSON(h.ctx, h.client, h.base+dist.PathComplete, req, &resp)
}

// Worker is the one lease → execute → complete loop of the queue: the
// work-stealing half. An idle worker long-polls for the next ready
// shard by priority and submit order; faster machines simply come back
// sooner — load balance emerges with no tuning. The same loop runs over
// HTTP (harpod -pull) and inside the coordinator (harpoq -local).
type Worker struct {
	base   string
	opts   WorkerOptions
	ob     *obs.Observer
	client *http.Client
	golden *inject.GoldenCache
	// executed names the counter of shards simulated; in-process workers
	// report under the coordinator's queue.shards.executed_local.
	executed string
	// errorBackoff paces a worker whose lease call or executor failed,
	// so a restarting coordinator or a poisoned shard is not hammered.
	errorBackoff time.Duration
}

// newWorker builds the transport-independent part of a worker; executed
// names its counter of shards actually simulated.
func newWorker(opts WorkerOptions, executed string) *Worker {
	if opts.Name == "" {
		opts.Name = "harpod"
	}
	if opts.WaitMs <= 0 {
		opts.WaitMs = 30_000
	}
	return &Worker{opts: opts, ob: opts.Obs, executed: executed, errorBackoff: time.Second}
}

// NewWorker builds a worker against a coordinator base URL. It opens
// no file; the error is always nil.
func NewWorker(base string, opts WorkerOptions) (*Worker, error) {
	w := newWorker(opts, "queue.worker.shards_executed")
	w.base, w.client = dist.NormalizeURL(base), &http.Client{}
	w.golden = inject.NewGoldenCache(opts.GoldenCacheEntries)
	return w, nil
}

// Close releases nothing — a worker holds no file — and returns nil.
func (w *Worker) Close() error { return nil }

// Run pulls and executes shards until ctx is cancelled. Transport
// errors (coordinator restarting) back off and retry; the loop only
// ends with the context.
func (w *Worker) Run(ctx context.Context) error {
	w.run(ctx, httpLeaser{ctx: ctx, base: w.base, client: w.client})
	return nil
}

func (w *Worker) run(ctx context.Context, coord leaser) {
	for ctx.Err() == nil {
		if w.step(ctx, coord) {
			continue
		}
		select {
		case <-ctx.Done():
		case <-time.After(w.errorBackoff):
		}
	}
}

// step leases, executes and completes at most one shard. A false return
// asks the loop to back off before the next lease.
func (w *Worker) step(ctx context.Context, coord leaser) bool {
	lease, err := coord.Lease(w.opts.Name, time.Duration(w.opts.WaitMs)*time.Millisecond, dist.HeldPrograms()...)
	if err != nil {
		if ctx.Err() == nil {
			w.ob.Counter("queue.worker.lease_errors").Inc()
		}
		return false
	}
	if lease.JobID == "" {
		return true // nothing ready within the long poll
	}
	comp := w.execute(lease)
	comp.Worker = w.opts.Name
	comp.JobID = lease.JobID
	comp.Shard = lease.Shard
	comp.Lease = lease.Lease
	if resp, err := coord.Complete(comp); err != nil {
		// The coordinator will expire the lease and re-queue; nothing
		// for the worker to do but move on.
		w.ob.Counter("queue.worker.complete_errors").Inc()
	} else if resp.Stale {
		w.ob.Counter("queue.worker.stale_completes").Inc()
	}
	return comp.Err == ""
}

// execute runs one leased shard.
func (w *Worker) execute(lease *dist.LeaseResponse) *dist.CompleteRequest {
	comp := &dist.CompleteRequest{}
	if lease.Kind == dist.JobCampaign {
		req := lease.Inject
		if len(req.Program) == 0 && req.ProgramHash != 0 {
			// The coordinator left the program out because this worker
			// advertised it; the bytes come back from the worker's own
			// memo. One evicted in between fails the shard, which is
			// then leased again, in full.
			wire, ok := dist.HeldProgram(req.ProgramHash)
			if !ok {
				comp.Err = fmt.Sprintf("queue: worker no longer holds program %016x", req.ProgramHash)
				return comp
			}
			req.Program = wire
		}
		st, err := dist.RunInjectCached(req, w.ob, w.golden)
		if err != nil {
			comp.Err = err.Error()
			return comp
		}
		comp.Stats = st
	} else {
		res, err := dist.RunEval(lease.Eval)
		if err != nil {
			comp.Err = err.Error()
			return comp
		}
		comp.Results = res
	}
	w.ob.Counter(w.executed).Inc()
	return comp
}
