package queue

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
)

// fakeLeaser scripts the coordinator side of the leaser seam: Lease
// plays the queued answers in order, then reports "nothing ready";
// Complete records what the worker returned.
type fakeLeaser struct {
	mu        sync.Mutex
	leases    []*dist.LeaseResponse
	leaseErr  error
	stale     bool
	calls     int
	completed []*dist.CompleteRequest
	done      chan struct{} // closed by the first Complete
}

func (f *fakeLeaser) Lease(worker string, wait time.Duration, _ ...uint64) (*dist.LeaseResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.leaseErr != nil {
		return nil, f.leaseErr
	}
	if len(f.leases) == 0 {
		time.Sleep(time.Millisecond)
		return &dist.LeaseResponse{}, nil
	}
	l := f.leases[0]
	f.leases = f.leases[1:]
	return l, nil
}

func (f *fakeLeaser) Complete(req *dist.CompleteRequest) (*dist.CompleteResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.completed = append(f.completed, req)
	if len(f.completed) == 1 && f.done != nil {
		close(f.done)
	}
	return &dist.CompleteResponse{OK: true, Stale: f.stale}, nil
}

// runAgainst drives the worker loop against a fake coordinator (no HTTP
// server anywhere) until stop returns, then cancels and joins it.
func runAgainst(t *testing.T, w *Worker, f *fakeLeaser, wait func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	go func() { defer close(finished); w.run(ctx, f) }()
	wait()
	cancel()
	<-finished
}

func shardLease(t *testing.T, n int) *dist.LeaseResponse {
	t.Helper()
	c, p := testCampaign(t, n)
	req := campaignJob(t, c, p).Inject
	req.Lo, req.Hi = 0, n
	return &dist.LeaseResponse{JobID: "j-000001", Shard: 3, Lease: 17, Kind: dist.JobCampaign, Inject: req}
}

func testWorker(t *testing.T, reg *obs.Registry, backoff time.Duration) *Worker {
	t.Helper()
	w, err := NewWorker("unused:1", WorkerOptions{Name: "w", WaitMs: 1, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	w.errorBackoff = backoff
	return w
}

// A coordinator that cannot be leased from is retried at the error
// backoff's pace, not in a spin, and every failure is counted.
func TestWorkerLeaseErrorsBackOff(t *testing.T) {
	reg := obs.NewRegistry()
	f := &fakeLeaser{leaseErr: errors.New("coordinator restarting")}
	runAgainst(t, testWorker(t, reg, 20*time.Millisecond), f, func() { time.Sleep(110 * time.Millisecond) })
	if f.calls < 2 || f.calls > 7 {
		t.Fatalf("%d lease attempts in 110ms at a 20ms backoff", f.calls)
	}
	if got := reg.Counter("queue.worker.lease_errors").Load(); got != int64(f.calls) {
		t.Fatalf("lease_errors = %d, want %d", got, f.calls)
	}
	if len(f.completed) != 0 {
		t.Fatalf("completed %d shards without a lease", len(f.completed))
	}
}

// A completion the coordinator calls stale is counted and otherwise
// ignored; the completion carries the lease's identity and the stats.
func TestWorkerStaleCompletion(t *testing.T) {
	reg := obs.NewRegistry()
	lease := shardLease(t, 4)
	f := &fakeLeaser{leases: []*dist.LeaseResponse{lease}, stale: true, done: make(chan struct{})}
	runAgainst(t, testWorker(t, reg, time.Second), f, func() { <-f.done })
	if got := reg.Counter("queue.worker.stale_completes").Load(); got != 1 {
		t.Fatalf("stale_completes = %d, want 1", got)
	}
	comp := f.completed[0]
	if comp.Worker != "w" || comp.JobID != lease.JobID || comp.Shard != 3 || comp.Lease != 17 {
		t.Fatalf("completion identity %+v does not match the lease", comp)
	}
	want, err := dist.RunInjectCached(lease.Inject, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Err != "" || !comp.Stats.Equal(want) {
		t.Fatalf("completion %+v, want stats %+v", comp, want)
	}
}

// An executor failure travels back as CompleteRequest.Err and paces the
// next lease.
func TestWorkerExecutorError(t *testing.T) {
	reg := obs.NewRegistry()
	lease := shardLease(t, 4)
	lease.Inject.Program = []byte("not an HXPG program")
	f := &fakeLeaser{leases: []*dist.LeaseResponse{lease}, done: make(chan struct{})}
	// An hour's backoff: a second lease before cancel fails the test.
	w := testWorker(t, reg, time.Hour)
	runAgainst(t, w, f, func() { <-f.done; time.Sleep(10 * time.Millisecond) })
	comp := f.completed[0]
	if comp.Err == "" || comp.Stats != nil {
		t.Fatalf("completion %+v, want only Err", comp)
	}
	if f.calls != 1 {
		t.Fatalf("%d lease calls; the failed shard should have backed the worker off", f.calls)
	}
	if got := reg.Counter("queue.worker.shards_executed").Load(); got != 0 {
		t.Fatalf("shards_executed = %d for a failed shard", got)
	}
}

// The same campaign job through both transports of the one worker loop
// — in-process Workers (Options.LocalExec) and a Worker over HTTP — is
// bit-identical to Campaign.Run().
func TestQueueTransportsBitIdentical(t *testing.T) {
	c, p := testCampaign(t, 40)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		localExec int
		counter   string
	}{
		{"in-process", 2, "queue.shards.executed_local"},
		{"httptest", 0, "queue.worker.shards_executed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			coord := newTestCoordinator(t, t.TempDir(), tc.localExec, reg)
			defer closeCoordinator(t, coord)
			if tc.localExec == 0 {
				srv := httptest.NewServer(NewServer(coord).Handler())
				defer srv.Close()
				w, err := NewWorker(srv.URL, WorkerOptions{Name: "w", WaitMs: 100, Obs: obs.New(reg, nil)})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				ctx, cancel := context.WithCancel(context.Background())
				finished := make(chan struct{})
				go func() { defer close(finished); w.Run(ctx) }()
				defer func() { cancel(); <-finished }()
			}
			sub, err := coord.Submit(campaignJob(t, c, p))
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.Wait(sub.ID)
			if err != nil {
				t.Fatal(err)
			}
			if res.State != dist.JobStateDone || !res.Stats.Equal(local) {
				t.Fatalf("%s result %+v != local %+v", tc.name, res.Stats, local)
			}
			if got := reg.Counter(tc.counter).Load(); got != int64(sub.Shards) {
				t.Fatalf("%s = %d, want %d", tc.counter, got, sub.Shards)
			}
		})
	}
}
