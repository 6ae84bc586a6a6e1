package queue

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
)

// finishJobs submits n small jobs and cancels each: history a
// long-lived coordinator accumulates, none of it open.
func finishJobs(tb testing.TB, coord *Coordinator, n int) {
	tb.Helper()
	req := evalJob(1)
	for i := 0; i < n; i++ {
		sub, err := coord.Submit(req)
		if err != nil {
			tb.Fatal(err)
		}
		if err := coord.Cancel(sub.ID); err != nil {
			tb.Fatal(err)
		}
	}
}

// The lease pick order — priority descending, then submit order, then
// shard index — is the same on a fresh coordinator and behind 2,000
// finished jobs, which the hot paths no longer walk.
func TestLeasePickOrder(t *testing.T) {
	coord := newTestCoordinator(t, t.TempDir(), 0, nil)
	defer closeCoordinator(t, coord)
	jobs := []struct{ prio, genotypes int }{ // EvalShardSize 8: 1, 2, 1, 2 shards
		{0, 3}, {5, 12}, {0, 8}, {5, 9},
	}
	type pick struct{ job, shard int }
	want := []pick{{1, 0}, {1, 1}, {3, 0}, {3, 1}, {0, 0}, {2, 0}}

	for _, history := range []int{0, 2000} {
		finishJobs(t, coord, history)
		var ids []string
		for _, j := range jobs {
			req := evalJob(j.genotypes)
			req.Priority = j.prio
			sub, err := coord.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, sub.ID)
		}
		if got := len(coord.open); got != len(jobs) {
			t.Fatalf("after %d finished jobs: %d open jobs, want %d", history, got, len(jobs))
		}
		for n, w := range want {
			lease, err := coord.Lease("w", 0)
			if err != nil {
				t.Fatal(err)
			}
			if lease.JobID != ids[w.job] || lease.Shard != w.shard {
				t.Fatalf("after %d finished jobs: lease %d is %s shard %d, want %s shard %d",
					history, n, lease.JobID, lease.Shard, ids[w.job], w.shard)
			}
		}
		if lease, _ := coord.Lease("w", 0); lease.JobID != "" {
			t.Fatalf("after %d finished jobs: a seventh lease %+v", history, lease)
		}
		for _, id := range ids {
			if err := coord.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		if len(coord.open) != 0 {
			t.Fatalf("%d jobs still open after cancelling all", len(coord.open))
		}
	}
}

// One lease + give-back cycle (no WAL traffic) behind 2,000 finished
// jobs: flat in the history's length now that only open jobs are walked.
func BenchmarkLeaseAfterHistory(b *testing.B) {
	coord, err := NewCoordinator(Options{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close(context.Background())
	finishJobs(b, coord, 2000)
	if _, err := coord.Submit(evalJob(1)); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		lease, err := coord.Lease("w", 0)
		if err != nil || lease.JobID == "" {
			b.Fatalf("lease %+v, %v", lease, err)
		}
		if _, err := coord.Complete(&dist.CompleteRequest{
			JobID: lease.JobID, Shard: lease.Shard, Lease: lease.Lease, Err: "give back",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// drainParked serves coord over HTTP, parks poll on it, then drains
// coord and shuts the server down — cmd/harpoq's SIGTERM order — and
// fails unless the shutdown returned within a second. It returns poll's
// error.
func drainParked(t *testing.T, coord *Coordinator, poll func(client *http.Client, base string) error) error {
	t.Helper()
	srv := httptest.NewUnstartedServer(NewServer(coord).Handler())
	polling := make(chan struct{}, 1)
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateActive {
			select {
			case polling <- struct{}{}:
			default:
			}
		}
	}
	srv.Start()
	defer srv.Close()
	answered := make(chan error, 1)
	go func() { answered <- poll(srv.Client(), srv.URL) }()
	<-polling // the poll's request is on the server

	t0 := time.Now()
	coord.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("shutdown took %v behind a parked poll, want < 1s", took)
	}
	return <-answered
}

// SIGTERM order of cmd/harpoq: Drain, then http.Server.Shutdown. A
// worker parked in a 30 s long poll is answered empty by the drain, so
// the HTTP shutdown does not wait the poll out.
func TestDrainAnswersParkedLease(t *testing.T) {
	coord := newTestCoordinator(t, t.TempDir(), 0, nil)
	defer closeCoordinator(t, coord)
	var lease dist.LeaseResponse
	err := drainParked(t, coord, func(client *http.Client, base string) error {
		req := dist.LeaseRequest{Worker: "idle", WaitMs: 30_000}
		return dist.PostJSON(context.Background(), client, base+dist.PathLease, &req, &lease)
	})
	if err != nil || lease.JobID != "" {
		t.Fatalf("parked lease answered %+v, %v; want empty", lease, err)
	}
	if _, err := coord.Submit(evalJob(1)); err == nil {
		t.Fatal("a draining coordinator accepted a submit")
	}
}

// The same for a client parked in a 30 s status long poll: the drain
// answers it with the job's status within drainPace.
func TestDrainAnswersParkedAwait(t *testing.T) {
	coord := newTestCoordinator(t, t.TempDir(), 0, nil)
	defer closeCoordinator(t, coord)
	sub, err := coord.Submit(evalJob(1)) // no worker: it stays pending
	if err != nil {
		t.Fatal(err)
	}
	var st dist.JobStatus
	err = drainParked(t, coord, func(client *http.Client, base string) error {
		return dist.GetJSON(context.Background(), client, base+dist.PathJobs+"/"+sub.ID+"?wait_ms=30000&done=0", &st)
	})
	if err != nil || st.ID != sub.ID || st.State != dist.JobStatePending {
		t.Fatalf("parked status poll answered %+v, %v; want the pending job", st, err)
	}
}

// The rest of that order: between Drain and http.Server.Shutdown the
// daemon waits for the outstanding leases, so a worker that finishes
// during the drain still reaches /v1/complete. Nothing is left
// undrained and the restarted coordinator has nothing to re-run.
func TestShutdownTakesCompletionDuringDrain(t *testing.T) {
	c, p := testCampaign(t, 8) // one shard
	dir := t.TempDir()
	reg := obs.NewRegistry()
	coord := newTestCoordinator(t, dir, 0, reg)
	srv := httptest.NewServer(NewServer(coord).Handler())
	defer srv.Close()
	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	worker := httpLeaser{ctx: context.Background(), base: srv.URL, client: srv.Client()}
	lease, err := worker.Lease("w", time.Second)
	if err != nil || lease.JobID != sub.ID {
		t.Fatalf("lease %+v, %v", lease, err)
	}
	st, err := dist.RunInjectCached(lease.Inject, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord.Drain()
	waited := make(chan int, 1)
	go func() { waited <- coord.WaitLeases(ctx) }()
	resp, err := worker.Complete(&dist.CompleteRequest{
		Worker: "w", JobID: lease.JobID, Shard: lease.Shard, Lease: lease.Lease, Stats: st,
	})
	if err != nil || resp.Stale {
		t.Fatalf("complete during the drain = %+v, %v", resp, err)
	}
	if n := <-waited; n != 0 {
		t.Fatalf("WaitLeases = %d after the completion, want 0", n)
	}
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	closeCoordinator(t, coord)
	if n := reg.Counter("queue.close.undrained_leases").Load(); n != 0 {
		t.Fatalf("queue.close.undrained_leases = %d, want 0", n)
	}

	coord2 := newTestCoordinator(t, dir, 0, nil)
	defer closeCoordinator(t, coord2)
	if res, err := coord2.Result(sub.ID); err != nil || res.State != dist.JobStateDone || !res.Stats.Equal(st) {
		t.Fatalf("restored result %+v, %v; want the completed shard's stats", res, err)
	}
	if again, err := coord2.Lease("w", 0); err != nil || again.JobID != "" {
		t.Fatalf("restarted coordinator leased %+v, %v; want nothing to re-run", again, err)
	}
}
