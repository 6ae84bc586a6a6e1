package queue

import (
	"strings"
	"testing"

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
	"harpocrates/internal/uarch"
)

// A job whose executor keeps failing — here a golden run that times out,
// which no campaign may grade against — used to be re-queued for ever at
// the head of the queue: it never ended and nothing behind it started.
// It fails after maxShardFailures reports of one shard, with the
// executor's message; the job behind it completes; a completion that
// arrives afterwards is stale; and a restart from wal.log, after a crash
// or a clean shutdown alike, brings the failure back.
func TestPoisonJobFailsAndQueueMovesOn(t *testing.T) {
	c, p := testCampaign(t, 16)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	poison := campaignJob(t, c, p)
	poison.Inject.Cfg.MaxCycles = 5

	dir := t.TempDir()
	reg := obs.NewRegistry()
	coord := newTestCoordinator(t, dir, 0, reg)
	bad, err := coord.Submit(poison)
	if err != nil {
		t.Fatal(err)
	}
	good, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	straggler, err := coord.Lease("straggler", 0)
	if err != nil || straggler.JobID != bad.ID {
		t.Fatalf("first lease = %+v, %v; want a shard of %s", straggler, err, bad.ID)
	}

	if res := drainWith(t, coord, coord, reg, good.ID); res.State != dist.JobStateDone || !res.Stats.Equal(local) {
		t.Fatalf("job behind the poisoned one = %+v; want local %+v", res, local)
	}

	failed := func(coord *Coordinator, when string) {
		t.Helper()
		st, ok := coord.Status(bad.ID)
		if !ok || st.State != dist.JobStateFailed || !strings.Contains(st.Error, "refusing to classify") {
			t.Fatalf("%s: poisoned job = %+v, want failed with the executor's message", when, st)
		}
		if res, err := coord.Wait(bad.ID); err != nil || res.State != dist.JobStateFailed || res.Stats != nil {
			t.Fatalf("%s: wait on the poisoned job = %+v, %v", when, res, err)
		}
		if lease, _ := coord.Lease("w", 0); lease.JobID != "" {
			t.Fatalf("%s: leased shard %d of failed job %s", when, lease.Shard, lease.JobID)
		}
	}
	failed(coord, "live")
	if got := reg.Counter("queue.shard.failures").Load(); got != maxShardFailures {
		t.Fatalf("queue.shard.failures = %d, want %d", got, maxShardFailures)
	}
	if got := reg.Counter("queue.jobs.failed").Load(); got != 1 {
		t.Fatalf("queue.jobs.failed = %d", got)
	}
	resp, err := coord.Complete(&dist.CompleteRequest{
		Worker: "straggler", JobID: straggler.JobID, Shard: straggler.Shard, Lease: straggler.Lease, Err: "late",
	})
	if err != nil || !resp.Stale {
		t.Fatalf("completion after the failure = %+v, %v; want stale", resp, err)
	}

	crashCoordinator(coord)
	coord = newTestCoordinator(t, dir, 0, nil)
	failed(coord, "replayed from the WAL")
	closeCoordinator(t, coord)
	coord = newTestCoordinator(t, dir, 0, nil)
	defer closeCoordinator(t, coord)
	failed(coord, "replayed after a graceful Close")
}

// A job no executor could run — a name that does not parse, a core
// configuration left unset or half set — is refused at submit, before it
// is durable. One that an older coordinator already accepted into its
// WAL replays, and fails through its executor's error; it used to panic
// whichever process leased it, again on every restart.
func TestUnrunnableJobRefusedOrFailed(t *testing.T) {
	c, p := testCampaign(t, 8)
	dir := t.TempDir()
	coord := newTestCoordinator(t, dir, 0, nil)
	for name, spoil := range map[string]func(*dist.InjectRequest){
		"no cfg":       func(r *dist.InjectRequest) { r.Cfg = uarch.Config{} },
		"partial cfg":  func(r *dist.InjectRequest) { r.Cfg = uarch.Config{IntPRF: 4} },
		"bogus target": func(r *dist.InjectRequest) { r.Target = "bogus" },
		"bogus type":   func(r *dist.InjectRequest) { r.Type = "bogus" },
	} {
		req := campaignJob(t, c, p)
		spoil(req.Inject)
		if sub, err := coord.Submit(req); err == nil {
			t.Errorf("%s: accepted as %+v", name, sub)
		}
	}
	eval := evalJob(2)
	eval.Eval.Core = uarch.Config{}
	if sub, err := coord.Submit(eval); err == nil {
		t.Errorf("eval job without a core configuration accepted as %+v", sub)
	}
	if n := len(coord.List()); n != 0 {
		t.Fatalf("%d refused jobs are listed", n)
	}

	old := campaignJob(t, c, p)
	old.Inject.Cfg = uarch.Config{}
	frame, err := dist.EncodeJobRequest(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.wal.appendFrame(recSubmit, submitRecord(&walSubmit{ID: "j-000000", Bounds: [][2]int{{0, 8}}}, frame)); err != nil {
		t.Fatal(err)
	}
	if err := coord.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	crashCoordinator(coord)
	coord = newTestCoordinator(t, dir, 0, nil)
	defer closeCoordinator(t, coord)
	if res := drainWith(t, coord, coord, obs.NewRegistry(), "j-000000"); res.State != dist.JobStateFailed {
		t.Fatalf("replayed cfg-less job = %+v; want failed", res)
	}
	if st, _ := coord.Status("j-000000"); !strings.Contains(st.Error, "uarch: config") {
		t.Fatalf("replayed cfg-less job failed with %q", st.Error)
	}
}
