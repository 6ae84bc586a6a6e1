package queue

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"harpocrates/internal/corpus"
	"harpocrates/internal/coverage"
	"harpocrates/internal/dist"
	"harpocrates/internal/inject"
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

// TestNotAFaultTargetRefused: the gshare counters, the ROB's next-PC
// fields and the L2 tags are structures but not fault targets. Every door
// a campaign comes through — Validate, corpus ranking and POST /v1/jobs
// (400) — refuses each under every name it parses from, saying which
// structure and why, and none panics on the way (DefaultFaultType comes
// first in faultsim and NewDetectionCampaign).
func TestNotAFaultTargetRefused(t *testing.T) {
	c, p := testCampaign(t, 8)
	coord := newTestCoordinator(t, t.TempDir(), 0, nil)
	defer closeCoordinator(t, coord)
	srv := httptest.NewServer(NewServer(coord).Handler())
	defer srv.Close()
	store, err := corpus.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		names []string
		why   string
	}{
		{[]string{"Gshare", "bpred", "bp"}, "gshare counter"},
		{[]string{"ROBMeta", "rob"}, "next-PC"},
		{[]string{"L2Tags", "l2", "l2tag"}, "tags only"},
	} {
		for _, name := range tc.names {
			st, err := coverage.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.Add(p, nil, corpus.Meta{Structure: st.String()}); err != nil {
				t.Fatal(err)
			}
			refused := func(door, msg string) {
				if !strings.Contains(msg, st.String()) || !strings.Contains(msg, tc.why) {
					t.Errorf("%s through %s: %q; want a refusal naming %v and why", name, door, msg, st)
				}
			}
			ft := inject.DefaultFaultType(st)
			model := *c
			model.Target, model.Type = st, ft
			if err := model.Validate(); err == nil {
				t.Errorf("%s: Validate accepted it", name)
			} else {
				refused("Validate", err.Error())
			}
			if ranked, _, err := store.Rank(&model, false, nil); err == nil || ranked != 0 {
				t.Errorf("%s: corpus.Rank ranked %d, err %v", name, ranked, err)
			} else {
				refused("corpus.Rank", err.Error())
			}
			req := campaignJob(t, c, p)
			req.Inject.Target, req.Inject.Type = name, ft.String()
			frame, err := dist.EncodeJobRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Post(srv.URL+dist.PathJobs, dist.JobContentType, bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: POST %s answered %s", name, dist.PathJobs, resp.Status)
			}
			refused("POST "+dist.PathJobs, string(msg))
		}
	}
	if jobs := coord.List(); len(jobs) != 0 {
		t.Fatalf("refused jobs are listed: %+v", jobs)
	}
}
