package queue

import (
	"context"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/dist"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// testCampaign builds a small deterministic campaign plus the program's
// serializable form (mirrors internal/dist's fixture so queue results
// are comparable with push-mode results).
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

func campaignJob(t *testing.T, c *inject.Campaign, p *prog.Program) *dist.JobRequest {
	t.Helper()
	ireq, err := dist.NewInjectRequest(c, p)
	if err != nil {
		t.Fatal(err)
	}
	return &dist.JobRequest{Kind: dist.JobCampaign, Inject: &ireq}
}

// newTestCoordinator opens a coordinator over a temp data dir with fast
// lease handling and the given number of in-process executors.
func newTestCoordinator(t *testing.T, dir string, localExec int, reg *obs.Registry) *Coordinator {
	t.Helper()
	var ob *obs.Observer
	if reg != nil {
		ob = obs.New(reg, nil)
	}
	coord, err := NewCoordinator(Options{
		DataDir:      dir,
		ShardSize:    8,
		LeaseTimeout: 30 * time.Second,
		LocalExec:    localExec,
		Obs:          ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

func closeCoordinator(t *testing.T, c *Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// crashCoordinator simulates a kill -9: background goroutines stop and
// the WAL is dropped with NO drain and NO wait for outstanding leases —
// recovery must come entirely from the on-disk log.
func crashCoordinator(c *Coordinator) {
	close(c.stop)
	c.bg.Wait()
	c.wal.Close()
}

// The acceptance property: a campaign submitted through the queue is
// bit-identical to the in-process run.
func TestQueueCampaignBitIdentical(t *testing.T) {
	c, p := testCampaign(t, 40)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	coord := newTestCoordinator(t, t.TempDir(), 3, nil)
	defer closeCoordinator(t, coord)

	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Shards != 5 || sub.CacheHits != 0 {
		t.Fatalf("submit = %+v, want 5 shards, 0 cache hits", sub)
	}
	res, err := coord.Wait(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != dist.JobStateDone || !res.Stats.Equal(local) {
		t.Fatalf("queue result %+v != local %+v", res.Stats, local)
	}
}

// Re-submitting an identical campaign must be served entirely from the
// result cache: every shard a cache hit, zero new executions, and the
// merged stats still bit-identical.
func TestQueueResubmitFullyCached(t *testing.T) {
	c, p := testCampaign(t, 32)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord := newTestCoordinator(t, t.TempDir(), 2, reg)
	defer closeCoordinator(t, coord)

	sub1, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Wait(sub1.ID); err != nil {
		t.Fatal(err)
	}
	executed := reg.Counter("queue.shards.executed_local").Load()

	sub2, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	if sub2.CacheHits != sub2.Shards {
		t.Fatalf("resubmit: %d/%d shards cached", sub2.CacheHits, sub2.Shards)
	}
	res, err := coord.Wait(sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Equal(local) {
		t.Fatalf("cached result %+v != local %+v", res.Stats, local)
	}
	if got := reg.Counter("queue.shards.executed_local").Load(); got != executed {
		t.Fatalf("resubmit executed %d new shards", got-executed)
	}
	if reg.Counter("queue.cache.hits").Load() == 0 {
		t.Fatal("no cache hits counted")
	}
	st, _ := coord.Status(sub2.ID)
	if st.Cached != st.Shards {
		t.Fatalf("status reports %d/%d cached", st.Cached, st.Shards)
	}
}

// An eval job through the queue grades bit-identically to in-process
// grading.
func TestQueueEvalBitIdentical(t *testing.T) {
	gcfg := gen.DefaultConfig()
	gcfg.NumInstrs = 200
	rng := rand.New(rand.NewPCG(5, 6))
	var gs []*gen.Genotype
	for i := 0; i < 10; i++ {
		gs = append(gs, gen.NewRandom(&gcfg, rng))
	}
	st := coverage.IRF
	metric := coverage.MetricFor(st)
	ccfg := uarch.DefaultConfig()
	want := make([]core.EvalResult, len(gs))
	for i, g := range gs {
		want[i] = core.GradeGenotype(g, &gcfg, ccfg, metric)
	}

	coord := newTestCoordinator(t, t.TempDir(), 2, nil)
	defer closeCoordinator(t, coord)
	req := &dist.JobRequest{
		Kind: dist.JobEval,
		Eval: &dist.EvalRequest{
			Structure: st.String(),
			Gen:       gcfg,
			Core:      ccfg,
			Genotypes: dist.EncodeGenotypes(gs),
		},
	}
	sub, err := coord.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Wait(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(gs) {
		t.Fatalf("got %d results, want %d", len(res.Results), len(gs))
	}
	for i, r := range res.Results {
		if r.Fitness != want[i].Fitness {
			t.Fatalf("genotype %d: fitness %v != local %v", i, r.Fitness, want[i].Fitness)
		}
	}
}

// Kill the coordinator mid-campaign (no drain), restart it
// over the same directory, and the job must finish with bit-identical
// merged stats — partly from WAL-replayed shards, partly re-run.
func TestQueueCrashRestartMidCampaign(t *testing.T) {
	c, p := testCampaign(t, 40)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	coord := newTestCoordinator(t, dir, 0, nil) // no executors: we drive shards by hand
	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	// Complete two shards, leave one leased (in flight), two untouched.
	for i := 0; i < 2; i++ {
		lease, err := coord.Lease("w1", time.Second)
		if err != nil || lease.JobID == "" {
			t.Fatalf("lease %d: %+v, %v", i, lease, err)
		}
		st, err := dist.RunInjectCached(lease.Inject, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Complete(&dist.CompleteRequest{
			Worker: "w1", JobID: lease.JobID, Shard: lease.Shard, Lease: lease.Lease, Stats: st,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if lease, err := coord.Lease("w1", time.Second); err != nil || lease.JobID == "" {
		t.Fatalf("in-flight lease: %+v, %v", lease, err)
	}
	crashCoordinator(coord)

	// Restart: the WAL has the submit + 2 shard completions; the
	// in-flight lease was never logged, so its shard must be re-queued.
	reg := obs.NewRegistry()
	coord2 := newTestCoordinator(t, dir, 2, reg)
	defer closeCoordinator(t, coord2)
	if got := reg.Counter("queue.wal.replayed").Load(); got < 3 {
		t.Fatalf("replayed %d WAL records, want >= 3", got)
	}
	res, err := coord2.Wait(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Equal(local) {
		t.Fatalf("post-crash result %+v != local %+v", res.Stats, local)
	}
}

// A crash that tears the WAL tail (a partially flushed record) must
// lose only the torn record: restart re-runs that shard and the final
// stats stay bit-identical.
func TestQueueCrashTruncatedWAL(t *testing.T) {
	c, p := testCampaign(t, 24)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	coord := newTestCoordinator(t, dir, 0, nil)
	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		lease, err := coord.Lease("w1", time.Second)
		if err != nil || lease.JobID == "" {
			t.Fatalf("lease %d: %+v, %v", i, lease, err)
		}
		st, err := dist.RunInjectCached(lease.Inject, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Complete(&dist.CompleteRequest{
			Worker: "w1", JobID: lease.JobID, Shard: lease.Shard, Lease: lease.Lease, Stats: st,
		}); err != nil {
			t.Fatal(err)
		}
	}
	crashCoordinator(coord)

	// Tear the last 5 bytes off the WAL: the second completion record is
	// now torn and must be dropped at replay.
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	coord2 := newTestCoordinator(t, dir, 2, nil)
	defer closeCoordinator(t, coord2)
	res, err := coord2.Wait(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Equal(local) {
		t.Fatalf("post-truncation result %+v != local %+v", res.Stats, local)
	}
}

// A graceful Close leaves wal.log as the data dir's only file, and a
// restart serves the finished job from replaying it alone.
func TestQueueGracefulShutdownReplaysWAL(t *testing.T) {
	c, p := testCampaign(t, 16)
	dir := t.TempDir()
	coord := newTestCoordinator(t, dir, 2, nil)
	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := coord.Wait(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	closeCoordinator(t, coord)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.log" {
		t.Fatalf("data dir after graceful close holds %v, want only wal.log", entries)
	}

	reg := obs.NewRegistry()
	coord2 := newTestCoordinator(t, dir, 0, reg)
	defer closeCoordinator(t, coord2)
	if got := reg.Counter("queue.wal.replayed").Load(); got != int64(1+sub.Shards) {
		t.Fatalf("replayed %d records, want the submit and %d shard completions", got, sub.Shards)
	}
	res2, err := coord2.Result(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.State != dist.JobStateDone || !res2.Stats.Equal(res1.Stats) {
		t.Fatalf("replayed result %+v != original %+v", res2.Stats, res1.Stats)
	}
}

// Replay is idempotent: a log holding every record twice — submits,
// shard completions and a cancellation — rebuilds the same table, the
// duplicate submits counted rather than fatal.
func TestReplayIsIdempotent(t *testing.T) {
	c, p := testCampaign(t, 24)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	coord := newTestCoordinator(t, dir, 0, nil)
	done, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	drainWith(t, coord, coord, nil, done.ID)
	c.Seed++ // a fresh job: none of its shards is in the table
	cancelled, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}
	crashCoordinator(coord)

	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, append(data, data[walHeaderSize:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord2 := newTestCoordinator(t, dir, 0, reg)
	defer closeCoordinator(t, coord2)
	if got := reg.Counter("queue.wal.replay_duplicates").Load(); got != 2 {
		t.Fatalf("replay_duplicates = %d, want 2 (both submits)", got)
	}
	res, err := coord2.Result(done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != dist.JobStateDone || !res.Stats.Equal(local) {
		t.Fatalf("result replayed from a doubled log %+v (%s) != local %+v", res.Stats, res.State, local)
	}
	if st, _ := coord2.Status(done.ID); st.Done != done.Shards {
		t.Fatalf("%d of %d shards done after replay", st.Done, done.Shards)
	}
	if st, _ := coord2.Status(cancelled.ID); st.State != dist.JobStateCancelled || st.Done != 0 {
		t.Fatalf("cancelled job replayed as %+v", st)
	}
	next, err := coord2.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j-000002" {
		t.Fatalf("submit after replay got id %s, want j-000002", next.ID)
	}
}

// A data dir holding an older build's snapshot.json — its whole job
// table, beside an empty WAL — is refused, naming the file, rather than
// opened as if the table were empty.
func TestRefusesLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(legacy, []byte(`{"version":1,"next_seq":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Options{DataDir: dir})
	if err == nil {
		crashCoordinator(coord)
		t.Fatal("opened a data dir holding snapshot.json")
	}
	if !strings.Contains(err.Error(), legacy) {
		t.Fatalf("refusal %q does not name %s", err, legacy)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
		t.Fatalf("refused data dir got a wal.log: %v", err)
	}
}

// A data dir whose wal.log holds an older build's JSON submit record
// (kind 1) is refused, naming the file, rather than replayed without
// the jobs it describes.
func TestRefusesJSONSubmitRecord(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	// "HQWL" v1, then one kind-1 record as an older coordinator wrote it.
	file := append([]byte{0x4c, 0x57, 0x51, 0x48, 1, 0, 0, 0}, pinnedFrame([]byte{1},
		[]byte(`{"id":"j-000000","seq":0,"req":{"kind":"campaign","inject":{"program":"AA==","target":"irf","type":"transient","n":8,"lo":0,"hi":0,"seed":0,"cfg":{}}},"bounds":[[0,8]]}`))...)
	if err := os.WriteFile(walPath, file, 0o644); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Options{DataDir: dir})
	if err == nil {
		crashCoordinator(coord)
		t.Fatal("opened a wal.log holding a JSON submit record")
	}
	if !strings.Contains(err.Error(), walPath) {
		t.Fatalf("refusal %q does not name %s", err, walPath)
	}
	if got, _ := os.ReadFile(walPath); string(got) != string(file) {
		t.Fatal("the refused wal.log was rewritten")
	}
}

// An expired lease re-queues its shard for the next worker; the late
// completion from the original holder is discarded as stale.
func TestQueueLeaseExpiryRequeue(t *testing.T) {
	c, p := testCampaign(t, 8)
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(Options{
		DataDir:      t.TempDir(),
		ShardSize:    8, // one shard
		LeaseTimeout: 50 * time.Millisecond,
		Obs:          obs.New(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCoordinator(t, coord)
	if _, err := coord.Submit(campaignJob(t, c, p)); err != nil {
		t.Fatal(err)
	}
	lease1, err := coord.Lease("slow", time.Second)
	if err != nil || lease1.JobID == "" {
		t.Fatalf("lease: %+v, %v", lease1, err)
	}
	time.Sleep(100 * time.Millisecond)

	// The shard must be leasable again.
	lease2, err := coord.Lease("fast", 2*time.Second)
	if err != nil || lease2.JobID != lease1.JobID || lease2.Shard != lease1.Shard {
		t.Fatalf("re-lease: %+v, %v", lease2, err)
	}
	if reg.Counter("queue.lease.expirations").Load() == 0 {
		t.Fatal("no expiration counted")
	}
	st, err := dist.RunInjectCached(lease2.Inject, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The slow worker's late completion is stale.
	resp, err := coord.Complete(&dist.CompleteRequest{
		Worker: "slow", JobID: lease1.JobID, Shard: lease1.Shard, Lease: lease1.Lease, Stats: st,
	})
	if err != nil || !resp.Stale {
		t.Fatalf("late complete = %+v, %v; want stale", resp, err)
	}
	// The re-lease completes normally.
	resp, err = coord.Complete(&dist.CompleteRequest{
		Worker: "fast", JobID: lease2.JobID, Shard: lease2.Shard, Lease: lease2.Lease, Stats: st,
	})
	if err != nil || resp.Stale {
		t.Fatalf("re-lease complete = %+v, %v", resp, err)
	}
	status, _ := coord.Status(lease2.JobID)
	if status.State != dist.JobStateDone {
		t.Fatalf("job state %s after completion", status.State)
	}
}

// Cancelled jobs stop leasing and report their state.
func TestQueueCancel(t *testing.T) {
	c, p := testCampaign(t, 16)
	reg := obs.NewRegistry()
	coord := newTestCoordinator(t, t.TempDir(), 0, reg)
	defer closeCoordinator(t, coord)
	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	if err := coord.Cancel(sub.ID); err == nil {
		t.Fatal("double cancel succeeded")
	}
	if lease, _ := coord.Lease("w", 50*time.Millisecond); lease.JobID != "" {
		t.Fatalf("leased shard %d of a cancelled job", lease.Shard)
	}
	st, _ := coord.Status(sub.ID)
	if st.State != dist.JobStateCancelled {
		t.Fatalf("state = %s", st.State)
	}
	if reg.Counter("queue.jobs.cancelled").Load() != 1 {
		t.Fatal("cancel not counted")
	}
	res, err := coord.Wait(sub.ID)
	if err != nil || res.State != dist.JobStateCancelled {
		t.Fatalf("wait on cancelled job = %+v, %v", res, err)
	}
}

// Higher-priority jobs lease first regardless of submit order.
func TestQueuePriorityOrder(t *testing.T) {
	c, p := testCampaign(t, 8)
	coord := newTestCoordinator(t, t.TempDir(), 0, nil)
	defer closeCoordinator(t, coord)
	low, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	highReq := campaignJob(t, c, p)
	highReq.Priority = 5
	// Identical campaign — but the first job's shards aren't done yet, so
	// nothing is cached and both jobs need leases.
	high, err := coord.Submit(highReq)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := coord.Lease("w", time.Second)
	if err != nil || lease.JobID != high.ID {
		t.Fatalf("first lease went to %s, want high-priority %s (%v)", lease.JobID, high.ID, err)
	}
	// Cancel both jobs so Close doesn't wait out the un-returned lease.
	for _, id := range []string{low.ID, high.ID} {
		if err := coord.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

// Full HTTP round trip: coordinator behind httptest, a pulling Worker,
// a Client submitting and awaiting. The merged result is bit-identical;
// a second identical job is served by the coordinator without the worker
// seeing a single lease.
func TestQueueHTTPEndToEnd(t *testing.T) {
	cmp, p := testCampaign(t, 40)
	local, err := cmp.Run()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord := newTestCoordinator(t, t.TempDir(), 0, reg)
	defer closeCoordinator(t, coord)
	srv := httptest.NewServer(NewServer(coord).Handler())
	defer srv.Close()

	wreg := obs.NewRegistry()
	worker, err := NewWorker(srv.URL, WorkerOptions{
		Name:   "puller",
		WaitMs: 200,
		Obs:    obs.New(wreg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); worker.Run(ctx) }()

	client := NewClient(srv.URL)
	client.PollInterval = 20 * time.Millisecond
	sub, err := client.SubmitCampaign(cmp, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawProgress bool
	res, err := client.Await(sub.ID, func(st *dist.JobStatus) {
		if st.Done > 0 {
			sawProgress = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Equal(local) {
		t.Fatalf("HTTP result %+v != local %+v", res.Stats, local)
	}
	if !sawProgress {
		t.Fatal("Await never reported progress")
	}

	// Second identical submit: pure coordinator-cache hits.
	sub2, err := client.SubmitCampaign(cmp, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.CacheHits != sub2.Shards {
		t.Fatalf("resubmit over HTTP: %d/%d cached", sub2.CacheHits, sub2.Shards)
	}
	res2, err := client.Await(sub2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.Equal(local) {
		t.Fatalf("cached HTTP result %+v != local %+v", res2.Stats, local)
	}

	// Job list over HTTP sees both jobs.
	jobs, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(jobs))
	}
	cancel()
	<-workerDone
}

// The queue-backed evaluator is a drop-in for core.Evaluator: results
// arrive in input order with in-process fitness values.
func TestQueueClientEvaluator(t *testing.T) {
	gcfg := gen.DefaultConfig()
	gcfg.NumInstrs = 150
	rng := rand.New(rand.NewPCG(8, 9))
	var gs []*gen.Genotype
	for i := 0; i < 6; i++ {
		gs = append(gs, gen.NewRandom(&gcfg, rng))
	}
	st := coverage.IRF
	metric := coverage.MetricFor(st)
	ccfg := uarch.DefaultConfig()

	coord := newTestCoordinator(t, t.TempDir(), 2, nil)
	defer closeCoordinator(t, coord)
	srv := httptest.NewServer(NewServer(coord).Handler())
	defer srv.Close()

	client := NewClient(srv.URL)
	client.PollInterval = 20 * time.Millisecond
	ev := client.Evaluator()
	if err := ev.Configure(st, gcfg, ccfg); err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvaluateBatch(gs)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gs {
		want := core.GradeGenotype(g, &gcfg, ccfg, metric)
		if got[i].Fitness != want.Fitness {
			t.Fatalf("genotype %d: queue fitness %v != local %v", i, got[i].Fitness, want.Fitness)
		}
	}
}
