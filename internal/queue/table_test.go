package queue

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
)

// openTableCoordinator opens a coordinator with no executors over dir.
func openTableCoordinator(t *testing.T, dir string, reg *obs.Registry) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(Options{
		DataDir: dir, ShardSize: 8, EvalShardSize: 4, LeaseTimeout: 30 * time.Second, Obs: obs.New(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// completeByHand leases, runs and completes the next n ready shards.
func completeByHand(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lease, err := c.Lease("hand", 0)
		if err != nil || lease.JobID == "" {
			t.Fatalf("lease %d: %+v, %v", i, lease, err)
		}
		st, err := dist.RunInjectCached(lease.Inject, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Complete(&dist.CompleteRequest{
			Worker: "hand", JobID: lease.JobID, Shard: lease.Shard, Lease: lease.Lease, Stats: st,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// A finished shard is stored once, in the coordinator's job table, and
// every way the coordinator comes back over its data dir rebuilds it from
// wal.log: a resubmit after a graceful restart, a kill -9, or a restart
// with <data>/cache deleted is served
// every shard any earlier job finished — done, cancelled or failed — and
// merges bit-identically to the in-process run. (The last leg is the one
// a separate cache directory could not survive.)
func TestResubmitServedFromJobTable(t *testing.T) {
	c, p := testCampaign(t, 40) // 5 shards
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	evalReq := func() *dist.JobRequest { return evalJob(11) } // 3 shards
	evalLocal, err := dist.RunEval(evalReq().Eval)
	if err != nil {
		t.Fatal(err)
	}
	evalWant, err := json.Marshal(evalLocal)
	if err != nil {
		t.Fatal(err)
	}
	campaign := func() *dist.JobRequest { return campaignJob(t, c, p) }
	checkCampaign := func(t *testing.T, res *dist.JobResult) {
		if res.State != dist.JobStateDone || !res.Stats.Equal(local) {
			t.Fatalf("resubmitted result %+v (%s) != local %+v", res.Stats, res.State, local)
		}
	}

	jobs := []struct {
		name string
		req  func() *dist.JobRequest
		// settle drives the first submit to the state under test and
		// returns how many of its shards are done.
		settle func(t *testing.T, coord *Coordinator, id string) int
		check  func(t *testing.T, res *dist.JobResult)
	}{
		{"campaign", campaign, func(t *testing.T, coord *Coordinator, id string) int {
			drainWith(t, coord, coord, nil, id)
			return 5
		}, checkCampaign},
		{"eval", evalReq, func(t *testing.T, coord *Coordinator, id string) int {
			drainWith(t, coord, coord, nil, id)
			return 3
		}, func(t *testing.T, res *dist.JobResult) {
			got, err := json.Marshal(res.Results)
			if err != nil || res.State != dist.JobStateDone || !bytes.Equal(got, evalWant) {
				t.Fatalf("resubmitted eval %s (%s, %v) != local %s", got, res.State, err, evalWant)
			}
		}},
		{"cancelled campaign", campaign, func(t *testing.T, coord *Coordinator, id string) int {
			completeByHand(t, coord, 2)
			if err := coord.Cancel(id); err != nil {
				t.Fatal(err)
			}
			return 2
		}, checkCampaign},
		{"failed campaign", campaign, func(t *testing.T, coord *Coordinator, id string) int {
			completeByHand(t, coord, 2)
			for i := 0; i < maxShardFailures; i++ {
				lease, err := coord.Lease("hand", 0)
				if err != nil || lease.JobID != id {
					t.Fatalf("failing lease %d: %+v, %v", i, lease, err)
				}
				if _, err := coord.Complete(&dist.CompleteRequest{
					Worker: "hand", JobID: id, Shard: lease.Shard, Lease: lease.Lease, Err: "boom",
				}); err != nil {
					t.Fatal(err)
				}
			}
			if st, _ := coord.Status(id); st.State != dist.JobStateFailed {
				t.Fatalf("job %s is %s, want failed", id, st.State)
			}
			return 2
		}, checkCampaign},
	}
	restarts := []struct {
		name string
		stop func(t *testing.T, coord *Coordinator, dir string)
	}{
		{"graceful", func(t *testing.T, coord *Coordinator, _ string) { closeCoordinator(t, coord) }},
		{"kill -9", func(_ *testing.T, coord *Coordinator, _ string) { crashCoordinator(coord) }},
		{"cache dir deleted", func(t *testing.T, coord *Coordinator, dir string) {
			crashCoordinator(coord)
			if err := os.RemoveAll(filepath.Join(dir, "cache")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, jc := range jobs {
		for _, rc := range restarts {
			t.Run(jc.name+"/"+rc.name, func(t *testing.T) {
				dir := t.TempDir()
				reg := obs.NewRegistry()
				coord := openTableCoordinator(t, dir, reg)
				sub, err := coord.Submit(jc.req())
				if err != nil {
					t.Fatal(err)
				}
				done := jc.settle(t, coord, sub.ID)
				// Before the restart too: served from the live table.
				again, err := coord.Submit(jc.req())
				if err != nil || again.CacheHits != done {
					t.Fatalf("live resubmit = %+v, %v; want %d shards served", again, err, done)
				}
				if again.CacheHits < again.Shards {
					// Keep it out of the restart's recovery pass.
					if err := coord.Cancel(again.ID); err != nil {
						t.Fatal(err)
					}
				}
				rc.stop(t, coord, dir)

				reg = obs.NewRegistry()
				coord = openTableCoordinator(t, dir, reg)
				defer closeCoordinator(t, coord)
				resub, err := coord.Submit(jc.req())
				if err != nil {
					t.Fatal(err)
				}
				if resub.CacheHits != done {
					t.Fatalf("resubmit after restart served %d of %d shards, want %d", resub.CacheHits, resub.Shards, done)
				}
				for name, want := range map[string]int{
					"queue.cache.hits":    done,
					"queue.shards.cached": done,
					"queue.cache.misses":  resub.Shards - done,
				} {
					if got := reg.Counter(name).Load(); got != int64(want) {
						t.Errorf("%s = %d, want %d", name, got, want)
					}
				}
				jc.check(t, drainWith(t, coord, coord, reg, resub.ID))
				if got := reg.Counter("queue.worker.shards_executed").Load(); got != int64(resub.Shards-done) {
					t.Fatalf("%d shards executed after the restart, want %d", got, resub.Shards-done)
				}
			})
		}
	}
}

// A coordinator's data dir holds its WAL and nothing else: opening it,
// running a job, resubmitting it and closing it creates no other file or
// directory.
func TestCoordinatorDataDirHoldsOnlyWAL(t *testing.T) {
	c, p := testCampaign(t, 16)
	dir := t.TempDir()
	coord := newTestCoordinator(t, dir, 1, nil)
	for i := 0; i < 2; i++ {
		sub, err := coord.Submit(campaignJob(t, c, p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Wait(sub.ID); err != nil {
			t.Fatal(err)
		}
	}
	closeCoordinator(t, coord)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"wal.log"}; !slices.Equal(names, want) {
		t.Fatalf("data dir holds %q, want %q", names, want)
	}
}
