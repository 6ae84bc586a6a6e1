package queue

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
)

// A fresh job's shard-done records are appended unsynced until its last
// one, so a power cut may drop any suffix of them. Cut the WAL after the
// submit record and k of the 8 shard-dones, for every k (and inside the
// last record): the restarted coordinator has exactly k shards done,
// its workers re-run the other 8-k, and the merged result is
// Stats.Equal to the local run, because executors are deterministic.
func TestCrashPointsCompletionTail(t *testing.T) {
	c, p := testCampaign(t, 64)
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
	drainWith(t, coord, coord, nil, sub.ID)
	crashCoordinator(coord)
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	cuts := walCuts(t, wal, walHeaderSize)
	if len(cuts) != 1+9+1 {
		t.Fatalf("a fresh 8-shard job wrote %d records, want the submit and 8 shard-dones", len(cuts)-2)
	}
	for _, wc := range cuts[1:] {
		k := wc.records - 1 // shard-dones surviving beside the submit
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, "wal.log"), wal[:wc.off], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		rec := newTestCoordinator(t, crashDir, 0, reg)
		st, ok := rec.Status(sub.ID)
		if !ok || st.Done != k || (st.State == dist.JobStateDone) != (k == 8) {
			t.Fatalf("cut at %d: replayed %+v (found %v), want %d of 8 shards done", wc.off, st, ok, k)
		}
		if res := drainWith(t, rec, rec, reg, sub.ID); !res.Stats.Equal(local) {
			t.Fatalf("cut at %d: result %+v != local %+v", wc.off, res.Stats, local)
		}
		if got := reg.Counter("queue.worker.shards_executed").Load(); got != int64(8-k) {
			t.Fatalf("cut at %d: %d shards re-ran, want %d", wc.off, got, 8-k)
		}
		closeCoordinator(t, rec)
	}
}

// No status reply says done before an fsync covers every record of the
// job: each reply is rendered under the coordinator's lock, and there
// the WAL file's synced size must equal its written size whenever the
// job is terminal. The job's completions before its last stay unsynced
// (two fsyncs in all).
func TestCrashPointsNoDoneBeforeSync(t *testing.T) {
	c, p := testCampaign(t, 64)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	coord := newTestCoordinator(t, t.TempDir(), 0, nil)
	defer closeCoordinator(t, coord)
	spy := spyWAL(t, coord)
	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}

	type view struct {
		done            int
		terminal        bool
		written, synced int64
	}
	views := make(chan []view, 1)
	go func() {
		var seen []view
		last := -1
		for {
			var v view
			err := coord.watch(sub.ID, time.Now().Add(10*time.Second), func(j *job) bool { return j.done != last },
				func(j *job) {
					v = view{j.done, j.terminal(), spy.written.Load(), spy.synced.Load()}
				})
			if err != nil {
				t.Error(err)
				break
			}
			seen = append(seen, v)
			if last = v.done; v.terminal {
				break
			}
		}
		views <- seen
	}()
	if res := drainWith(t, coord, coord, nil, sub.ID); !res.Stats.Equal(local) {
		t.Fatalf("result %+v != local %+v", res.Stats, local)
	}
	seen := <-views
	if len(seen) == 0 || !seen[len(seen)-1].terminal {
		t.Fatalf("the watcher never saw the job end: %+v", seen)
	}
	for _, v := range seen {
		if v.terminal && v.synced < v.written {
			t.Fatalf("the job was visible done with %d of %d WAL bytes synced", v.synced, v.written)
		}
	}
	if got := spy.syncs.Load(); got != 2 {
		t.Fatalf("the job cost %d fsyncs, want 2", got)
	}
}
