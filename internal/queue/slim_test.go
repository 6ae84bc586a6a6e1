package queue

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
	"harpocrates/internal/stats"
)

// legacyPeer is the wire as a pre-`programs` binary on either end makes
// it: an old worker sends no hashes, an old coordinator ignores them —
// both ways none reaches Lease and every lease carries the program.
type legacyPeer struct{ *Coordinator }

func (l legacyPeer) Lease(worker string, wait time.Duration, _ ...uint64) (*dist.LeaseResponse, error) {
	return l.Coordinator.Lease(worker, wait)
}

// One fresh 8-shard job drained by one worker process touches the
// program's bytes once: one full lease, one decode, seven program-free
// leases — over HTTP and in process alike — and the merged result is
// bit-identical to Campaign.Run. Its WAL costs two fsyncs: the
// submit's and the one its last completion makes. A legacy peer gets
// today's leases and the same result.
func TestSlimLeaseBitIdentical(t *testing.T) {
	c, p := testCampaign(t, 64)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		http    bool
		legacy  bool
		omitted int64
	}{
		{"in-process", false, false, 7},
		{"httptest", true, false, 7},
		{"legacy-peer", false, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dist.ForgetPrograms()
			reg := obs.NewRegistry()
			coord := newTestCoordinator(t, t.TempDir(), 0, reg)
			defer closeCoordinator(t, coord)
			var side leaser = coord
			if tc.legacy {
				side = legacyPeer{coord}
			}
			if tc.http {
				srv := httptest.NewServer(NewServer(coord).Handler())
				defer srv.Close()
				side = httpLeaser{ctx: context.Background(), base: srv.URL, client: srv.Client()}
			}
			sub, err := coord.Submit(campaignJob(t, c, p))
			if err != nil {
				t.Fatal(err)
			}
			if sub.Shards != 8 {
				t.Fatalf("planned %d shards, want 8", sub.Shards)
			}
			res := drainWith(t, coord, side, reg, sub.ID)
			if !res.Stats.Equal(local) {
				t.Fatalf("result %+v != Campaign.Run %+v", res.Stats, local)
			}
			for name, want := range map[string]int64{
				"dist.program.decodes":         1,
				"dist.program.reuses":          7,
				"queue.leases.granted":         8,
				"queue.leases.program_omitted": tc.omitted,
				"queue.submit.wal_syncs":       1,
				"queue.complete.wal_syncs":     1, // one per job, not one per shard
			} {
				if got := reg.Counter(name).Load(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// A worker that no longer holds a program it was leased without fails
// that shard once; the shard re-queues and, the worker's advertisement
// now being empty, comes back with its program.
func TestSlimLeaseUnresolvedProgram(t *testing.T) {
	c, p := testCampaign(t, 16)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord := newTestCoordinator(t, t.TempDir(), 0, reg)
	defer closeCoordinator(t, coord)
	req := campaignJob(t, c, p)
	hash := stats.HashBytes(req.Inject.Program)
	sub, err := coord.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	dist.ForgetPrograms()
	lease, err := coord.Lease("w", time.Second, hash) // advertised, then evicted
	if err != nil {
		t.Fatal(err)
	}
	if lease.Inject == nil || len(lease.Inject.Program) != 0 || lease.Inject.ProgramHash != hash {
		t.Fatalf("lease for an advertised program: %+v", lease.Inject)
	}
	w := newWorker(WorkerOptions{Name: "w", Obs: obs.New(reg, nil)}, "queue.worker.shards_executed")
	comp := w.execute(lease)
	if comp.Err == "" || comp.Stats != nil {
		t.Fatalf("completion %+v, want only Err", comp)
	}
	comp.JobID, comp.Shard, comp.Lease = lease.JobID, lease.Shard, lease.Lease
	if _, err := coord.Complete(comp); err != nil {
		t.Fatal(err)
	}

	if res := drainWith(t, coord, coord, reg, sub.ID); !res.Stats.Equal(local) {
		t.Fatalf("result %+v != Campaign.Run %+v", res.Stats, local)
	}
	for name, want := range map[string]int64{
		"queue.shard.failures":         1,
		"queue.leases.granted":         1 + 2,
		"queue.leases.program_omitted": 1 + 1, // the failed lease, then shard 1 after shard 0 came in full
		"dist.program.decodes":         1,
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// program_hash is the coordinator's to write, into a lease: a job that
// arrives naming its program by hash is refused.
func TestSubmitRefusesProgramHash(t *testing.T) {
	c, p := testCampaign(t, 8)
	coord := newTestCoordinator(t, t.TempDir(), 0, nil)
	defer closeCoordinator(t, coord)
	req := campaignJob(t, c, p)
	req.Inject.Program, req.Inject.ProgramHash = nil, stats.HashBytes(req.Inject.Program)
	if sub, err := coord.Submit(req); err == nil {
		t.Fatalf("submit by hash accepted: %+v", sub)
	}
}

// /v1/lease answers a request without `programs` — every harpod built
// before the field existed — with exactly the JSON it always did, even
// when this process holds the program.
func TestLeaseLegacyJSONPinned(t *testing.T) {
	c, p := testCampaign(t, 16)
	coord := newTestCoordinator(t, t.TempDir(), 0, nil)
	defer crashCoordinator(coord) // the leases taken below never come home
	req := campaignJob(t, c, p)
	if _, err := coord.Submit(req); err != nil {
		t.Fatal(err)
	}
	if _, err := dist.CampaignFor(req.Inject, nil); err != nil { // this process's memo now holds the program
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(coord).Handler())
	defer srv.Close()

	post := func(body string) string {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+dist.PathLease, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("lease: %s, %v: %s", resp.Status, err, out)
		}
		return string(out)
	}
	cfg, err := json.Marshal(c.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	tail := `"target":"IRF","type":"transient","n":16,"lo":%LO%,"hi":%HI%,"seed":7,"cfg":` + string(cfg) + "}}\n"
	bounds := strings.NewReplacer("%LO%", "0", "%HI%", "8")
	want := `{"job_id":"j-000000","lease":1,"kind":"campaign","inject":{"program":"` +
		base64.StdEncoding.EncodeToString(req.Inject.Program) + `",` + bounds.Replace(tail)
	if got := post(`{"worker":"old","wait_ms":1000}`); got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("legacy lease JSON moved at byte %d:\n got …%.160s\nwant …%.160s", i, got[max(i-40, 0):], want[max(i-40, 0):])
	}

	bounds = strings.NewReplacer("%LO%", "8", "%HI%", "16")
	hash := stats.HashBytes(req.Inject.Program)
	var advert bytes.Buffer
	json.NewEncoder(&advert).Encode(dist.LeaseRequest{Worker: "new", WaitMs: 1000, Programs: []uint64{1, hash}})
	wantSlim := `{"job_id":"j-000000","shard":1,"lease":2,"kind":"campaign","inject":{"program_hash":` +
		jsonUint(hash) + `,` + bounds.Replace(tail)
	if got := post(advert.String()); got != wantSlim {
		t.Fatalf("program-free lease JSON:\n got %s\nwant %s", got, wantSlim)
	}
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
