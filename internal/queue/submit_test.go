package queue

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
	"harpocrates/internal/segstore"
)

// spyFile is the WAL's backing file through the segstore.File seam: it
// counts fsyncs, can be told to fail them, and tracks how much of the
// file is written and how much of it a successful fsync covered. The
// Log calls it under its own lock, one call at a time.
type spyFile struct {
	*os.File
	syncs           atomic.Int64
	failSync        atomic.Bool
	written, synced atomic.Int64
}

func (f *spyFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(b, off)
	if end := off + int64(n); end > f.written.Load() {
		f.written.Store(end)
	}
	return n, err
}

func (f *spyFile) Sync() error {
	f.syncs.Add(1)
	if f.failSync.Load() {
		return errors.New("injected fsync failure")
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.synced.Store(f.written.Load())
	return nil
}

// spyWAL reopens the coordinator's WAL over a spyFile.
func spyWAL(t *testing.T, c *Coordinator) *spyFile {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.wal.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(c.opts.DataDir, "wal.log"), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyFile{File: f}
	spy.written.Store(info.Size())
	spy.synced.Store(info.Size())
	log, err := segstore.NewLog(spy, info.Size(), walFormat, func([]byte, int64, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	c.wal = &WAL{log}
	return spy
}

// drainWith runs one in-process worker against coord until job id is
// terminal and returns its merged result.
func drainWith(t *testing.T, coord *Coordinator, coordSide leaser, reg *obs.Registry, id string) *dist.JobResult {
	t.Helper()
	w := newWorker(WorkerOptions{Name: "w", WaitMs: 50, Obs: obs.New(reg, nil)}, "queue.worker.shards_executed")
	w.errorBackoff = time.Millisecond // a job under test may fail its shards
	ctx, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	go func() { defer close(finished); w.run(ctx, coordSide) }()
	res, err := coord.Wait(id)
	cancel()
	<-finished
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A submit is one fsync however many shards the cache serves: the
// submit record and the cached shards' done records become durable
// together. Counted at the file, and by queue.submit.wal_syncs.
func TestSubmitSingleSync(t *testing.T) {
	c, p := testCampaign(t, 64)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord := newTestCoordinator(t, t.TempDir(), 0, reg)
	defer closeCoordinator(t, coord)
	spy := spyWAL(t, coord)

	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Shards != 8 || sub.CacheHits != 0 {
		t.Fatalf("fresh submit = %+v, want 8 shards, none cached", sub)
	}
	if got := spy.syncs.Load(); got != 1 {
		t.Fatalf("fresh submit cost %d fsyncs, want 1", got)
	}
	if res := drainWith(t, coord, coord, reg, sub.ID); !res.Stats.Equal(local) {
		t.Fatalf("result %+v != local %+v", res.Stats, local)
	}
	if got := spy.syncs.Load(); got != 2 {
		t.Fatalf("fresh 8-shard job cost %d fsyncs, want 2: its submit and its last completion", got)
	}

	before, leases := spy.syncs.Load(), reg.Counter("queue.leases.granted").Load()
	sub2, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	if sub2.CacheHits != 8 {
		t.Fatalf("resubmit = %+v, want all 8 shards cached", sub2)
	}
	if got := spy.syncs.Load() - before; got != 1 {
		t.Fatalf("fully cached resubmit cost %d fsyncs, want 1", got)
	}
	if got := reg.Counter("queue.submit.wal_syncs").Load(); got != 2 {
		t.Fatalf("queue.submit.wal_syncs = %d after two submits", got)
	}
	if got := reg.Counter("queue.leases.granted").Load(); got != leases {
		t.Fatalf("fully cached resubmit was leased %d shards", got-leases)
	}
	if res, err := coord.Wait(sub2.ID); err != nil || !res.Stats.Equal(local) {
		t.Fatalf("cached result %+v (err %v) != local %+v", res, err, local)
	}
}

// A submit whose fsync fails is refused and invisible, and — since its
// records may have reached the file anyway — its id is never handed to
// a later job, which replay would otherwise drop as a duplicate.
func TestSubmitSyncFailureRefuses(t *testing.T) {
	c, p := testCampaign(t, 16)
	dir := t.TempDir()
	coord := newTestCoordinator(t, dir, 0, nil)
	spy := spyWAL(t, coord)

	spy.failSync.Store(true)
	if sub, err := coord.Submit(campaignJob(t, c, p)); err == nil {
		t.Fatalf("submit %+v succeeded over a failing fsync", sub)
	}
	if jobs := coord.List(); len(jobs) != 0 {
		t.Fatalf("refused submit is visible: %+v", jobs)
	}
	spy.failSync.Store(false)
	c.N = 24
	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	crashCoordinator(coord)

	coord = newTestCoordinator(t, dir, 0, nil)
	defer closeCoordinator(t, coord)
	st, ok := coord.Status(sub.ID)
	if !ok || st.Shards != 3 {
		t.Fatalf("acknowledged job %s after replay: %+v (found %v), want its 3 shards", sub.ID, st, ok)
	}
}

// walCut is a point at which a crashed writer could have stopped:
// records whole records of the appended suffix survive before it.
type walCut struct{ off, records int }

// walCuts returns every record boundary of data from start on, plus one
// cut inside the last record.
func walCuts(t *testing.T, data []byte, start int) []walCut {
	t.Helper()
	cuts := []walCut{{start, 0}}
	for off := start; off < len(data); {
		off += 1 + 8 + int(binary.LittleEndian.Uint32(data[off+1:]))
		if off > len(data) {
			t.Fatalf("wal frame runs past the file at %d", off)
		}
		cuts = append(cuts, walCut{off, len(cuts)})
	}
	return append(cuts, walCut{len(data) - 3, len(cuts) - 2})
}

// Kill the coordinator between a submit's appends and its one fsync:
// whatever prefix of the records survived, recovery yields either no
// job (the submit record was lost — the client never got an answer) or
// the whole job, the shard-dones that did not survive re-served from
// the result cache.
func TestSubmitCrashBeforeSyncReplays(t *testing.T) {
	c, p := testCampaign(t, 64)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	coord := newTestCoordinator(t, dir, 0, nil)
	sub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	drainWith(t, coord, coord, nil, sub.ID)
	start := int(coord.wal.Size())
	resub, err := coord.Submit(campaignJob(t, c, p))
	if err != nil || resub.CacheHits != 8 {
		t.Fatalf("resubmit = %+v, %v; want 8 cache hits", resub, err)
	}
	crashCoordinator(coord)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	cuts := walCuts(t, wal, start)
	if len(cuts) != 1+9+1 {
		t.Fatalf("resubmit appended %d records, want the submit and 8 shard-dones", len(cuts)-2)
	}
	for _, wc := range cuts {
		cut, survivors := wc.off, wc.records
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		rec, err := NewCoordinator(Options{DataDir: crashDir, ShardSize: 8, Obs: obs.New(reg, nil)})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		st, ok := rec.Status(resub.ID)
		if survivors == 0 {
			if ok {
				t.Fatalf("cut %d: job recovered without its submit record", cut)
			}
		} else {
			if !ok || st.State != dist.JobStateDone || st.Cached != 8 {
				t.Fatalf("cut %d: recovered %+v (found %v), want done with 8 cached shards", cut, st, ok)
			}
			if got, want := reg.Counter("queue.shards.cached").Load(), int64(9-survivors); got != want {
				t.Fatalf("cut %d: %d shards re-served from the cache, want %d", cut, got, want)
			}
			if res, err := rec.Result(resub.ID); err != nil || !res.Stats.Equal(local) {
				t.Fatalf("cut %d: recovered result %+v (err %v) != local %+v", cut, res, err, local)
			}
		}
		crashCoordinator(rec)
	}
}

// POST /v1/jobs takes an HXJB frame under its own content type: a JSON
// job — what an older client sends — is answered 415 naming the type it
// expects, and leaves nothing behind.
func TestSubmitJSONBodyRefused(t *testing.T) {
	c, p := testCampaign(t, 8)
	coord := newTestCoordinator(t, t.TempDir(), 0, nil)
	defer closeCoordinator(t, coord)
	srv := httptest.NewServer(NewServer(coord).Handler())
	defer srv.Close()
	body, err := json.Marshal(campaignJob(t, c, p))
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []string{"application/json", ""} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+dist.PathJobs, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType || !strings.Contains(string(msg), dist.JobContentType) {
			t.Fatalf("JSON job under %q answered %s: %s; want 415 naming %s", ct, resp.Status, msg, dist.JobContentType)
		}
	}
	if jobs := coord.List(); len(jobs) != 0 {
		t.Fatalf("refused JSON jobs are listed: %+v", jobs)
	}
	if size := coord.wal.Size(); size != walHeaderSize {
		t.Fatalf("wal.log holds %d bytes after two refused submits, want its %d-byte header", size, walHeaderSize)
	}
}
