package queue

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
)

// getBody fetches url and returns the reply's status code and body.
func getBody(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// Await waits for the job, not for a timer: with PollInterval an hour, a
// campaign and an eval job still finish in seconds, the campaign
// bit-identical to the local run.
func TestAwaitNeverSleepsWhileCoordinatorAnswers(t *testing.T) {
	c, p := testCampaign(t, 24)
	local, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	coord := newTestCoordinator(t, t.TempDir(), 2, nil)
	defer closeCoordinator(t, coord)
	srv := httptest.NewServer(NewServer(coord).Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	client.PollInterval = time.Hour

	finished := make(chan error, 1)
	go func() {
		finished <- func() error {
			st, err := client.RunCampaign(c, p)
			if err != nil {
				return err
			}
			if !st.Equal(local) {
				return fmt.Errorf("queued campaign %+v != local %+v", st, local)
			}
			sub, err := client.Submit(evalJob(12))
			if err != nil {
				return err
			}
			res, err := client.Await(sub.ID, nil)
			if err != nil {
				return err
			}
			if want, err := coord.Result(sub.ID); err != nil || !reflect.DeepEqual(res, want) {
				return fmt.Errorf("awaited eval result %+v != coordinator's %+v (%v)", res, want, err)
			}
			return nil
		}()
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a campaign and an eval job took over 10 s: Await slept its PollInterval")
	}
}

// A coordinator that ignores wait_ms — any older harpoq — answers every
// status poll at once. Await then sleeps PollInterval after each early
// reply that brings nothing new, with a progress callback and without,
// instead of spinning.
func TestAwaitPacesACoordinatorThatDoesNotHold(t *testing.T) {
	const interval = 40 * time.Millisecond
	for _, progress := range []bool{false, true} {
		t.Run(fmt.Sprintf("progress=%v", progress), func(t *testing.T) {
			var mu sync.Mutex
			var polls []time.Time
			var results atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/result") {
					results.Add(1)
					dist.WriteJSON(w, &dist.JobResult{ID: "j-000000", Kind: dist.JobEval, State: dist.JobStateDone})
					return
				}
				q := r.URL.Query()
				if !q.Has("wait_ms") || q.Has("done") != progress {
					t.Errorf("status poll %q: want wait_ms, and done only with a progress callback", r.URL.RawQuery)
				}
				mu.Lock()
				polls = append(polls, time.Now())
				n := len(polls)
				mu.Unlock()
				st := dist.JobStatus{ID: "j-000000", Kind: dist.JobEval, State: dist.JobStateRunning, Shards: 2, Done: 1}
				if n == 4 {
					st.State, st.Done = dist.JobStateDone, 2
				}
				dist.WriteJSON(w, &st)
			}))
			defer srv.Close()
			client := NewClient(srv.URL)
			client.PollInterval = interval
			var onEvent func(*dist.JobStatus)
			if progress {
				onEvent = func(*dist.JobStatus) {}
			}
			res, err := client.Await("j-000000", onEvent)
			if err != nil || res.State != dist.JobStateDone {
				t.Fatalf("Await = %+v, %v", res, err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(polls) != 4 || results.Load() != 1 {
				t.Fatalf("%d status polls and %d result fetches, want 4 and 1", len(polls), results.Load())
			}
			for i := 1; i < len(polls); i++ {
				// With a progress callback the first reply is news (done
				// 1 after none seen), so the second poll follows at once.
				if gap := polls[i].Sub(polls[i-1]); gap < interval && !(progress && i == 1) {
					t.Errorf("poll %d followed an unchanged early reply after %v, want >= %v", i, gap, interval)
				}
			}
		})
	}
}

// A done campaign's status carries the shard-order merge, so Await
// returns it without fetching /result — and it is the same result,
// byte for byte, as GET /result. An eval job's result is fetched once.
func TestAwaitCampaignResultEqualsGetResult(t *testing.T) {
	c, p := testCampaign(t, 24)
	coord := newTestCoordinator(t, t.TempDir(), 2, nil)
	defer closeCoordinator(t, coord)
	var results atomic.Int64
	handler := NewServer(coord).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			results.Add(1)
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := NewClient(srv.URL)

	sub, err := client.SubmitCampaign(c, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	awaited, err := client.Await(sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := results.Load(); n != 0 {
		t.Fatalf("Await fetched /result %d times for a campaign", n)
	}
	code, body := getBody(t, srv.Client(), srv.URL+dist.PathJobs+"/"+sub.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET /result: %d %s", code, body)
	}
	got, err := json.Marshal(awaited)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), body) {
		t.Fatalf("Await's result\n%s\n!= GET /result's\n%s", got, body)
	}

	sub, err = client.Submit(evalJob(12))
	if err != nil {
		t.Fatal(err)
	}
	before := results.Load()
	if _, err := client.Await(sub.ID, nil); err != nil {
		t.Fatal(err)
	}
	if n := results.Load() - before; n != 1 {
		t.Fatalf("Await fetched an eval job's /result %d times, want 1", n)
	}
}

// GET /v1/jobs/{id}?wait_ms=W holds the reply until W passes, or with
// &done=K until the job's done-shard count is not K; without wait_ms the
// reply is the status at once, the same bytes as before the query
// existed. Malformed values are a 400.
func TestStatusLongPoll(t *testing.T) {
	reg := obs.NewRegistry()
	coord := newTestCoordinator(t, t.TempDir(), 0, reg)
	defer closeCoordinator(t, coord)
	srv := httptest.NewServer(NewServer(coord).Handler())
	defer srv.Close()
	sub, err := coord.Submit(evalJob(12)) // two shards
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL + dist.PathJobs + "/" + sub.ID
	status := func(query string) (dist.JobStatus, time.Duration) {
		t.Helper()
		t0 := time.Now()
		code, body := getBody(t, srv.Client(), url+query)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", query, code, body)
		}
		var st dist.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st, time.Since(t0)
	}

	want, _ := coord.Status(sub.ID)
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := getBody(t, srv.Client(), url); code != http.StatusOK || !bytes.Equal(body, append(wantBody, '\n')) {
		t.Fatalf("plain status %d %s, want %s", code, body, wantBody)
	}
	for _, q := range []string{"?wait_ms=x", "?wait_ms=-1", "?wait_ms=10&done=x"} {
		if code, _ := getBody(t, srv.Client(), url+q); code != http.StatusBadRequest {
			t.Errorf("GET %s answered %d, want 400", q, code)
		}
	}
	if code, _ := getBody(t, srv.Client(), srv.URL+dist.PathJobs+"/j-999999?wait_ms=10000"); code != http.StatusNotFound {
		t.Errorf("long poll of an unknown job answered %d, want 404", code)
	}
	if st, took := status("?wait_ms=150&done=0"); st.Done != 0 || took < 150*time.Millisecond {
		t.Fatalf("unchanged job answered %+v after %v, want done 0 after 150ms", st, took)
	}
	if st, took := status("?wait_ms=10000&done=1"); st.Done != 0 || took > 5*time.Second {
		t.Fatalf("done=1 on a job with none done answered %+v after %v, want at once", st, took)
	}

	// A parked poll wakes on the first completion.
	type reply struct {
		st   dist.JobStatus
		err  error
		took time.Duration
	}
	woke := make(chan reply, 1)
	go func() {
		var r reply
		t0 := time.Now()
		r.err = dist.GetJSON(context.Background(), srv.Client(), url+"?wait_ms=30000&done=0", &r.st)
		r.took = time.Since(t0)
		woke <- r
	}()
	lease, err := coord.Lease("w", time.Second)
	if err != nil || lease.JobID != sub.ID {
		t.Fatalf("lease %+v, %v", lease, err)
	}
	w := newWorker(WorkerOptions{Name: "w", Obs: obs.New(reg, nil)}, "queue.worker.shards_executed")
	comp := w.execute(lease)
	comp.JobID, comp.Shard, comp.Lease = lease.JobID, lease.Shard, lease.Lease
	if _, err := coord.Complete(comp); err != nil {
		t.Fatal(err)
	}
	if r := <-woke; r.err != nil || r.st.Done != 1 || r.st.State != dist.JobStateRunning || r.took > 10*time.Second {
		t.Fatalf("parked poll answered %+v, %v after %v, want running with 1 done", r.st, r.err, r.took)
	}
}
