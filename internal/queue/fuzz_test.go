package queue

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/gen"
	"harpocrates/internal/uarch"
)

// FuzzServerBodies feeds arbitrary bytes to every /v1/* POST handler of
// both daemons — dist.Server (harpod) and queue.Server (harpoq) — all of
// which read their body through dist.ReadBody: POST /v1/jobs, under its
// content type, as an HXJB job frame, the others as JSON. Oracle: no
// panic, a body that does not decode (not JSON; for /v1/jobs, not a
// frame) is a 400, anything else is a well-formed 2xx/4xx/5xx reply; the
// body bound is checked once up front. The seeds are shaped like real
// requests — a job framed, the rest JSON — but carry no decodable
// program or genotype, or carry one under a core configuration or fault
// model that is refused before a core is built, so no seed makes a
// handler simulate.
func FuzzServerBodies(f *testing.F) {
	coord, err := NewCoordinator(Options{DataDir: f.TempDir(), ShardSize: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { crashCoordinator(coord) })
	srv := NewServer(coord)
	srv.maxPollWait = time.Millisecond // a fuzzed wait_ms must not park the fuzzer
	worker, queue := dist.NewServer(nil).Handler(), srv.Handler()
	endpoints := []struct {
		h    http.Handler
		path string
	}{
		{worker, dist.PathInject},
		{worker, dist.PathEval},
		{queue, dist.PathJobs},
		{queue, dist.PathLease},
		{queue, dist.PathComplete},
	}
	post := func(i uint8, body []byte, declared int64) int {
		ep := endpoints[int(i)%len(endpoints)]
		req := httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body))
		req.ContentLength = declared
		if ep.path == dist.PathJobs {
			req.Header.Set("Content-Type", dist.JobContentType)
		}
		rec := httptest.NewRecorder()
		ep.h.ServeHTTP(rec, req)
		return rec.Code
	}
	for i := range endpoints {
		if code := post(uint8(i), []byte("{}"), dist.MaxBodyBytes+1); code != http.StatusRequestEntityTooLarge {
			f.Fatalf("%s: oversize body answered %d, want 413", endpoints[i].path, code)
		}
	}

	for _, seed := range []string{
		`{"program":"bm90IEhYUEc=","target":"irf","type":"transient","n":8,"lo":0,"hi":4,"seed":7,"cfg":{}}`,
		`{"structure":"intadd","gen":{},"core":{},"genotypes":["bm90IEhYR1Q="]}`,
		`{"worker":"w","wait_ms":30000}`,
		`{"worker":"w","wait_ms":1,"programs":[10789383270527488036,0,18446744073709551615]}`,
		`{"worker":"w","job_id":"j-000000","shard":0,"lease":1,"stats":{"n":0},"err":"boom"}`,
		`[1,2`, ``, `null`, `{"n":1e999}`, `HXJB`,
	} {
		for ep := range endpoints {
			f.Add(uint8(ep), []byte(seed))
		}
	}
	// A seed is a JSON body, or a frame for a job: every handler gets it.
	add := func(v any) []byte {
		var seed []byte
		var err error
		if job, ok := v.(*dist.JobRequest); ok {
			seed, err = dist.EncodeJobRequest(job)
		} else {
			seed, err = json.Marshal(v)
		}
		if err != nil {
			f.Fatal(err)
		}
		for ep := range endpoints {
			f.Add(uint8(ep), seed)
		}
		return seed
	}
	for _, seed := range []string{
		`{"kind":"campaign","priority":1,"inject":{"program":"bm90IEhYUEc=","target":"irf","type":"transient","n":8,"seed":7,"cfg":{}}}`,
		`{"kind":"eval","eval":{"structure":"intadd","genotypes":["AA=="]}}`,
	} {
		var job dist.JobRequest
		if err := json.Unmarshal([]byte(seed), &job); err != nil {
			f.Fatal(err)
		}
		add(&job)
	}
	// A decodable program or genotype under a configuration no core can
	// be built from — unset, and partial: these took the executor down
	// (zero cache sets to divide by, a register file indexed past its end).
	eval := evalJob(1).Eval
	wire, err := dist.EncodeProgram(gen.Materialize(gen.NewRandom(&eval.Gen, rand.New(rand.NewPCG(5, 6))), &eval.Gen))
	if err != nil {
		f.Fatal(err)
	}
	for _, cfg := range []uarch.Config{{}, {IntPRF: 4}} {
		shard := &dist.InjectRequest{Program: wire, Target: "irf", Type: "transient", N: 8, Hi: 4, Seed: 7, Cfg: cfg}
		eval.Core = cfg
		add(shard)
		add(eval)
		add(&dist.JobRequest{Kind: dist.JobCampaign, Inject: shard})
		add(&dist.JobRequest{Kind: dist.JobEval, Eval: eval})
	}
	// A well-formed job — decodable program, buildable core — that names
	// a fault model the injector does not implement: it used to be made
	// durable and run as a different model under its label.
	for _, m := range []struct {
		target, typ string
		burst       int
	}{{"irf", "permanent", 0}, {"intadd", "transient", 0}, {"irf", "transient", 128}} {
		shard := &dist.InjectRequest{Program: wire, Target: m.target, Type: m.typ, BurstLen: m.burst,
			N: 8, Hi: 4, Seed: 7, Cfg: uarch.DefaultConfig()}
		add(shard)
		job := add(&dist.JobRequest{Kind: dist.JobCampaign, Inject: shard})
		// endpoints[2] is POST /v1/jobs.
		if code := post(2, job, int64(len(job))); code != http.StatusBadRequest || len(coord.List()) != 0 {
			f.Fatalf("%s/%s burst %d job answered %d with %d jobs listed, want 400 and none",
				m.target, m.typ, m.burst, code, len(coord.List()))
		}
	}
	// An older harpod marked a completion served from its own result
	// cache with "cached":true. The field is gone; json.Unmarshal ignores
	// it, so such a body is answered as it would be without it.
	legacy := add(json.RawMessage(`{"worker":"w","job_id":"j-000000","shard":0,"lease":1,"stats":{"n":0},"cached":true}`))
	// endpoints[4] is POST /v1/complete.
	if code := post(4, legacy, int64(len(legacy))); code < 200 || code >= 500 {
		f.Fatalf("a completion carrying \"cached\":true answered %d, want 2xx/4xx", code)
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		code := post(endpoint, body, int64(len(body)))
		if code < 200 || code > 599 {
			t.Fatalf("status %d", code)
		}
		malformed := !json.Valid(body)
		if endpoints[int(endpoint)%len(endpoints)].path == dist.PathJobs {
			_, err := dist.DecodeJobRequest(body)
			malformed = err != nil
		}
		if malformed && code != http.StatusBadRequest {
			t.Fatalf("malformed body answered %d, want 400", code)
		}
	})
}
