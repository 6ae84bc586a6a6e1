package queue

import (
	"encoding/json"
	"fmt"
	"time"

	"harpocrates/internal/binfmt"
	"harpocrates/internal/corpus"
	"harpocrates/internal/dist"
	"harpocrates/internal/inject"
)

// shardState is one shard's lifecycle position.
type shardState int

const (
	shardReady shardState = iota
	shardLeased
	shardDone
)

// shardRec is the coordinator's record of one planned shard. Bounds are
// fixed at submit time and persisted with the job, so a coordinator
// restarted with different sharding options still completes (and
// cache-keys) an old job exactly as planned.
type shardRec struct {
	lo, hi int
	// key is the shard's content-addressed cache key, derived once when
	// the job is built.
	key   CacheKey
	state shardState

	lease    uint64
	leasedAt time.Time
	deadline time.Time
	failures int // executor errors reported; an expired lease is not one

	// value is the encoded result of a done shard: HXSR stats bytes for
	// campaign shards, JSON-encoded []dist.WireEvalResult for eval
	// shards — the same bytes the WAL records, indexed by key in
	// Coordinator.results.
	value []byte
}

// requeue returns a leased shard to the ready frontier.
func (s *shardRec) requeue() {
	s.state, s.lease = shardReady, 0
}

// job is one durable queue entry.
type job struct {
	id   string
	seq  int
	prio int
	req  *dist.JobRequest
	// program is a campaign job's program content hash (the Program word
	// of every shard key); a worker that already holds those bytes is
	// leased shards without them.
	program uint64

	shards []*shardRec
	done   int
	cached int

	state  string
	errMsg string
}

// planBounds cuts n work items into contiguous shards of at most size
// items (the last may be smaller).
func planBounds(n, size int) [][2]int {
	if size <= 0 {
		size = 1
	}
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		out = append(out, [2]int{lo, min(lo+size, n)})
	}
	return out
}

// newJob builds the in-memory job for a validated request and planned
// bounds; the caller names it (id, seq). This is the one place a job's
// program bytes and configuration are hashed: every shard key is derived
// here, equal word for word to campaignShardKey / evalShardKey of the
// shard's request, so submit, completion and replay never touch them
// again.
func newJob(req *dist.JobRequest, bounds [][2]int) *job {
	j := &job{prio: req.Priority, req: req, state: dist.JobStatePending}
	var key func(lo, hi int) CacheKey
	if req.Kind == dist.JobCampaign {
		j.program = corpus.HashBytes(req.Inject.Program)
		cfg := hashJSON(req.Inject.Cfg)
		key = func(lo, hi int) CacheKey {
			return CacheKey{Program: j.program, Config: cfg, Spec: campaignSpec(req.Inject, lo, hi)}
		}
	} else {
		cfg := evalConfig(req.Eval)
		key = func(lo, hi int) CacheKey { return evalKey(req.Eval, cfg, req.Eval.Genotypes[lo:hi]) }
	}
	j.shards = make([]*shardRec, len(bounds))
	for i, b := range bounds {
		j.shards[i] = &shardRec{lo: b[0], hi: b[1], key: key(b[0], b[1])}
	}
	return j
}

// terminal reports whether the job has reached a final state.
func (j *job) terminal() bool {
	switch j.state {
	case dist.JobStateDone, dist.JobStateCancelled, dist.JobStateFailed:
		return true
	}
	return false
}

// shardInjectReq materializes shard i's self-contained wire request.
func (j *job) shardInjectReq(i int) *dist.InjectRequest {
	req := *j.req.Inject
	req.Lo, req.Hi = j.shards[i].lo, j.shards[i].hi
	return &req
}

// shardEvalReq materializes shard i's genotype slice request.
func (j *job) shardEvalReq(i int) *dist.EvalRequest {
	req := *j.req.Eval
	req.Genotypes = j.req.Eval.Genotypes[j.shards[i].lo:j.shards[i].hi]
	return &req
}

// encodeShardResult validates and encodes a completion's payload into
// the job's value format.
func (j *job) encodeShardResult(i int, req *dist.CompleteRequest) ([]byte, error) {
	s := j.shards[i]
	if j.req.Kind == dist.JobCampaign {
		if req.Stats == nil {
			return nil, fmt.Errorf("queue: campaign shard completed without stats")
		}
		if req.Stats.N != s.hi-s.lo || len(req.Stats.Outcomes) != req.Stats.N {
			return nil, fmt.Errorf("queue: shard [%d,%d) returned %d outcomes",
				s.lo, s.hi, len(req.Stats.Outcomes))
		}
		return inject.EncodeStats(req.Stats), nil
	}
	if len(req.Results) != s.hi-s.lo {
		return nil, fmt.Errorf("queue: eval shard [%d,%d) returned %d results",
			s.lo, s.hi, len(req.Results))
	}
	return json.Marshal(req.Results)
}

// decodeShardValue validates an encoded shard value (a cache hit or a
// WAL replay) against shard i's bounds; an undecodable or mis-sized
// value is reported so the caller can treat it as a miss.
func (j *job) decodeShardValue(i int, value []byte) error {
	s := j.shards[i]
	if j.req.Kind == dist.JobCampaign {
		st, err := inject.DecodeStats(value)
		if err != nil {
			return err
		}
		if st.N != s.hi-s.lo {
			return fmt.Errorf("queue: cached shard [%d,%d) holds %d outcomes", s.lo, s.hi, st.N)
		}
		return nil
	}
	var res []dist.WireEvalResult
	if err := json.Unmarshal(value, &res); err != nil {
		return err
	}
	if len(res) != s.hi-s.lo {
		return fmt.Errorf("queue: cached eval shard [%d,%d) holds %d results", s.lo, s.hi, len(res))
	}
	return nil
}

// status renders the externally visible state. Caller holds the
// coordinator lock.
func (j *job) status() dist.JobStatus {
	st := dist.JobStatus{
		ID:       j.id,
		Kind:     j.req.Kind,
		State:    j.state,
		Priority: j.prio,
		Error:    j.errMsg,
		Shards:   len(j.shards),
		Done:     j.done,
		Cached:   j.cached,
	}
	if j.req.Kind == dist.JobCampaign && j.done > 0 {
		// Partial stats: the shard-order merge of the shards done so
		// far (the full merge once the job is done).
		st.Stats, _ = j.mergedStats()
	}
	return st
}

// mergedStats decodes the campaign shards done so far and merges them
// in shard order.
func (j *job) mergedStats() (*inject.Stats, error) {
	var parts []*inject.Stats
	for i, s := range j.shards {
		if s.state != shardDone {
			continue
		}
		dec, err := inject.DecodeStats(s.value)
		if err != nil {
			return nil, fmt.Errorf("queue: job %s shard %d: %w", j.id, i, err)
		}
		parts = append(parts, dec)
	}
	merged, err := inject.MergeStats(parts)
	if err != nil {
		return nil, fmt.Errorf("queue: job %s: %w", j.id, err)
	}
	return merged, nil
}

// result renders the merged terminal result. Caller holds the
// coordinator lock; the job must be done.
func (j *job) result() (*dist.JobResult, error) {
	out := &dist.JobResult{ID: j.id, Kind: j.req.Kind, State: j.state}
	if j.state != dist.JobStateDone {
		return out, nil
	}
	if j.req.Kind == dist.JobCampaign {
		merged, err := j.mergedStats()
		if err != nil {
			return nil, err
		}
		out.Stats = merged
		return out, nil
	}
	for i, s := range j.shards {
		var res []dist.WireEvalResult
		if err := json.Unmarshal(s.value, &res); err != nil {
			return nil, fmt.Errorf("queue: job %s shard %d: %w", j.id, i, err)
		}
		out.Results = append(out.Results, res...)
	}
	return out, nil
}

// WAL record kinds. Kind 1 was an older build's JSON submit record,
// which NewCoordinator refuses.
const (
	recJSONSubmit byte = 1
	recShardDone  byte = 2
	recCancel     byte = 3
	recSubmit     byte = 4
)

// walSubmit heads a submit record with the job's name and its planned
// shard bounds (so replay never depends on the restarted coordinator's
// sharding options); the request itself follows as the HXJB frame the
// client sent (dist.EncodeJobRequest). The record is
//
//	u32 n, n bytes               id
//	i64                          seq
//	u32 k, k × (i64 lo, i64 hi)  bounds
//	the rest                     the request's HXJB job frame
type walSubmit struct {
	ID     string
	Seq    int
	Bounds [][2]int
}

// codec moves the record's head in either direction.
func (s *walSubmit) codec(c *binfmt.Codec) {
	c.String(&s.ID, 64)
	binfmt.I64(c, &s.Seq)
	binfmt.Slice(c, &s.Bounds, 16, int(walFormat.MaxPayload/16), func(b *[2]int) {
		binfmt.I64(c, &b[0])
		binfmt.I64(c, &b[1])
	})
}

// submitRecord encodes a submit record around a request's frame.
func submitRecord(s *walSubmit, frame []byte) []byte {
	c := binfmt.NewEncoder(make([]byte, 0, 16+len(s.ID)+16*len(s.Bounds)+len(frame)))
	s.codec(c)
	c.Raw(frame)
	return c.Encoded()
}

// decodeSubmitRecord parses a submit record: its head, then its frame
// through the same walker a POST /v1/jobs body goes through.
func decodeSubmitRecord(payload []byte) (*walSubmit, *dist.JobRequest, error) {
	var s walSubmit
	c := binfmt.NewDecoder(payload)
	s.codec(c)
	if err := c.Err(); err != nil {
		return nil, nil, err
	}
	req, err := dist.DecodeJobRequest(payload[c.Offset():])
	if err != nil {
		return nil, nil, err
	}
	return &s, req, nil
}

// walShardDone persists one shard completion with its encoded value.
type walShardDone struct {
	ID     string `json:"id"`
	Shard  int    `json:"shard"`
	Cached bool   `json:"cached,omitempty"`
	Worker string `json:"worker,omitempty"`
	Value  []byte `json:"value"`
}

// walCancel persists a job's end before its shards are done: cancelled
// by a client, or, with Error set, failed by its executor.
type walCancel struct {
	ID    string `json:"id"`
	Error string `json:"error,omitempty"`
}
