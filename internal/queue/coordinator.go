package queue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
)

// Options tunes a coordinator.
type Options struct {
	// DataDir is the durable state directory: wal.log lives under it,
	// and nothing else.
	DataDir string

	// ShardSize is the number of campaign specs per shard (default 32);
	// EvalShardSize the number of genotypes per eval shard (default 8).
	// Bounds are fixed per job at submit time, so changing these between
	// restarts never re-shards persisted jobs.
	ShardSize     int
	EvalShardSize int

	// LeaseTimeout is how long a worker may sit on a leased shard before
	// it is re-queued for the others (default 2 minutes).
	LeaseTimeout time.Duration

	// LocalExec runs that many in-process Workers — the zero-worker
	// fallback that keeps a fleetless coordinator (or a test) completing
	// jobs. They lease through the same Lease/Complete as remote workers,
	// minus the HTTP hop, and share the process-wide golden cache.
	LocalExec int

	// Obs receives queue.* counters, gauges and histograms; may be nil.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.ShardSize <= 0 {
		o.ShardSize = 32
	}
	if o.EvalShardSize <= 0 {
		o.EvalShardSize = 8
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 2 * time.Minute
	}
	return o
}

// Coordinator is the campaign-as-a-service job queue: it accepts
// durable jobs, serves them to pulling workers shard by shard
// (work-stealing: idle workers lease the next ready shard, so
// heterogeneous machines self-balance), re-queues expired leases,
// persists every transition to the WAL, and serves every shard some job
// already computed instead of dispatching it.
type Coordinator struct {
	opts Options
	ob   *obs.Observer
	wal  *WAL

	mu    sync.Mutex
	jobs  map[string]*job
	order []*job // every job ever submitted, submit order
	open  []*job // the non-terminal ones, submit order: all the hot paths walk
	// results is the result cache: the value of every done shard of every
	// job in order, by content key. Replay rebuilds it with the jobs.
	results   map[CacheKey][]byte
	nextSeq   int
	nextLease uint64
	pulse     chan struct{} // closed + replaced on every state change
	draining  bool

	stop chan struct{}
	bg   sync.WaitGroup
}

// NewCoordinator opens (creating if needed) the WAL under opts.DataDir,
// replays it — re-queuing every shard that was leased or pending when
// the previous process stopped, so no work is lost — and starts the
// background dispatchers. A data dir holding an older build's table
// snapshot is refused: that build left its table there beside an empty
// WAL, so replaying the WAL alone would silently lose it.
func NewCoordinator(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, fmt.Errorf("queue: coordinator needs a data dir")
	}
	c := &Coordinator{
		opts:    opts,
		ob:      opts.Obs,
		jobs:    make(map[string]*job),
		results: make(map[CacheKey][]byte),
		pulse:   make(chan struct{}),
		stop:    make(chan struct{}),
	}
	if err := c.recover(); err != nil {
		return nil, err
	}
	c.startLocalWorkers(opts.LocalExec)
	c.bg.Add(1)
	go c.expiryLoop()
	return c, nil
}

// startLocalWorkers runs n in-process Workers against c until c.stop
// closes.
func (c *Coordinator) startLocalWorkers(n int) {
	if n <= 0 {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		<-c.stop
		cancel()
	}()
	for i := 0; i < n; i++ {
		w := newWorker(WorkerOptions{Name: fmt.Sprintf("local-%d", i), Obs: c.ob}, "queue.shards.executed_local")
		w.golden = inject.SharedGoldenCache()
		c.bg.Add(1)
		go func() {
			defer c.bg.Done()
			w.run(ctx, c)
		}()
	}
}

// recover replays the WAL, serves cached shards, and re-queues
// everything else.
func (c *Coordinator) recover() error {
	legacy := filepath.Join(c.opts.DataDir, "snapshot.json")
	if _, err := os.Stat(legacy); err == nil {
		return fmt.Errorf("queue: %s is an older coordinator's job table, which this build does not read; start from an empty data dir", legacy)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("queue: %w", err)
	}
	wal, recs, err := OpenWAL(filepath.Join(c.opts.DataDir, "wal.log"))
	if err != nil {
		return err
	}
	c.wal = wal
	for _, rec := range recs {
		if err := c.replayRecord(rec); err != nil {
			wal.Close()
			return err
		}
	}
	c.ob.Counter("queue.wal.replayed").Add(int64(len(recs)))

	// Re-derive job states and serve whatever the table already holds:
	// a shard another job finished re-completes without a simulate call.
	for _, j := range c.order {
		if j.terminal() {
			continue
		}
		c.open = append(c.open, j)
		c.serveFromCache(j)
		c.refreshState(j)
	}
	// One fsync for every shard-done just re-served; losing them only
	// costs the next restart the same lookups.
	if err := c.wal.Sync(); err != nil {
		c.ob.Counter("queue.wal.errors").Inc()
	}
	c.setOpenGauge()
	return nil
}

// replayRecord applies one WAL record to the in-memory state.
func (c *Coordinator) replayRecord(rec Record) error {
	switch rec.Kind {
	case recSubmit:
		ws, req, err := decodeSubmitRecord(rec.Payload)
		if err != nil {
			return fmt.Errorf("queue: replay submit: %w", err)
		}
		if _, ok := c.jobs[ws.ID]; ok {
			// Replay is idempotent: a duplicate submit is counted and
			// skipped, as a second shard-done or cancel is below.
			c.ob.Counter("queue.wal.replay_duplicates").Inc()
			return nil
		}
		// Only what newJob dereferences: a job Validate accepted when it was
		// written but would refuse today is failed by its executor, not here.
		if (req.Kind == dist.JobCampaign && req.Inject == nil) || (req.Kind != dist.JobCampaign && req.Eval == nil) {
			return fmt.Errorf("queue: replay job %s: request without its payload", ws.ID)
		}
		j := newJob(req, ws.Bounds)
		j.id, j.seq = ws.ID, ws.Seq
		c.jobs[j.id] = j
		c.order = append(c.order, j)
		if ws.Seq >= c.nextSeq {
			c.nextSeq = ws.Seq + 1
		}
	case recJSONSubmit:
		return fmt.Errorf("queue: %s holds an older coordinator's JSON submit record, which this build does not read; start from an empty data dir",
			filepath.Join(c.opts.DataDir, "wal.log"))
	case recShardDone:
		var wd walShardDone
		if err := json.Unmarshal(rec.Payload, &wd); err != nil {
			return fmt.Errorf("queue: replay shard done: %w", err)
		}
		j, ok := c.jobs[wd.ID]
		if !ok {
			return fmt.Errorf("queue: replay: shard done for unknown job %s", wd.ID)
		}
		if wd.Shard < 0 || wd.Shard >= len(j.shards) {
			return fmt.Errorf("queue: replay: job %s shard %d out of range", wd.ID, wd.Shard)
		}
		if j.shards[wd.Shard].state != shardDone {
			c.applyDone(j, wd.Shard, wd.Value, wd.Cached)
		}
	case recCancel:
		var wc walCancel
		if err := json.Unmarshal(rec.Payload, &wc); err != nil {
			return fmt.Errorf("queue: replay cancel: %w", err)
		}
		if j, ok := c.jobs[wc.ID]; ok && !j.terminal() {
			j.state = dist.JobStateCancelled
			if wc.Error != "" {
				j.state, j.errMsg = dist.JobStateFailed, wc.Error
			}
		}
	default:
		return fmt.Errorf("queue: replay: unknown record kind %d", rec.Kind)
	}
	return nil
}

// applyDone marks one shard complete and indexes its value by key.
// Caller holds c.mu (or is single-threaded recovery).
func (c *Coordinator) applyDone(j *job, i int, value []byte, cached bool) {
	s := j.shards[i]
	s.state = shardDone
	s.value = value
	j.done++
	if cached {
		j.cached++
	}
	c.results[s.key] = value
}

// serveFromCache completes every still-ready shard whose key a done
// shard of any job shares. Their shard-done records are appended but not
// yet durable: the caller owes one wal.Sync for the lot. Caller holds
// c.mu (or recovery).
func (c *Coordinator) serveFromCache(j *job) {
	for i, s := range j.shards {
		if s.state != shardReady {
			continue
		}
		value, ok := c.results[s.key]
		if !ok {
			c.ob.Counter("queue.cache.misses").Inc()
			continue
		}
		c.ob.Counter("queue.cache.hits").Inc()
		if err := j.decodeShardValue(i, value); err != nil {
			// A corrupt or mismatched value is treated as a miss; the
			// shard simulates normally.
			c.ob.Counter("queue.cache.decode_errors").Inc()
			continue
		}
		c.ob.Counter("queue.shards.cached").Inc()
		c.walShardDone(j, i, value, true, "")
		c.applyDone(j, i, value, true)
	}
}

// refreshState finalizes a job whose shards are all done. Caller holds
// c.mu (or recovery).
func (c *Coordinator) refreshState(j *job) {
	if j.terminal() {
		return
	}
	if j.done == len(j.shards) {
		c.finish(j, dist.JobStateDone)
		c.ob.Counter("queue.jobs.completed").Inc()
		return
	}
	if j.done > 0 || anyLeased(j) {
		j.state = dist.JobStateRunning
	}
}

func anyLeased(j *job) bool {
	for _, s := range j.shards {
		if s.state == shardLeased {
			return true
		}
	}
	return false
}

// finish moves an open job to a terminal state: it leaves the open
// list, keeping the others' submit order. Caller holds c.mu (or
// recovery).
func (c *Coordinator) finish(j *job, state string) {
	j.state = state
	if i := slices.Index(c.open, j); i >= 0 {
		c.open = slices.Delete(c.open, i, i+1)
	}
	c.setOpenGauge()
}

func (c *Coordinator) setOpenGauge() {
	c.ob.Gauge("queue.jobs.open").Set(float64(len(c.open)))
}

// walAppend marshals and appends one record; durable also fsyncs it
// (WAL.Append), otherwise the caller owes a wal.Sync.
func (c *Coordinator) walAppend(kind byte, v any, durable bool) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("queue: marshal wal record: %w", err)
	}
	if durable {
		return c.wal.Append(kind, payload)
	}
	return c.wal.append(kind, payload)
}

// walShardDone appends one shard-done record unsynced: a submit's one
// Sync, or the one that ends the job in Complete, makes it durable.
func (c *Coordinator) walShardDone(j *job, i int, value []byte, cached bool, worker string) {
	if err := c.walAppend(recShardDone, &walShardDone{
		ID: j.id, Shard: i, Cached: cached, Worker: worker, Value: value,
	}, false); err != nil {
		// A failed durability write must not lose the in-memory result;
		// the job still completes, only crash-resume would re-run it.
		c.ob.Counter("queue.wal.errors").Inc()
	}
}

// broadcast wakes every lease long-poller and waiter. Caller holds
// c.mu.
func (c *Coordinator) broadcast() {
	close(c.pulse)
	c.pulse = make(chan struct{})
}

// Submit validates, persists and enqueues one job, serving every shard
// some job already computed before any dispatch. It returns once the
// job is durable: the submit record and the shard-done records of the
// cache-served shards share one fsync.
func (c *Coordinator) Submit(req *dist.JobRequest) (*dist.JobSubmitResponse, error) {
	return c.submit(req, nil)
}

// submit is Submit for a request whose HXJB frame the caller may
// already hold: a POST /v1/jobs body, which decodes to req and, by the
// frame's canonical-header rule, re-encodes to itself. A nil frame is
// encoded here. Either way the request is encoded at most once, outside
// c.mu.
func (c *Coordinator) submit(req *dist.JobRequest, frame []byte) (*dist.JobSubmitResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if frame == nil {
		var err error
		if frame, err = dist.EncodeJobRequest(req); err != nil {
			return nil, err
		}
	}
	var bounds [][2]int
	if req.Kind == dist.JobCampaign {
		bounds = planBounds(req.Inject.N, c.opts.ShardSize)
	} else {
		bounds = planBounds(len(req.Eval.Genotypes), c.opts.EvalShardSize)
	}
	j := newJob(req, bounds) // hashes the program: before the lock

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return nil, fmt.Errorf("queue: coordinator is shutting down")
	}
	j.seq = c.nextSeq
	j.id = fmt.Sprintf("j-%06d", j.seq)
	if err := c.wal.appendFrame(recSubmit, submitRecord(&walSubmit{ID: j.id, Seq: j.seq, Bounds: bounds}, frame)); err != nil {
		return nil, err // nothing reached the log: the sequence number stays unused
	}
	// From here the log may hold the job's records whatever the sync
	// says, so its sequence number is spent: a later job reusing the id
	// would be dropped as a duplicate by replay.
	c.nextSeq++
	c.serveFromCache(j)
	if err := c.wal.Sync(); err != nil {
		return nil, fmt.Errorf("queue: wal sync: %w", err)
	}
	c.ob.Counter("queue.submit.wal_syncs").Inc()
	c.jobs[j.id] = j
	c.order = append(c.order, j)
	c.open = append(c.open, j)
	c.ob.Counter("queue.jobs.submitted").Inc()

	c.refreshState(j)
	c.setOpenGauge()
	c.broadcast()
	return &dist.JobSubmitResponse{ID: j.id, Shards: len(j.shards), CacheHits: j.cached}, nil
}

// Lease hands the calling worker the next ready shard, long-polling up
// to wait for one to appear. The pick order is (priority desc, submit
// order asc, shard index asc): work-stealing with a deterministic
// frontier. An empty response (JobID == "") means nothing was ready.
//
// programs are the content hashes of the programs the worker can
// resolve from its own memo (dist.HeldPrograms): a campaign shard whose
// program is among them is leased without the bytes, Inject.ProgramHash
// naming them instead. A worker that passes none gets every lease in
// full. The worker's name is not recorded: a lease is known by its
// number.
func (c *Coordinator) Lease(_ string, wait time.Duration, programs ...uint64) (*dist.LeaseResponse, error) {
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		if !c.draining {
			c.expireLocked(time.Now())
			if resp := c.leaseLocked(programs); resp != nil {
				c.mu.Unlock()
				return resp, nil
			}
		} else if pace := time.Now().Add(drainPace); pace.Before(deadline) {
			// A draining coordinator grants nothing and cuts every poll
			// short, parked or new, so shutdown does not wait them out;
			// the short hold keeps in-process workers from spinning
			// while the outstanding leases come home.
			deadline = pace
		}
		pulse := c.pulse
		c.mu.Unlock()

		remaining := time.Until(deadline)
		if remaining <= 0 {
			return &dist.LeaseResponse{}, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-pulse:
			timer.Stop()
		case <-timer.C:
			return &dist.LeaseResponse{}, nil
		case <-c.stop:
			timer.Stop()
			return &dist.LeaseResponse{}, nil
		}
	}
}

// drainPace is how long a draining coordinator still holds a lease or
// status poll.
const drainPace = 100 * time.Millisecond

// leaseLocked picks and leases the next ready shard, or returns nil.
// Caller holds c.mu.
func (c *Coordinator) leaseLocked(programs []uint64) *dist.LeaseResponse {
	j, i := c.nextReadyLocked()
	if j == nil {
		return nil
	}
	s := j.shards[i]
	c.nextLease++
	s.state = shardLeased
	s.lease = c.nextLease
	s.leasedAt = time.Now()
	s.deadline = s.leasedAt.Add(c.opts.LeaseTimeout)
	if j.state == dist.JobStatePending {
		j.state = dist.JobStateRunning
	}
	c.ob.Counter("queue.leases.granted").Inc()
	resp := &dist.LeaseResponse{JobID: j.id, Shard: i, Lease: s.lease, Kind: j.req.Kind}
	if j.req.Kind == dist.JobCampaign {
		resp.Inject = j.shardInjectReq(i)
		if j.program != 0 && slices.Contains(programs, j.program) { // 0 is "no hash" on the wire
			resp.Inject.Program, resp.Inject.ProgramHash = nil, j.program
			c.ob.Counter("queue.leases.program_omitted").Inc()
		}
	} else {
		resp.Eval = j.shardEvalReq(i)
	}
	return resp
}

// nextReadyLocked scans the open jobs for the first ready shard of the
// best job by (priority desc, submit order asc). The open slice stays
// submit-ordered; priority is applied by the scan. Caller holds c.mu.
func (c *Coordinator) nextReadyLocked() (*job, int) {
	var bestJob *job
	bestShard := -1
	for _, j := range c.open {
		if bestJob != nil && j.prio <= bestJob.prio {
			continue // earlier submits win ties
		}
		for i, s := range j.shards {
			if s.state == shardReady {
				bestJob, bestShard = j, i
				break
			}
		}
	}
	return bestJob, bestShard
}

// expireLocked re-queues every leased shard past its deadline. Caller
// holds c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	expired := 0
	for _, j := range c.open {
		for _, s := range j.shards {
			if s.state == shardLeased && now.After(s.deadline) {
				s.requeue()
				expired++
			}
		}
	}
	if expired > 0 {
		c.ob.Counter("queue.lease.expirations").Add(int64(expired))
		c.broadcast()
	}
}

// maxShardFailures is how many executor errors one shard may report
// before its job fails: executors are deterministic, so the retries only
// rule out the worker (a program evicted from its memo, a full disk),
// and a job re-queued for ever starves every job behind it.
const maxShardFailures = 3

// Complete accepts a leased shard's result (or failure). Stale leases —
// expired and possibly re-assigned — are acknowledged and discarded;
// the re-lease's result is the one that counts, and values are
// content-determined so the discard can never lose information. A
// shard's maxShardFailures-th executor error fails its job, durably.
//
// A result's shard-done record is appended unsynced, so the ack is no
// durability promise: the completion that finishes the job makes all
// of it durable with one fsync before the job turns done. A power cut
// that drops an earlier, unsynced completion leaves its shard pending
// after replay, and it re-runs to the same bytes.
func (c *Coordinator) Complete(req *dist.CompleteRequest) (*dist.CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[req.JobID]
	if !ok {
		return nil, fmt.Errorf("queue: no job %s", req.JobID)
	}
	if req.Shard < 0 || req.Shard >= len(j.shards) {
		return nil, fmt.Errorf("queue: job %s has no shard %d", req.JobID, req.Shard)
	}
	if j.terminal() {
		// Cancelled (or already finished) while the worker was busy.
		return &dist.CompleteResponse{OK: true, Stale: true}, nil
	}
	s := j.shards[req.Shard]
	if s.state != shardLeased || s.lease != req.Lease {
		c.ob.Counter("queue.complete.stale").Inc()
		return &dist.CompleteResponse{OK: true, Stale: true}, nil
	}
	fail := func() {
		s.requeue()
		c.ob.Counter("queue.shard.failures").Inc()
		c.broadcast()
	}
	if req.Err != "" {
		fail()
		if s.failures++; s.failures >= maxShardFailures {
			if err := c.walAppend(recCancel, &walCancel{ID: j.id, Error: req.Err}, true); err != nil {
				c.ob.Counter("queue.wal.errors").Inc() // fails the same way after a restart
			}
			j.errMsg = req.Err
			c.finish(j, dist.JobStateFailed)
			c.ob.Counter("queue.jobs.failed").Inc()
		}
		return &dist.CompleteResponse{OK: true}, nil
	}
	value, err := j.encodeShardResult(req.Shard, req)
	if err != nil {
		// A malformed result is a worker bug: re-queue the shard and
		// reject the completion.
		fail()
		return nil, err
	}
	c.ob.Histogram("queue.shard.ns").ObserveDuration(time.Since(s.leasedAt))
	c.ob.Counter("queue.shards.completed").Inc()
	c.walShardDone(j, req.Shard, value, false, req.Worker)
	c.applyDone(j, req.Shard, value, false)
	if j.done == len(j.shards) {
		// One sync covers the whole append-only log, so every record of
		// the job is durable before anyone can see it done.
		if err := c.wal.Sync(); err != nil {
			c.ob.Counter("queue.wal.errors").Inc() // kept in memory, as a failed append is
		} else {
			c.ob.Counter("queue.complete.wal_syncs").Inc()
		}
	}
	c.refreshState(j)
	c.broadcast()
	return &dist.CompleteResponse{OK: true}, nil
}

// Cancel moves a non-terminal job to cancelled; in-flight leases are
// discarded at completion.
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("queue: no job %s", id)
	}
	if j.terminal() {
		return fmt.Errorf("queue: job %s is already %s", id, j.state)
	}
	if err := c.walAppend(recCancel, &walCancel{ID: id}, true); err != nil {
		return err
	}
	c.finish(j, dist.JobStateCancelled)
	c.ob.Counter("queue.jobs.cancelled").Inc()
	c.broadcast()
	return nil
}

// Status returns one job's externally visible state.
func (c *Coordinator) Status(id string) (*dist.JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, false
	}
	st := j.status()
	return &st, true
}

// List returns every job's status in submit order.
func (c *Coordinator) List() []dist.JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]dist.JobStatus, 0, len(c.order))
	for _, j := range c.order {
		out = append(out, j.status())
	}
	return out
}

// Result returns the merged terminal result of a done job (an error
// for unknown jobs; nil result with the job's state for unfinished or
// cancelled ones).
func (c *Coordinator) Result(id string) (*dist.JobResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("queue: no job %s", id)
	}
	return j.result()
}

// Wait blocks until the job reaches a terminal state and returns its
// merged result (in-process convenience used by tests and embedded
// callers; remote clients long-poll the status endpoint).
func (c *Coordinator) Wait(id string) (*dist.JobResult, error) {
	var res *dist.JobResult
	var err error
	if werr := c.watch(id, time.Time{}, nil, func(j *job) { res, err = j.result() }); werr != nil {
		return nil, werr
	}
	return res, err
}

// errNoJob is watch's error for an id the coordinator never issued.
var errNoJob = errors.New("no such job")

// watch is the one wait loop of Wait and the status long poll. It
// returns once job id is terminal, changed (if non-nil) holds for it or
// deadline has passed, and calls view on the job under c.mu then. A zero
// deadline waits for ever; a draining coordinator cuts any other wait to
// drainPace, as it does a lease poll's. It fails for an unknown job, and
// when the coordinator stops first.
func (c *Coordinator) watch(id string, deadline time.Time, changed func(*job) bool, view func(*job)) error {
	for {
		c.mu.Lock()
		j, ok := c.jobs[id]
		if !ok {
			c.mu.Unlock()
			return fmt.Errorf("queue: %w: %s", errNoJob, id)
		}
		now := time.Now()
		if pace := now.Add(drainPace); c.draining && !deadline.IsZero() && pace.Before(deadline) {
			deadline = pace
		}
		if j.terminal() || (changed != nil && changed(j)) || (!deadline.IsZero() && !now.Before(deadline)) {
			view(j)
			c.mu.Unlock()
			return nil
		}
		pulse := c.pulse
		c.mu.Unlock()

		var expired <-chan time.Time // nil: no deadline
		if !deadline.IsZero() {
			expired = time.After(deadline.Sub(now))
		}
		select {
		case <-pulse:
		case <-expired:
		case <-c.stop:
			return fmt.Errorf("queue: coordinator closed while waiting for %s", id)
		}
	}
}

// expiryLoop re-queues expired leases in the background so stalled
// workers cannot wedge a job even with no lease traffic arriving.
func (c *Coordinator) expiryLoop() {
	defer c.bg.Done()
	interval := max(c.opts.LeaseTimeout/4, 50*time.Millisecond)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

// Drain starts the shutdown: from here submits are refused, no lease is
// granted and every lease poll, parked or new, is answered empty within
// drainPace, as every status long poll is answered with the job's
// status then, while completions of outstanding leases are still
// accepted. A daemon calls it before shutting its HTTP server down,
// which would otherwise wait out the workers' and clients' long polls;
// Close calls it too. Idempotent.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.draining {
		c.draining = true
		c.broadcast()
	}
}

// WaitLeases blocks until every outstanding lease has completed or ctx
// is done, and returns how many were still out. A daemon calls it after
// Drain and before closing its listener, so that a worker finishing
// during the drain can still deliver its completion; Close calls it
// too.
func (c *Coordinator) WaitLeases(ctx context.Context) int {
	for {
		c.mu.Lock()
		outstanding := 0
		for _, j := range c.open {
			for _, s := range j.shards {
				if s.state == shardLeased {
					outstanding++
				}
			}
		}
		pulse := c.pulse
		c.mu.Unlock()
		if outstanding == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return outstanding
		case <-pulse:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Close gracefully shuts the coordinator down: new submits and leases
// are refused, in-flight leases get until ctx's deadline to complete (a
// lease that misses it is simply re-queued on the next start — the WAL
// already has everything else), the background loops stop, and the WAL
// is synced and closed.
func (c *Coordinator) Close(ctx context.Context) error {
	c.Drain()
	if n := c.WaitLeases(ctx); n > 0 {
		c.ob.Counter("queue.close.undrained_leases").Add(int64(n))
	}
	close(c.stop)
	c.bg.Wait()
	return c.wal.Close()
}
