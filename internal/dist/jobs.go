package dist

import (
	"fmt"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
)

// Protocol v1 extensions for the campaign-as-a-service coordinator
// (internal/queue, cmd/harpoq). The job endpoints live on the
// coordinator, not the worker: clients submit durable jobs, workers
// *pull* shards via lease/complete (work-stealing) instead of having
// fixed shard pushes sized for them. The payload shapes reuse the
// existing v1 request types — an InjectRequest template for campaign
// jobs and an EvalRequest for GA-evaluation batches — so a pushed shard
// (Pool) and a pulled one (queue.Worker) are byte-identical work
// descriptions.
const (
	// PathJobs accepts POST (submit a JobRequest as an HXJB frame of
	// type JobContentType) and GET (list jobs);
	// "/v1/jobs/{id}" serves status, "/v1/jobs/{id}/result" the merged
	// result and "/v1/jobs/{id}/cancel" (POST) cancellation.
	PathJobs = "/v1/jobs"
	// PathLease is the worker pull endpoint: long-poll for the next
	// ready shard.
	PathLease = "/v1/lease"
	// PathComplete returns a leased shard's result to the coordinator.
	PathComplete = "/v1/complete"
	// PathMetrics serves the obs registry in Prometheus text format on
	// both coordinator and worker listeners.
	PathMetrics = "/metrics"
)

// Job kinds.
const (
	JobCampaign = "campaign"
	JobEval     = "eval"
)

// Job states.
const (
	JobStatePending   = "pending"
	JobStateRunning   = "running"
	JobStateDone      = "done"
	JobStateCancelled = "cancelled"
	JobStateFailed    = "failed"
)

// JobRequest submits one durable job to the coordinator. Exactly one of
// Inject/Eval must be set, matching Kind. For campaign jobs the
// InjectRequest is a template: Lo/Hi are ignored (the coordinator plans
// shards over [0, N)).
type JobRequest struct {
	Kind     string `json:"kind"`
	Priority int    `json:"priority,omitempty"`

	Inject *InjectRequest `json:"inject,omitempty"`
	Eval   *EvalRequest   `json:"eval,omitempty"`
}

// MaxCampaignN bounds one campaign job, so a single submit cannot make
// the coordinator plan (and allocate) an unbounded shard table.
const MaxCampaignN = 1 << 24

// Validate checks the kind/payload pairing and what costs O(1) to check
// of the payload — names, bounds, the core configuration — so that a
// job no executor could run is refused rather than made durable. The
// program and genotype bytes are not decoded here.
func (r *JobRequest) Validate() error {
	switch r.Kind {
	case JobCampaign:
		if r.Inject == nil || r.Eval != nil {
			return fmt.Errorf("dist: campaign job needs exactly an inject payload")
		}
		if r.Inject.N <= 0 || r.Inject.N > MaxCampaignN {
			return fmt.Errorf("dist: campaign job needs 0 < N <= %d", MaxCampaignN)
		}
		if r.Inject.ProgramHash != 0 {
			// Only the coordinator writes it, into a lease; a job that
			// named its program by hash would run whatever a worker
			// happens to hold.
			return fmt.Errorf("dist: a campaign job carries its program, not a program_hash")
		}
		if _, err := r.Inject.model(); err != nil {
			return err
		}
	case JobEval:
		if r.Eval == nil || r.Inject != nil {
			return fmt.Errorf("dist: eval job needs exactly an eval payload")
		}
		if len(r.Eval.Genotypes) == 0 {
			return fmt.Errorf("dist: eval job needs at least one genotype")
		}
		if _, err := r.Eval.structure(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("dist: unknown job kind %q", r.Kind)
	}
	return nil
}

// JobSubmitResponse acknowledges a submit. Shards is the planned shard
// count; CacheHits of them were served directly from the coordinator's
// result cache and will never be dispatched.
type JobSubmitResponse struct {
	ID        string `json:"id"`
	Shards    int    `json:"shards"`
	CacheHits int    `json:"cache_hits"`
}

// JobStatus is one job's externally visible state (GET /v1/jobs/{id}).
type JobStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Priority int    `json:"priority,omitempty"`
	Error    string `json:"error,omitempty"`

	Shards int `json:"shards"`
	Done   int `json:"done"`
	Cached int `json:"cached"`

	// Stats is the running shard-order merge of the completed shards of
	// a campaign job (partial until State == done).
	Stats *inject.Stats `json:"stats,omitempty"`
}

// JobListResponse is GET /v1/jobs (submit order).
type JobListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// JobResult is the merged terminal result (GET /v1/jobs/{id}/result;
// 409 until the job is done).
type JobResult struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`

	Stats   *inject.Stats    `json:"stats,omitempty"`   // campaign jobs
	Results []WireEvalResult `json:"results,omitempty"` // eval jobs
}

// LeaseRequest asks the coordinator for the next ready shard. WaitMs
// long-polls: the coordinator holds the request open up to that long
// waiting for work before answering "nothing".
type LeaseRequest struct {
	Worker string `json:"worker"`
	WaitMs int    `json:"wait_ms,omitempty"`
	// Programs are the content hashes of the programs the worker's memo
	// holds (HeldPrograms); a campaign shard of one of them is leased
	// with InjectRequest.ProgramHash in place of the bytes.
	Programs []uint64 `json:"programs,omitempty"`
}

// LeaseResponse grants one shard (JobID == "" means no work was ready
// within the poll window). The shard payload is self-contained: Inject
// arrives with Lo/Hi filled, Eval with the shard's genotype slice, so a
// pull worker executes it exactly as a pushed request — once it has put
// back a program the coordinator left out because the worker holds it.
type LeaseResponse struct {
	JobID string `json:"job_id,omitempty"`
	Shard int    `json:"shard,omitempty"`
	Lease uint64 `json:"lease,omitempty"`
	Kind  string `json:"kind,omitempty"`

	Inject *InjectRequest `json:"inject,omitempty"`
	Eval   *EvalRequest   `json:"eval,omitempty"`
}

// CompleteRequest returns a leased shard's result. Err reports an
// execution failure (the coordinator re-queues the shard).
type CompleteRequest struct {
	Worker string `json:"worker"`
	JobID  string `json:"job_id"`
	Shard  int    `json:"shard"`
	Lease  uint64 `json:"lease"`

	Stats   *inject.Stats    `json:"stats,omitempty"`
	Results []WireEvalResult `json:"results,omitempty"`
	Err     string           `json:"err,omitempty"`
}

// CompleteResponse acknowledges a completion. Stale is set when the
// lease had already expired and been re-assigned (the result was
// discarded; the worker should just lease again).
type CompleteResponse struct {
	OK    bool `json:"ok"`
	Stale bool `json:"stale,omitempty"`
}

// NewInjectRequest builds the wire template for a campaign (the
// exported form of the coordinator's internal shard template; Lo/Hi are
// left zero for the job layer to fill per shard).
func NewInjectRequest(c *inject.Campaign, p *prog.Program) (InjectRequest, error) {
	progBytes, err := EncodeProgram(p)
	if err != nil {
		return InjectRequest{}, err
	}
	return campaignRequest(c, progBytes), nil
}

// RunInjectCached executes one campaign shard request in process — the
// single execution function shared by the push-mode worker handler and
// the queue worker loop (over HTTP or inside the coordinator), so every
// path produces bit-identical shard statistics. Every shard that shares
// gc and a (program, config) key computes the instrumented golden run
// once; a nil gc means this shard computes its own.
func RunInjectCached(req *InjectRequest, ob *obs.Observer, gc *inject.GoldenCache) (*inject.Stats, error) {
	c, err := CampaignFor(req, ob)
	if err != nil {
		return nil, err
	}
	c.GoldenCache = gc
	return c.RunRange(req.Lo, req.Hi)
}

// RunEval executes one evaluation shard request in process (see
// RunInjectCached).
func RunEval(req *EvalRequest) ([]WireEvalResult, error) {
	st, err := req.structure()
	if err != nil {
		return nil, err
	}
	gs, err := DecodeGenotypes(req.Genotypes)
	if err != nil {
		return nil, err
	}
	return core.GradeBatch(gs, &req.Gen, req.Core, coverage.MetricFor(st)), nil
}

// structure parses the request's structure name and checks its core
// configuration.
func (req *EvalRequest) structure() (coverage.Structure, error) {
	st, err := coverage.Parse(req.Structure)
	if err == nil {
		err = req.Core.Validate()
	}
	return st, err
}

// model parses the request's names into the campaign it describes,
// without its program, and checks it through inject.Campaign.Validate:
// a buildable core and a fault model (target, type and burst length) the
// injector implements.
func (req *InjectRequest) model() (*inject.Campaign, error) {
	target, err := coverage.Parse(req.Target)
	if err != nil {
		return nil, err
	}
	ftype, err := inject.ParseFaultType(req.Type)
	if err != nil {
		return nil, err
	}
	c := &inject.Campaign{
		Target:          target,
		Type:            ftype,
		N:               req.N,
		IntermittentLen: req.IntermittentLen,
		BurstLen:        req.BurstLen,
		Seed:            req.Seed,
		Cfg:             req.Cfg,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// CampaignFor reconstructs a campaign from a shard request. The
// hook-free scalar config arrives on the wire; structure-specific hooks
// are rebuilt by the campaign itself, so the executing side's faulty
// runs are bit-identical to the submitting side's.
func CampaignFor(req *InjectRequest, ob *obs.Observer) (*inject.Campaign, error) {
	c, err := req.model()
	if err != nil {
		return nil, err
	}
	p, programHash, err := programs.decode(req.Program, ob)
	if err != nil {
		return nil, err
	}
	c.Prog, c.Init = p.Insts, p.InitFunc()
	// The golden cache key's program component is the content hash of
	// the wire bytes — the same convention the queue result cache uses,
	// so both caches agree about what "same program" means.
	c.ProgramHash = programHash
	c.Obs = ob
	return c, nil
}
