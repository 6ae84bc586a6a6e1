package queue

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"harpocrates/internal/core"
	"harpocrates/internal/dist"
	"harpocrates/internal/inject"
	"harpocrates/internal/prog"
)

// Client talks to a coordinator. It survives coordinator restarts: the
// durable queue means a submitted job keeps its identity across a
// crash, so Await simply re-polls until the restarted coordinator
// answers again.
type Client struct {
	base   string
	client *http.Client

	// PollInterval paces Await when the coordinator is not holding its
	// status long polls: the sleep before retrying a transport error,
	// and after a reply that came back early with nothing new (a
	// draining coordinator, or an older one that ignores wait_ms)
	// (default 200ms).
	PollInterval time.Duration
	// RetryWindow bounds how long transport errors are tolerated while
	// awaiting — the window a coordinator restart may take
	// (default 2 minutes).
	RetryWindow time.Duration
}

// NewClient builds a client for a coordinator base URL ("http://host:port";
// a bare "host:port" gets the scheme prefixed).
func NewClient(base string) *Client {
	return &Client{
		base:         dist.NormalizeURL(base),
		client:       &http.Client{},
		PollInterval: 200 * time.Millisecond,
		RetryWindow:  2 * time.Minute,
	}
}

func (c *Client) post(path string, reqBody, respBody any) error {
	return wrapErr(dist.PostJSON(context.TODO(), c.client, c.base+path, reqBody, respBody))
}

func (c *Client) get(path string, respBody any) error {
	return wrapErr(dist.GetJSON(context.TODO(), c.client, c.base+path, respBody))
}

func wrapErr(err error) error {
	if err != nil {
		err = fmt.Errorf("queue: %w", err)
	}
	return err
}

// Healthz probes the coordinator.
func (c *Client) Healthz() error { return c.get(dist.PathHealthz, nil) }

// Submit posts one job, framed (dist.EncodeJobRequest).
func (c *Client) Submit(req *dist.JobRequest) (*dist.JobSubmitResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	frame, err := dist.EncodeJobRequest(req)
	if err != nil {
		return nil, err
	}
	var resp dist.JobSubmitResponse
	if err := wrapErr(dist.Post(context.TODO(), c.client, c.base+dist.PathJobs, dist.JobContentType, frame, &resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitCampaign wraps a local campaign + program into a queue job.
func (c *Client) SubmitCampaign(camp *inject.Campaign, p *prog.Program, priority int) (*dist.JobSubmitResponse, error) {
	ireq, err := dist.NewInjectRequest(camp, p)
	if err != nil {
		return nil, err
	}
	return c.Submit(&dist.JobRequest{Kind: dist.JobCampaign, Priority: priority, Inject: &ireq})
}

// List fetches every job's status.
func (c *Client) List() ([]dist.JobStatus, error) {
	var resp dist.JobListResponse
	if err := c.get(dist.PathJobs, &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Cancel cancels one job.
func (c *Client) Cancel(id string) error {
	var resp map[string]bool
	return c.post(dist.PathJobs+"/"+id+"/cancel", struct{}{}, &resp)
}

// Result fetches a terminal job's merged result.
func (c *Client) Result(id string) (*dist.JobResult, error) {
	var res dist.JobResult
	if err := c.get(dist.PathJobs+"/"+id+"/result", &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// awaitPoll is how long one of Await's status polls asks the
// coordinator to hold its reply (the server caps it).
const awaitPoll = 30 * time.Second

// Await long-polls a job to a terminal state and returns its merged
// result: a done campaign's status already carries it, an eval job's is
// fetched from /result once. Transport errors inside RetryWindow are
// retried — a coordinator restart mid-job resumes the durable queue,
// and the client just keeps asking. onEvent, if non-nil, receives the
// job's status at once and then at each change of its shard-completion
// count (for progress display).
func (c *Client) Await(id string, onEvent func(st *dist.JobStatus)) (*dist.JobResult, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	done := -1 // the last completion count seen; -1 answers at once
	var lastErr error
	errSince := time.Time{}
	for {
		query := fmt.Sprintf("?wait_ms=%d", awaitPoll.Milliseconds())
		if onEvent != nil {
			query += fmt.Sprintf("&done=%d", done)
		}
		sent := time.Now()
		var st dist.JobStatus
		if err := c.get(dist.PathJobs+"/"+id+query, &st); err != nil {
			// Distinguish "job unknown" (fatal: the coordinator lost its
			// state, or the id is wrong) from transport errors (retry:
			// the coordinator is restarting).
			if strings.Contains(err.Error(), "no such job") {
				return nil, err
			}
			if errSince.IsZero() {
				errSince = time.Now()
			}
			lastErr = err
			if time.Since(errSince) > c.RetryWindow {
				return nil, fmt.Errorf("queue: coordinator unreachable for %s: %w", c.RetryWindow, lastErr)
			}
			time.Sleep(interval)
			continue
		}
		errSince = time.Time{}
		if onEvent != nil {
			onEvent(&st)
		}
		switch st.State {
		case dist.JobStateDone:
			if st.Stats != nil {
				return &dist.JobResult{ID: id, Kind: st.Kind, State: st.State, Stats: st.Stats}, nil
			}
			return c.Result(id)
		case dist.JobStateCancelled, dist.JobStateFailed:
			res := &dist.JobResult{ID: id, Kind: st.Kind, State: st.State}
			if st.State == dist.JobStateFailed && st.Error != "" {
				return res, fmt.Errorf("queue: job %s failed: %s", id, st.Error)
			}
			return res, nil
		}
		news := onEvent != nil && st.Done != done
		done = st.Done
		if !news && time.Since(sent) < awaitPoll {
			time.Sleep(interval) // an early reply with nothing new: do not spin
		}
	}
}

// RunCampaign submits a campaign and awaits its merged statistics —
// the queue-backed drop-in for dist.Pool.RunCampaign, with the same
// bit-identity guarantee (shard-index-order merge of deterministic
// shard results).
func (c *Client) RunCampaign(camp *inject.Campaign, p *prog.Program) (*inject.Stats, error) {
	sub, err := c.SubmitCampaign(camp, p, 0)
	if err != nil {
		return nil, err
	}
	res, err := c.Await(sub.ID, nil)
	if err != nil {
		return nil, err
	}
	if res.State != dist.JobStateDone || res.Stats == nil {
		return nil, fmt.Errorf("queue: job %s ended %s without stats", sub.ID, res.State)
	}
	return res.Stats, nil
}

// Evaluator returns a core.Evaluator backed by the queue (set it as
// core.Options.Evaluator): each evaluation batch becomes one queue job,
// sharded, cached and graded by the fleet, reassembled in input order.
func (c *Client) Evaluator() core.Evaluator {
	return dist.NewEvaluator(func(req *dist.EvalRequest) ([]dist.WireEvalResult, error) {
		sub, err := c.Submit(&dist.JobRequest{Kind: dist.JobEval, Eval: req})
		if err != nil {
			return nil, err
		}
		res, err := c.Await(sub.ID, nil)
		if err != nil {
			return nil, err
		}
		if res.State != dist.JobStateDone {
			return nil, fmt.Errorf("queue: eval job %s ended %s", sub.ID, res.State)
		}
		return res.Results, nil
	})
}
