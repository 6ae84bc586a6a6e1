package queue

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
)

// Server exposes the coordinator over HTTP: the v1 job endpoints, the
// work-stealing lease/complete pair for pulling workers, and the
// Prometheus exposition on the same listener.
//
//	POST /v1/jobs            submit a campaign or eval job (an HXJB frame)
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}       one job's status (partial stats included);
//	                         ?wait_ms=W long-polls: the reply waits until
//	                         the job is terminal, W has passed or, with
//	                         &done=K, its done-shard count is not K
//	GET  /v1/jobs/{id}/result  a done or cancelled job's merged result
//	POST /v1/jobs/{id}/cancel  cancel a job
//	POST /v1/lease           long-poll for the next ready shard
//	POST /v1/complete        return a leased shard's result
//	GET  /v1/healthz         liveness
//	GET  /metrics            Prometheus text exposition
type Server struct {
	coord *Coordinator
	// maxPollWait caps one long poll, lease or status, whatever the
	// caller asks for.
	maxPollWait time.Duration
}

// NewServer wraps a coordinator.
func NewServer(c *Coordinator) *Server { return &Server{coord: c, maxPollWait: 5 * time.Minute} }

// Handler returns the coordinator's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(dist.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc(dist.PathJobs, s.handleJobs)
	mux.HandleFunc(dist.PathJobs+"/", s.handleJob)
	mux.HandleFunc(dist.PathLease, s.handleLease)
	mux.HandleFunc(dist.PathComplete, s.handleComplete)
	mux.Handle(dist.PathMetrics, obs.PromHandler(s.coord.ob.Registry()))
	return mux
}

// handleJobs serves POST (submit) and GET (list) on /v1/jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		dist.WriteJSON(w, &dist.JobListResponse{Jobs: s.coord.List()})
	case http.MethodPost:
		if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) != dist.JobContentType {
			http.Error(w, fmt.Sprintf("POST %s takes Content-Type %s (an HXJB job frame), not %q",
				dist.PathJobs, dist.JobContentType, ct), http.StatusUnsupportedMediaType)
			return
		}
		body, ok := dist.ReadBody(w, r)
		if !ok {
			return
		}
		req, err := dist.DecodeJobRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := s.coord.submit(req, body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		dist.WriteJSON(w, resp)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleJob routes /v1/jobs/{id}, /v1/jobs/{id}/result and
// /v1/jobs/{id}/cancel.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, dist.PathJobs+"/")
	id, verb, _ := strings.Cut(rest, "/")
	if id == "" {
		http.Error(w, "missing job id", http.StatusBadRequest)
		return
	}
	switch verb {
	case "":
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleStatus(w, r, id)
	case "result":
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		res, err := s.coord.Result(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		if res.State != dist.JobStateDone && res.State != dist.JobStateCancelled {
			http.Error(w, fmt.Sprintf("job %s is %s", id, res.State), http.StatusConflict)
			return
		}
		dist.WriteJSON(w, res)
	case "cancel":
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if err := s.coord.Cancel(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		dist.WriteJSON(w, map[string]bool{"ok": true})
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// handleStatus serves GET /v1/jobs/{id}, long-polling when the query
// carries wait_ms. Without it the reply is the job's status at once.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, id string) {
	q := r.URL.Query()
	var wait time.Duration
	var changed func(*job) bool
	if q.Has("wait_ms") {
		ms, err := strconv.Atoi(q.Get("wait_ms"))
		if err != nil || ms < 0 {
			http.Error(w, "wait_ms: want a count of milliseconds", http.StatusBadRequest)
			return
		}
		wait = min(time.Duration(ms)*time.Millisecond, s.maxPollWait)
		if q.Has("done") {
			k, err := strconv.Atoi(q.Get("done"))
			if err != nil {
				http.Error(w, "done: want a shard count", http.StatusBadRequest)
				return
			}
			changed = func(j *job) bool { return j.done != k }
		}
	}
	var st dist.JobStatus
	err := s.coord.watch(id, time.Now().Add(wait), changed, func(j *job) { st = j.status() })
	switch {
	case errors.Is(err, errNoJob):
		http.Error(w, "no such job", http.StatusNotFound)
	case err != nil:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		dist.WriteJSON(w, &st)
	}
}

// handleLease serves the work-stealing long poll.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req dist.LeaseRequest
	if !dist.ReadJSON(w, r, &req) {
		return
	}
	wait := min(time.Duration(req.WaitMs)*time.Millisecond, s.maxPollWait)
	resp, err := s.coord.Lease(req.Worker, wait, req.Programs...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	dist.WriteJSON(w, resp)
}

// handleComplete accepts a worker's shard result.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req dist.CompleteRequest
	if !dist.ReadJSON(w, r, &req) {
		return
	}
	resp, err := s.coord.Complete(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	dist.WriteJSON(w, resp)
}
