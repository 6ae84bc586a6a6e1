package dist

import (
	"net/http"

	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
)

// Server is the worker side of the protocol: it grades evaluation
// batches and runs fault-injection shards on behalf of a coordinator.
// One Server is safe for concurrent requests; each inject shard and
// each eval batch already parallelizes across the worker's cores.
type Server struct {
	ob *obs.Observer
}

// NewServer returns a worker server. The observer may be nil.
func NewServer(ob *obs.Observer) *Server { return &Server{ob: ob} }

// Handler returns the worker's HTTP handler serving PathHealthz,
// PathEval, PathInject and the Prometheus exposition at PathMetrics
// (empty when the server has no registry attached).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealthz, s.handleHealthz)
	mux.HandleFunc(PathEval, s.handleEval)
	mux.HandleFunc(PathInject, s.handleInject)
	mux.Handle(PathMetrics, obs.PromHandler(s.ob.Registry()))
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.ob.Counter("dist.worker.healthz").Inc()
	WriteJSON(w, HealthzResponse{OK: true})
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	stop := s.ob.Phase("dist.worker.phase.eval")
	defer stop()
	var req EvalRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	results, err := RunEval(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.ob.Counter("dist.worker.eval.batches").Inc()
	s.ob.Counter("dist.worker.eval.genotypes").Add(int64(len(results)))
	WriteJSON(w, EvalResponse{Results: results})
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	stop := s.ob.Phase("dist.worker.phase.inject")
	defer stop()
	var req InjectRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	st, err := RunInjectCached(&req, s.ob, inject.SharedGoldenCache())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.ob.Counter("dist.worker.inject.shards").Inc()
	s.ob.Counter("dist.worker.inject.specs").Add(int64(st.N))
	WriteJSON(w, InjectResponse{Stats: *st})
}
