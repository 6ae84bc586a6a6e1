package dist

import (
	"fmt"
	"sync"

	"harpocrates/internal/core"
	"harpocrates/internal/coverage"
	"harpocrates/internal/gen"
	"harpocrates/internal/uarch"
)

// evaluator is the one core.Evaluator adapter of the fleet layer: it
// remembers the run's configuration, wraps each batch into the wire
// EvalRequest and hands it to grade — the push pool's shard dispatcher
// or the queue client's submit-and-await.
type evaluator struct {
	grade func(*EvalRequest) ([]WireEvalResult, error)

	mu  sync.Mutex
	req *EvalRequest // configuration template; nil until Configure
}

// NewEvaluator adapts a batch-grading function to core.Evaluator. grade
// receives a self-contained request (the HXGT-encoded batch under the
// configured structure and configs) and must return one result per
// genotype, in order.
func NewEvaluator(grade func(*EvalRequest) ([]WireEvalResult, error)) core.Evaluator {
	return &evaluator{grade: grade}
}

func (e *evaluator) Configure(st coverage.Structure, gcfg gen.Config, ccfg uarch.Config) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.req = &EvalRequest{Structure: st.String(), Gen: gcfg, Core: ccfg}
	return nil
}

func (e *evaluator) EvaluateBatch(gs []*gen.Genotype) ([]core.EvalResult, error) {
	e.mu.Lock()
	tmpl := e.req
	e.mu.Unlock()
	if tmpl == nil {
		return nil, fmt.Errorf("dist: evaluator used before Configure")
	}
	if len(gs) == 0 {
		return nil, nil
	}
	req := *tmpl
	req.Genotypes = EncodeGenotypes(gs)
	res, err := e.grade(&req)
	if err != nil {
		return nil, err
	}
	if len(res) != len(gs) {
		return nil, fmt.Errorf("dist: evaluator returned %d results for %d genotypes", len(res), len(gs))
	}
	return res, nil
}
