package dist

import (
	"fmt"

	"harpocrates/internal/core"
	"harpocrates/internal/corpus"
	"harpocrates/internal/gen"
	"harpocrates/internal/inject"
	"harpocrates/internal/prog"
	"harpocrates/internal/uarch"
)

// Wire protocol v1. The endpoints speak JSON over HTTP POST (healthz is
// GET); binary payloads reuse the repo's existing container formats —
// programs travel as HXPG bytes (prog.WriteTo) and genotypes as HXGT
// bytes (corpus.EncodeGenotype). Inside a JSON body (a push to /v1/inject
// or /v1/eval, a lease) encoding/json base64-wraps them; POST /v1/jobs
// takes an HXJB job frame instead, which carries them raw (jobframe.go).
// The path prefix carries the protocol version; incompatible changes
// bump it.
const (
	PathHealthz = "/v1/healthz"
	PathEval    = "/v1/eval"
	PathInject  = "/v1/inject"
)

// InjectRequest asks a worker to run the contiguous shard [Lo, Hi) of a
// fault-injection campaign's N specs. Everything the worker needs to
// replay the coordinator's campaign deterministically is explicit:
// the serialized program, the campaign shape and the scalar core
// configuration (hook fields are rebuilt worker-side from Target/Type).
//
// The wire and the key carry the same fields: apart from the routing
// pair Program/ProgramHash, every field here is hashed into the queue's
// shard key. How fast the executing side gets to the
// result (checkpoint resume, delta termination, golden reuse) is not a
// property of a request.
type InjectRequest struct {
	// Program is the HXPG-serialized test program. Only a lease granted
	// to a worker that advertised the program (LeaseRequest.Programs)
	// omits it.
	Program []byte `json:"program,omitempty"`
	// ProgramHash stands in for Program in such a lease: the content
	// hash (stats.HashBytes) of the omitted bytes, which the worker
	// resolves from its own program memo. It is never a claim about
	// bytes that do travel — executors hash those themselves.
	ProgramHash uint64 `json:"program_hash,omitempty"`
	// Target is the structure name (coverage.Parse form).
	Target string `json:"target"`
	// Type is the fault type name (inject.ParseFaultType form).
	Type string `json:"type"`
	// N is the whole campaign's injection count; [Lo, Hi) is this
	// shard's spec range.
	N  int `json:"n"`
	Lo int `json:"lo"`
	Hi int `json:"hi"`

	Seed            uint64 `json:"seed"`
	IntermittentLen uint64 `json:"intermittent_len,omitempty"`
	// BurstLen is the multi-bit-upset width for bit-array targets
	// (inject.Campaign.BurstLen; 0/1 = single-bit).
	BurstLen int `json:"burst_len,omitempty"`

	Cfg uarch.Config `json:"cfg"`
}

// InjectResponse carries one shard's partial statistics (Stats.N is
// Hi-Lo; Outcomes indexed from Lo).
type InjectResponse struct {
	Stats inject.Stats `json:"stats"`
}

// EvalRequest asks a worker to grade a batch of genotypes under an
// explicit evaluation configuration. The worker grades with the
// structure's default coverage metric (coverage.MetricFor), exactly as
// core.GradeGenotype does locally.
type EvalRequest struct {
	// Structure is the target structure name (coverage.Parse form).
	Structure string `json:"structure"`
	// Gen and Core are the normalized configurations of the run (the
	// same values core.Run hands to Evaluator.Configure).
	Gen  gen.Config   `json:"gen"`
	Core uarch.Config `json:"core"`
	// Genotypes are HXGT-serialized genotypes (corpus.EncodeGenotype).
	Genotypes [][]byte `json:"genotypes"`
}

// EvalResponse carries the grades, positionally aligned with the
// request's genotypes.
type EvalResponse struct {
	Results []WireEvalResult `json:"results"`
}

// WireEvalResult is one grade on the wire: core.EvalResult itself, whose
// JSON tags are the schema.
type WireEvalResult = core.EvalResult

// HealthzResponse is the worker liveness probe reply.
type HealthzResponse struct {
	OK bool `json:"ok"`
}

// EncodeProgram serializes a program into its HXPG wire bytes. It never
// fails.
func EncodeProgram(p *prog.Program) ([]byte, error) { return p.Serialize(), nil }

// DecodeProgram parses HXPG wire bytes back into a program.
func DecodeProgram(data []byte) (*prog.Program, error) {
	p, err := prog.Deserialize(data)
	if err != nil {
		return nil, fmt.Errorf("dist: parse program: %w", err)
	}
	return p, nil
}

// EncodeGenotypes serializes a genotype batch into HXGT wire bytes.
func EncodeGenotypes(gs []*gen.Genotype) [][]byte {
	out := make([][]byte, len(gs))
	for i, g := range gs {
		out[i] = corpus.EncodeGenotype(g)
	}
	return out
}

// DecodeGenotypes parses a batch of HXGT wire bytes.
func DecodeGenotypes(data [][]byte) ([]*gen.Genotype, error) {
	out := make([]*gen.Genotype, len(data))
	for i, d := range data {
		g, err := corpus.DecodeGenotype(d)
		if err != nil {
			return nil, fmt.Errorf("dist: genotype %d: %w", i, err)
		}
		out[i] = g
	}
	return out, nil
}

// campaignRequest builds the shard request template for a campaign
// (shard bounds are filled per dispatch).
func campaignRequest(c *inject.Campaign, progBytes []byte) InjectRequest {
	return InjectRequest{
		Program:         progBytes,
		Target:          c.Target.String(),
		Type:            c.Type.String(),
		N:               c.N,
		Seed:            c.Seed,
		IntermittentLen: c.IntermittentLen,
		BurstLen:        c.BurstLen,
		Cfg:             c.Cfg,
	}
}
