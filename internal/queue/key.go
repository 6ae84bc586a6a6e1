package queue

import (
	"encoding/json"

	"harpocrates/internal/corpus"
	"harpocrates/internal/dist"
	"harpocrates/internal/stats"
)

// Cache key derivation. All three key components use the corpus
// hashing conventions (stats.Mix64 chains seeded with stats.HashInit,
// the same scheme behind corpus filenames and the evaluator's fitness
// memo), so "same content" means the same thing everywhere in the
// system:
//
//   - Program: the Mix64 fold of the HXPG program bytes (campaign
//     shards) or of the length-prefixed HXGT genotype batch (eval
//     shards);
//   - Config: the fold of the canonical JSON of the scalar
//     configuration(s) — hook and event fields carry json:"-" and so
//     are excluded by construction, exactly as on the wire;
//   - Spec: the fold of the fault or evaluation parameters, including
//     the shard bounds.
//
// The wire and the key carry the same fields: every field of a
// dist.InjectRequest lands in one of the three words (ProgramHash only
// stands in for Program in a lease), which TestWireIsTheKey holds the
// struct to.

// foldU64 mixes one 64-bit word into a Mix64 chain.
func foldU64(h, v uint64) uint64 { return stats.Mix64(h, v) }

// foldBytes mixes a length-prefixed byte string into a Mix64 chain
// (the length prefix keeps concatenations unambiguous).
func foldBytes(h uint64, b []byte) uint64 {
	return stats.MixBytes(stats.Mix64(h, uint64(len(b))), b)
}

// hashJSON content-hashes a value's canonical JSON encoding
// (encoding/json emits struct fields in declaration order, so the
// encoding is deterministic for a fixed type).
func hashJSON(v any) uint64 {
	data, err := json.Marshal(v)
	if err != nil {
		// Configuration types are plain scalar structs; marshal cannot
		// fail for them. An impossible failure degrades to a constant,
		// which only costs cache hits, never correctness.
		return stats.HashInit
	}
	return corpus.HashBytes(data)
}

// campaignShardKey derives the content-addressed key of one campaign
// shard request ([Lo, Hi) of the campaign's N specs) — the reference
// definition newJob's precomputed keys are tested against.
func campaignShardKey(req *dist.InjectRequest) CacheKey {
	return CacheKey{
		Program: corpus.HashBytes(req.Program),
		Config:  hashJSON(req.Cfg),
		Spec:    campaignSpec(req, req.Lo, req.Hi),
	}
}

// campaignSpec is the Spec word of shard [lo, hi) of the campaign req
// describes — the only word of a campaign's key that varies by shard.
func campaignSpec(req *dist.InjectRequest, lo, hi int) uint64 {
	spec := stats.HashInit
	spec = foldBytes(spec, []byte(req.Target))
	spec = foldBytes(spec, []byte(req.Type))
	spec = foldU64(spec, uint64(req.N))
	spec = foldU64(spec, req.Seed)
	spec = foldU64(spec, req.IntermittentLen)
	spec = foldU64(spec, uint64(req.BurstLen))
	spec = foldU64(spec, uint64(lo))
	spec = foldU64(spec, uint64(hi))
	return spec
}

// evalShardKey derives the content-addressed key of one evaluation
// shard request (its genotype slice) — the reference definition, as
// campaignShardKey is.
func evalShardKey(req *dist.EvalRequest) CacheKey {
	return evalKey(req, evalConfig(req), req.Genotypes)
}

// evalConfig is the Config word every shard of an eval request shares.
func evalConfig(req *dist.EvalRequest) uint64 {
	cfg := stats.HashInit
	cfg = foldU64(cfg, hashJSON(req.Gen))
	cfg = foldU64(cfg, hashJSON(req.Core))
	return cfg
}

// evalKey keys the shard of req that grades genotypes.
func evalKey(req *dist.EvalRequest, cfg uint64, genotypes [][]byte) CacheKey {
	prog := stats.HashInit
	for _, g := range genotypes {
		prog = foldBytes(prog, g)
	}
	spec := stats.HashInit
	spec = foldBytes(spec, []byte(req.Structure))
	spec = foldU64(spec, uint64(len(genotypes)))
	return CacheKey{Program: prog, Config: cfg, Spec: spec}
}
