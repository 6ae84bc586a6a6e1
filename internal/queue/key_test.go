package queue

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"harpocrates/internal/coverage"
	"harpocrates/internal/dist"
	"harpocrates/internal/gen"
	"harpocrates/internal/uarch"
)

func evalJob(n int) *dist.JobRequest {
	gcfg := gen.DefaultConfig()
	gcfg.NumInstrs = 60
	rng := rand.New(rand.NewPCG(5, 6))
	var gs []*gen.Genotype
	for i := 0; i < n; i++ {
		gs = append(gs, gen.NewRandom(&gcfg, rng))
	}
	return &dist.JobRequest{Kind: dist.JobEval, Eval: &dist.EvalRequest{
		Structure: coverage.IRF.String(), Gen: gcfg, Core: uarch.DefaultConfig(),
		Genotypes: dist.EncodeGenotypes(gs),
	}}
}

// referenceShardKey is shard i's key by the reference definitions, from
// the shard's self-contained request.
func referenceShardKey(j *job, i int) CacheKey {
	if j.req.Kind == dist.JobCampaign {
		return campaignShardKey(j.shardInjectReq(i))
	}
	return evalShardKey(j.shardEvalReq(i))
}

// The keys a job derives once (program and configuration hashed a single
// time, the O(1) spec folded per shard) are word for word the reference
// per-request keys, for every shard of both job kinds — fresh, and
// rebuilt by WAL replay.
func TestShardKeyEqualsCampaignShardKey(t *testing.T) {
	c, p := testCampaign(t, 37) // a short last shard
	dir := t.TempDir()
	coord := newTestCoordinator(t, dir, 0, nil)
	check := func(coord *Coordinator, when string) {
		t.Helper()
		if len(coord.order) != 2 {
			t.Fatalf("%s: %d jobs, want 2", when, len(coord.order))
		}
		for _, j := range coord.order {
			if len(j.shards) < 2 {
				t.Fatalf("%s: %s job planned %d shards", when, j.req.Kind, len(j.shards))
			}
			for i, s := range j.shards {
				if want := referenceShardKey(j, i); s.key != want {
					t.Fatalf("%s: %s job shard %d key %+v, reference definition %+v", when, j.req.Kind, i, s.key, want)
				}
			}
		}
	}
	for _, req := range []*dist.JobRequest{campaignJob(t, c, p), evalJob(11)} {
		if _, err := coord.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	check(coord, "submitted")
	crashCoordinator(coord)

	coord = newTestCoordinator(t, dir, 0, nil)
	defer closeCoordinator(t, coord)
	check(coord, "replayed")
}

// perturb changes every JSON-visible leaf under v, one at a time, and
// hands each perturbed state to visit with the leaf's path.
func perturb(t *testing.T, path string, v reflect.Value, visit func(path string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.IsExported() && f.Tag.Get("json") != "-" {
				perturb(t, path+"."+f.Name, v.Field(i), visit)
			}
		}
		return
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturb(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i), visit)
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: a %v on the wire; teach perturb about it", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}

// The wire and the key carry the same fields: changing anything a
// dist.InjectRequest carries, bar the pair that routes the program
// bytes, changes campaignShardKey. A field the key does not hash is one
// the queue would answer from a result computed under another setting
// of it, so it has no business on the wire.
func TestWireIsTheKey(t *testing.T) {
	req := &dist.InjectRequest{
		Program: []byte("program"), Target: "irf", Type: "transient", N: 40, Lo: 8, Hi: 16,
		Seed: 7, IntermittentLen: 3, BurstLen: 2, Cfg: uarch.DefaultConfig(),
	}
	ref := campaignShardKey(req)
	v := reflect.ValueOf(req).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Program" || name == "ProgramHash" {
			continue
		}
		perturb(t, name, v.Field(i), func(path string) {
			if campaignShardKey(req) == ref {
				t.Errorf("InjectRequest.%s travels the wire but is not in campaignShardKey", path)
			}
		})
	}
	if campaignShardKey(req) != ref {
		t.Fatal("perturb did not restore the request")
	}
}
