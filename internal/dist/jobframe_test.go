package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"harpocrates/internal/binfmt/binfmttest"
	"harpocrates/internal/gen"
	"harpocrates/internal/uarch"
)

// testJobs returns one campaign and one eval request with real payloads.
func testJobs(t *testing.T) (campaign, eval *JobRequest) {
	t.Helper()
	gs, cfg := testGenotypes(t, 3)
	program, err := EncodeProgram(gen.Materialize(gs[0], &cfg))
	if err != nil {
		t.Fatal(err)
	}
	campaign = &JobRequest{Kind: JobCampaign, Priority: 3, Inject: &InjectRequest{
		Program: program, Target: "irf", Type: "transient", N: 40, Seed: 7, BurstLen: 2, Cfg: uarch.DefaultConfig(),
	}}
	eval = &JobRequest{Kind: JobEval, Eval: &EvalRequest{
		Structure: "irf", Gen: cfg, Core: uarch.DefaultConfig(), Genotypes: EncodeGenotypes(gs),
	}}
	return campaign, eval
}

// pinnedJobFrame hand-builds an HXJB v1 frame from the documented
// layout — "HXJB", u32 1, the u32-length-prefixed JSON header, then the
// payloads, each u32-length-prefixed (the genotypes behind their u32
// count) — without touching binfmt.
func pinnedJobFrame(head string, program []byte, genotypes [][]byte) []byte {
	u32 := binary.LittleEndian.AppendUint32
	b := u32([]byte("HXJB"), 1)
	b = append(u32(b, uint32(len(head))), head...)
	if program != nil {
		b = append(u32(b, uint32(len(program))), program...)
	}
	if genotypes != nil {
		b = u32(b, uint32(len(genotypes)))
		for _, g := range genotypes {
			b = append(u32(b, uint32(len(g))), g...)
		}
	}
	return b
}

func TestJobRequestFormatPinned(t *testing.T) {
	campaign, eval := testJobs(t)
	cfg, err := json.Marshal(uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	genCfg, err := json.Marshal(eval.Eval.Gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  *JobRequest
		want []byte
	}{
		{"campaign", campaign, pinnedJobFrame(
			`{"kind":"campaign","priority":3,"inject":{"target":"irf","type":"transient","n":40,"lo":0,"hi":0,"seed":7,"burst_len":2,"cfg":`+string(cfg)+`}}`,
			campaign.Inject.Program, nil)},
		{"eval", eval, pinnedJobFrame(
			`{"kind":"eval","eval":{"structure":"irf","gen":`+string(genCfg)+`,"core":`+string(cfg)+`,"genotypes":null}}`,
			nil, eval.Eval.Genotypes)},
	} {
		got, err := EncodeJobRequest(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: frame moved:\n got %q\nwant %q", tc.name, got, tc.want)
		}
		back, err := DecodeJobRequest(tc.want)
		if err != nil {
			t.Fatalf("%s: hand-built frame: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back, tc.req) {
			t.Fatalf("%s: hand-built frame decodes to\n%+v\nwant\n%+v", tc.name, back, tc.req)
		}
	}
}

// A frame's decoder refuses whatever would not re-encode to it, and
// what it refuses costs no more than the bytes it was handed.
func TestDecodeJobRequestRefuses(t *testing.T) {
	campaign, eval := testJobs(t)
	for _, req := range []*JobRequest{campaign, eval} {
		frame, err := EncodeJobRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := DecodeJobRequest(frame); err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("%s round trip = %+v, %v", req.Kind, back, err)
		}
		if _, err := DecodeJobRequest(frame[:len(frame)-1]); err == nil {
			t.Fatalf("%s: truncated frame accepted", req.Kind)
		}
		if _, err := DecodeJobRequest(append(frame, 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", req.Kind)
		}
	}
	for name, head := range map[string]string{
		"spaced":            `{"kind": "eval","eval":{"structure":"irf","gen":{},"core":{},"genotypes":null}}`,
		"program in header": `{"kind":"campaign","inject":{"program":"AA==","target":"irf","type":"transient","n":8,"lo":0,"hi":0,"seed":0,"cfg":{}}}`,
		"not json":          `{"kind":`,
	} {
		if _, err := DecodeJobRequest(pinnedJobFrame(head, nil, nil)); err == nil {
			t.Errorf("%s header accepted", name)
		}
	}
	claim := binary.LittleEndian.AppendUint32([]byte("HXJB\x01\x00\x00\x00"), 200<<20)
	var err error
	if got := binfmttest.AllocatedBy(func() { _, err = DecodeJobRequest(claim) }); got > 1<<16 {
		t.Fatalf("a 200 MB header claim in %d bytes allocated %d", len(claim), got)
	}
	if err == nil || !strings.Contains(err.Error(), "remain") {
		t.Fatalf("a 200 MB header claim: %v", err)
	}
	if _, err := DecodeJobRequest([]byte(`{"kind":"campaign"}`)); err == nil {
		t.Fatal("a JSON body decoded as a frame")
	}
}

// The frame never looks inside its payloads or the configurations, so
// the seeds are small: a few bytes in place of a program, a short
// variant pool. A real program (its data region included) or the whole
// pool would leave the fuzzer minimizing inputs of kilobytes for the
// whole run.
func FuzzDecodeJobRequest(f *testing.F) {
	gs, cfg := testGenotypes(f, 2)
	cfg.Allowed = cfg.Allowed[:3]
	for _, req := range []*JobRequest{
		{Kind: JobCampaign, Inject: &InjectRequest{Program: []byte("HXPG"), Target: "irf", Type: "transient", N: 8, Cfg: uarch.DefaultConfig()}},
		{Kind: JobEval, Eval: &EvalRequest{Structure: "irf", Gen: cfg, Genotypes: EncodeGenotypes(gs)}},
		{Kind: JobCampaign, Inject: &InjectRequest{Program: []byte{0}}},
		{Kind: "bogus"},
	} {
		frame, err := EncodeJobRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte("HXJB"))
	f.Add([]byte(`{"kind":"eval"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req *JobRequest
		var err error
		if got := binfmttest.AllocatedBy(func() { req, err = DecodeJobRequest(data) }); got > 1<<16+32*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		out, err := EncodeJobRequest(req)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("re-encoding (err %v) differs:\n in  %q\n out %q", err, data, out)
		}
	})
}
