package dist

import (
	"bytes"
	"encoding/json"
	"fmt"

	"harpocrates/internal/binfmt"
)

// JobContentType is the media type of a POST /v1/jobs body: one HXJB
// job frame. The endpoint answers any other content type 415.
const JobContentType = "application/x-harpocrates-job"

// The HXJB job frame is a JobRequest in bytes: the body of POST
// /v1/jobs, and the tail of the coordinator's WAL submit record. Its
// byte payloads travel raw instead of base64 inside JSON:
//
//	u32 magic "HXJB", u32 version 1
//	u32 n, n bytes   header: the request as json.Marshal writes it, with
//	                 every byte payload left out (inject.program absent,
//	                 eval.genotypes null)
//	u32 n, n bytes   inject.program (HXPG), present iff the header has inject
//	u32 k, k × (u32 n, n bytes)
//	                 eval.genotypes (HXGT), present iff the header has eval
//
// Every length is bounded by MaxBodyBytes under binfmt's Len rule. A
// decoder refuses a header json.Marshal would not write (whitespace,
// key order, a payload inside it), so a decoded frame re-encodes to
// exactly its bytes: the coordinator stores the body it was sent.
const (
	jobMagic   = 0x424a5848 // "HXJB" little-endian
	jobVersion = 1
)

// EncodeJobRequest frames r (see JobContentType).
func EncodeJobRequest(r *JobRequest) ([]byte, error) {
	size := 1024
	if r.Inject != nil {
		size += len(r.Inject.Program)
	}
	if r.Eval != nil {
		for _, g := range r.Eval.Genotypes {
			size += 4 + len(g)
		}
	}
	c := binfmt.NewEncoder(make([]byte, 0, size))
	r.codec(c)
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("dist: encode job: %w", err)
	}
	return c.Encoded(), nil
}

// DecodeJobRequest parses one whole HXJB frame. It checks the format
// only; Validate checks the request.
func DecodeJobRequest(data []byte) (*JobRequest, error) {
	r := &JobRequest{}
	c := binfmt.NewDecoder(data)
	r.codec(c)
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("dist: decode job: %w", err)
	}
	return r, nil
}

// codec is the frame's one walker, both directions.
func (r *JobRequest) codec(c *binfmt.Codec) {
	c.Header(jobMagic, jobVersion)
	var head []byte
	if !c.Decoding() {
		var err error
		if head, err = json.Marshal(r.header()); err != nil {
			c.Fail("dist: job header: %v", err)
		}
	}
	c.Bytes(&head, MaxBodyBytes)
	if c.Decoding() && c.Err() == nil {
		if err := json.Unmarshal(head, r); err != nil {
			c.Fail("dist: job header: %v", err)
			return
		}
		if canon, err := json.Marshal(r.header()); err != nil || !bytes.Equal(canon, head) {
			c.Fail("dist: job header is not as json.Marshal writes it")
			return
		}
	}
	if r.Inject != nil {
		c.Bytes(&r.Inject.Program, MaxBodyBytes)
	}
	if r.Eval != nil {
		binfmt.Slice(c, &r.Eval.Genotypes, 4, MaxBodyBytes/4, func(g *[]byte) { c.Bytes(g, MaxBodyBytes) })
	}
}

// header is r without its byte payloads: the frame's JSON part.
func (r *JobRequest) header() *JobRequest {
	h := *r
	if r.Inject != nil {
		in := *r.Inject
		in.Program = nil
		h.Inject = &in
	}
	if r.Eval != nil {
		ev := *r.Eval
		ev.Genotypes = nil
		h.Eval = &ev
	}
	return &h
}
