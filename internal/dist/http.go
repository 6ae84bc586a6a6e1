package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The HTTP plumbing of every fleet endpoint, said once: pool → worker
// pushes, worker → coordinator lease/complete and client → coordinator
// job calls all go through Post/PostJSON/GetJSON, and every /v1/* POST
// handler of both daemons reads its body through ReadBody under one size
// limit. Every reply is JSON, and so is every request body but one: POST
// /v1/jobs takes an HXJB job frame (JobContentType), so a submitted
// program travels as its raw HXPG bytes.

// MaxBodyBytes bounds every request and response body. Programs are at
// most a few MB (the HXPG decoder itself enforces per-field bounds);
// genotype batches of a full population stay well under this.
const MaxBodyBytes = 256 << 20

// NormalizeURL turns a user-supplied daemon address into a base URL: a
// bare "host:port" gets the scheme prefixed and trailing slashes go.
// Blank input stays blank.
func NormalizeURL(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return strings.TrimRight(s, "/")
}

// PostJSON sends reqBody as JSON to url and decodes the JSON reply into
// respBody. Any transport error or non-200 status (its body quoted) is
// an error.
func PostJSON(ctx context.Context, hc *http.Client, url string, reqBody, respBody any) error {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("marshal request: %w", err)
	}
	return Post(ctx, hc, url, "application/json", payload, respBody)
}

// Post sends body, of media type contentType, to url and decodes the
// JSON reply into respBody, as PostJSON does.
func Post(ctx context.Context, hc *http.Client, url, contentType string, body []byte, respBody any) error {
	return doJSON(ctx, hc, http.MethodPost, url, contentType, bytes.NewReader(body), respBody)
}

// GetJSON fetches url and decodes the JSON reply into respBody; a nil
// respBody only checks the status (liveness probes).
func GetJSON(ctx context.Context, hc *http.Client, url string, respBody any) error {
	return doJSON(ctx, hc, http.MethodGet, url, "", nil, respBody)
}

func doJSON(ctx context.Context, hc *http.Client, method, url, contentType string, body io.Reader, respBody any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
	}
	if respBody == nil {
		_, err = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return err
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxBodyBytes)).Decode(respBody); err != nil {
		return fmt.Errorf("%s: parse response: %w", url, err)
	}
	return nil
}

// ReadBody reads a POST body of at most MaxBodyBytes; a false return
// means the error response (405, 413 or 400) is already written.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return nil, false
	}
	if r.ContentLength > MaxBodyBytes { // a declared oversize is refused unread
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	// The declared length sizes the buffer, up to 1 MiB so that a false
	// claim costs little: io.ReadAll would grow it from 512 bytes,
	// copying as it goes.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), 1<<20)+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "read body: "+err.Error(), status)
		return nil, false
	}
	return buf.Bytes(), true
}

// ReadJSON decodes a POST body read by ReadBody into v; a false return
// means the error response (405, 413 or 400) is already written.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := ReadBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "parse request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// WriteJSON writes v as the 200 JSON reply.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
