package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"bfc/internal/harness"
)

// ErrJobFailed marks a batch whose jobs failed deterministically on the
// worker (a simulation error, not a transport one). Retrying on another
// machine would reproduce the same failure — both sides derive everything
// from the job spec — so the coordinator treats it as terminal for the suite
// instead of burning retry attempts.
var ErrJobFailed = errors.New("fleet: job failed on worker")

// ErrDrift marks a worker that rejected a batch because its recompilation of
// the suite did not produce the requested job hashes: the worker runs a
// different code version. The coordinator stops scattering to it.
var ErrDrift = errors.New("fleet: worker version drift")

// Client speaks the fleet API to one peer daemon.
type Client struct {
	base string
	http *http.Client
}

// NewClient makes a client for the peer's base URL ("http://host:port"). The
// zero timeout applies per request as the client's overall limit; individual
// calls can tighten it further with a context deadline.
func NewClient(base string, timeout time.Duration) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: timeout},
	}
}

// do sends one JSON request and decodes the 200 response into out (when
// non-nil). HTTP 422 maps to ErrJobFailed and 409 to ErrDrift; other non-200
// statuses become plain (retryable) errors carrying the body's error text.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fleet: encoding %s request: %w", path, err)
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("fleet: building %s request: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := readErrorBody(resp.Body)
		switch resp.StatusCode {
		case http.StatusUnprocessableEntity:
			return fmt.Errorf("%w: %s", ErrJobFailed, msg)
		case http.StatusConflict:
			return fmt.Errorf("%w: %s", ErrDrift, msg)
		}
		return fmt.Errorf("fleet: %s %s: %s (%s)", method, path, resp.Status, msg)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxFleetBodyBytes<<4)).Decode(out); err != nil {
		return fmt.Errorf("fleet: decoding %s response: %w", path, err)
	}
	return nil
}

// readErrorBody extracts the {"error": ...} text of an error response,
// falling back to the raw body.
func readErrorBody(r io.Reader) string {
	blob, _ := io.ReadAll(io.LimitReader(r, 4096))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(blob, &doc) == nil && doc.Error != "" {
		return doc.Error
	}
	return strings.TrimSpace(string(blob))
}

// Ping probes the peer's fleet status endpoint — the heartbeat primitive.
func (c *Client) Ping(ctx context.Context) (*Status, error) {
	st := &Status{}
	if err := c.do(ctx, http.MethodGet, pathStatus, nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Register announces selfURL to a coordinator.
func (c *Client) Register(ctx context.Context, selfURL string) error {
	return c.do(ctx, http.MethodPost, pathRegister, RegisterRequest{URL: selfURL}, nil)
}

// Have asks which of the hashes the peer's store already holds.
func (c *Client) Have(ctx context.Context, hashes []string) ([]string, error) {
	resp := &HaveResponse{}
	if err := c.do(ctx, http.MethodPost, pathHave, HaveRequest{Hashes: hashes}, resp); err != nil {
		return nil, err
	}
	return resp.Have, nil
}

// Record fetches one stored record by job content hash.
func (c *Client) Record(ctx context.Context, hash string) (*harness.Record, error) {
	rec := &harness.Record{}
	if err := c.do(ctx, http.MethodGet, pathRecord+url.PathEscape(hash), nil, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// Execute runs a batch on the peer.
func (c *Client) Execute(ctx context.Context, req *ExecuteRequest) (*ExecuteResponse, error) {
	resp := &ExecuteResponse{}
	if err := c.do(ctx, http.MethodPost, pathExecute, req, resp); err != nil {
		return nil, err
	}
	if len(resp.Records) != len(req.Hashes) {
		return nil, fmt.Errorf("fleet: batch %s: got %d records for %d jobs",
			req.Batch, len(resp.Records), len(req.Hashes))
	}
	return resp, nil
}

// Manifest fetches the peer's fleet-wide manifest.
func (c *Client) Manifest(ctx context.Context) ([]harness.ManifestEntry, error) {
	var entries []harness.ManifestEntry
	if err := c.do(ctx, http.MethodGet, pathManifest, nil, &entries); err != nil {
		return nil, err
	}
	return entries, nil
}
