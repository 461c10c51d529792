package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bfc/internal/packet"
	"bfc/internal/service"
)

// The faults the transport injects, beside delivering a request untouched.
const (
	faultNone         = iota
	faultRequestLost  // the peer never sees the request
	faultResponseLost // the peer does the work; its answer never arrives
	faultUnavailable  // a 503 in the peer's name
	faultTruncated    // the answer arrives cut in half
	faultDuplicated   // the peer sees the request twice; the second answer is delivered
	numFaults
)

var faultNames = [numFaults]string{"clean", "request-lost", "response-lost", "503", "truncated", "duplicated"}

// faultTransport is a seeded fault-injecting http.RoundTripper: request n of
// a run meets the fault that element n of seed's splitmix64 stream selects —
// half the draws select one, each kind equally often — so a seed names a
// fault schedule the way a batch ID names a Backoff schedule.
type faultTransport struct {
	seed uint64
	next http.RoundTripper
	n    atomic.Uint64
	hits [numFaults]atomic.Uint64
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	x := packet.Mix64(f.seed + f.n.Add(1)*packet.Gamma)
	kind := faultNone
	if x%2 == 0 {
		kind = 1 + int((x>>32)%(numFaults-1))
	}
	f.hits[kind].Add(1)
	switch kind {
	case faultRequestLost, faultUnavailable:
		if req.Body != nil {
			req.Body.Close()
		}
		if kind == faultRequestLost {
			return nil, errors.New("fault: request lost")
		}
		return &http.Response{
			Status: "503 Service Unavailable", StatusCode: http.StatusServiceUnavailable,
			Header:  http.Header{},
			Body:    io.NopCloser(strings.NewReader(`{"error":"fault: injected 503"}`)),
			Request: req,
		}, nil
	case faultDuplicated:
		first := req.Clone(req.Context())
		if req.GetBody != nil {
			first.Body, _ = req.GetBody()
		}
		if resp, err := f.next.RoundTrip(first); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	resp, err := f.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch kind {
	case faultResponseLost:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errors.New("fault: response lost")
	case faultTruncated:
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
		resp.ContentLength = int64(len(body) / 2)
	}
	return resp, nil
}

// TestFleetSurvivesTransportFaults is the fence around the coordinator↔worker
// delivery path: whatever a seed's schedule does to the requests — probes,
// record fetches and batches alike — the suite ends done, every job is
// accounted for exactly once, and the records are byte-identical to a serial
// run. A worker that fails three requests in a row is marked dead and stays so
// (no heartbeat runs here), so schedules also end in re-scatter and in local
// fallback.
func TestFleetSurvivesTransportFaults(t *testing.T) {
	want := marshal(t, directRun(t))
	var total [numFaults]uint64
	for seed := uint64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, _, srvA := newWorker(t)
			_, _, srvB := newWorker(t)
			svc, coord := newFleetService(t, []string{srvA.URL, srvB.URL}, func(cfg *Config) {
				// The transport is swapped in below, after the heartbeat loop
				// started; keep that loop from ever reading the field.
				cfg.HeartbeatInterval = time.Hour
			})
			ft := &faultTransport{seed: seed, next: http.DefaultTransport}
			for _, w := range coord.snapshot() {
				w.client.http.Transport = ft
			}

			status, err := svc.Submit(tinySpec())
			if err != nil {
				t.Fatal(err)
			}
			done := waitState(t, svc, status.ID)
			var line []string
			for kind := range ft.hits {
				total[kind] += ft.hits[kind].Load()
				line = append(line, fmt.Sprintf("%s=%d", faultNames[kind], ft.hits[kind].Load()))
			}
			st := coord.Status()
			t.Logf("%d requests: %s; retried=%d local=%d remote=%d deduped=%d", ft.n.Load(),
				strings.Join(line, " "), st.BatchesRetried, st.BatchesLocal, st.JobsRemote, st.JobsDeduped)
			if done.State != service.StateDone || done.Executed+done.Cached != done.Total {
				t.Fatalf("suite ended %+v", done)
			}
			recs, err := readResults(svc, status.ID)
			if err != nil {
				t.Fatal(err)
			}
			if marshal(t, recs) != want {
				t.Fatal("records differ from a direct serial harness run")
			}
		})
	}
	// A schedule that injects nothing proves nothing.
	for kind := faultRequestLost; kind < numFaults; kind++ {
		if total[kind] == 0 {
			t.Errorf("no request met fault %q across the seed set", faultNames[kind])
		}
	}
}
