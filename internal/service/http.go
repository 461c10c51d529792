package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"bfc/internal/experiments"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
)

// NewHandler wraps a Service in its REST + SSE API:
//
//	GET    /healthz                    liveness probe
//	GET    /metrics                    Prometheus text exposition
//	GET    /api/v1/version             server build information
//	GET    /api/v1/figures             the figures that have jobs, and the scales
//	POST   /api/v1/suites              submit a SuiteSpec; 202 + SuiteStatus
//	GET    /api/v1/suites              list suite statuses
//	GET    /api/v1/suites/{id}         one suite status
//	DELETE /api/v1/suites/{id}         cancel a running suite
//	GET    /api/v1/suites/{id}/results a done suite's artifacts as JSONL, job order
//	GET    /api/v1/suites/{id}/events  Server-Sent-Events progress stream
//	GET    /api/v1/suites/{id}/trace/{job...}  flight-recorder trace of one
//	       executed job of a trace-enabled suite (Chrome trace_event JSON;
//	       ?format=jsonl for the raw event stream)
//	GET    /api/v1/store               the store manifest (completed work)
//	GET    /api/v1/stats               service counters
//
// Every request is counted in the bfcd_http_* metrics and, when the service
// has a logger, logged with a per-request ID.
//
// extras, when given, register additional routes on the same mux before it is
// instrumented — the fleet tier mounts its /api/v1/fleet/* endpoints this way
// so they share request metrics and logging with the core API.
func NewHandler(svc *Service, extras ...func(*http.ServeMux)) http.Handler {
	mux := http.NewServeMux()
	for _, extra := range extras {
		if extra != nil {
			extra(mux)
		}
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", svc.Metrics().Handler())
	mux.HandleFunc("GET /api/v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, telemetry.ReadBuildInfo())
	})
	mux.HandleFunc("GET /api/v1/figures", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, figureIndex())
	})
	mux.HandleFunc("GET /api/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})
	mux.HandleFunc("GET /api/v1/store", func(w http.ResponseWriter, r *http.Request) {
		entries, err := svc.Store().List()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, entries)
	})
	mux.HandleFunc("POST /api/v1/suites", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSuiteSpecBytes))
		if err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, fmt.Errorf("service: reading suite spec: %w", err))
			return
		}
		spec, err := ParseSuiteSpec(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		status, err := svc.Submit(spec)
		switch {
		case err == nil:
		case errors.Is(err, ErrBusy):
			// Saturation is transient by construction (suites drain), so tell
			// well-behaved clients when to come back instead of leaving them
			// to guess; bfcctl's retry loop honors this.
			w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
			httpError(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, ErrStorage):
			httpError(w, http.StatusInternalServerError, err)
			return
		default:
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, status)
	})
	mux.HandleFunc("GET /api/v1/suites", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.ListStatuses())
	})
	mux.HandleFunc("GET /api/v1/suites/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, err := svc.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("DELETE /api/v1/suites/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := svc.Status(id); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		if err := svc.Cancel(id); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		status, _ := svc.Status(id)
		writeJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /api/v1/suites/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		w.Header().Set("Content-Type", "application/jsonl")
		n, err := svc.WriteResults(w, id)
		switch {
		case err == nil:
		case n > 0:
			// Part of the body is out: abort, so the client's read fails
			// rather than ending on a short suite that looks complete.
			svc.log("results aborted", "suite", id, "bytes", n, "error", err.Error())
			panic(http.ErrAbortHandler)
		case errors.Is(err, ErrStorage):
			httpError(w, http.StatusInternalServerError, err)
		default:
			if _, serr := svc.Status(id); serr != nil {
				httpError(w, http.StatusNotFound, serr)
			} else {
				httpError(w, http.StatusConflict, err)
			}
		}
	})
	mux.HandleFunc("GET /api/v1/suites/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(svc, w, r)
	})
	// Job names contain slashes ("test/scheme=BFC"), hence the {job...} tail.
	mux.HandleFunc("GET /api/v1/suites/{id}/trace/{job...}", func(w http.ResponseWriter, r *http.Request) {
		events, cfg, err := svc.Trace(r.PathValue("id"), r.PathValue("job"))
		switch {
		case err == nil:
		case errors.Is(err, ErrTracePending):
			httpError(w, http.StatusConflict, err)
			return
		default:
			httpError(w, http.StatusNotFound, err)
			return
		}
		if r.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/jsonl")
			w.WriteHeader(http.StatusOK)
			telemetry.WriteJSONL(w, events)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		telemetry.WriteChromeTrace(w, cfg, events)
	})
	return instrument(svc, mux)
}

// statusRecorder captures the response code for metrics and logging. It must
// forward Flush: serveEvents type-asserts http.Flusher to stream SSE.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// nextRequestID numbers requests across all handlers of the process, so log
// lines from concurrent requests can be correlated.
var nextRequestID atomic.Uint64

// instrument wraps the API mux with request counting, latency observation and
// (when the service has a logger) structured request logging.
func instrument(svc *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		id := nextRequestID.Add(1)
		next.ServeHTTP(sr, r)
		if sr.code == 0 {
			sr.code = http.StatusOK
		}
		elapsed := time.Since(start)
		svc.metrics.httpRequests.With(strconv.Itoa(sr.code)).Inc()
		svc.metrics.httpLatency.Observe(elapsed.Seconds())
		if svc.cfg.Logger != nil {
			svc.cfg.Logger.Info("http request",
				"req", id,
				"method", r.Method,
				"path", r.URL.Path,
				"code", sr.code,
				"remote", r.RemoteAddr,
				"elapsed", elapsed.Round(time.Microsecond).String(),
			)
		}
	})
}

// serveEvents streams suite progress as Server-Sent Events: one "message"
// event per completed job and a final "end" event, then closes. Subscribing
// to an already-finished suite yields the end event immediately.
func serveEvents(svc *Service, w http.ResponseWriter, r *http.Request) {
	status, ch, cancel, err := svc.Subscribe(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("service: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Opening snapshot, so late subscribers know where the suite stands.
	writeSSE(w, Event{
		Type: "status", Suite: status.ID, Done: status.Done, Total: status.Total,
		State: status.State, Error: status.Error,
	})
	flusher.Flush()
	if ch == nil { // already terminal
		final, _ := svc.Status(status.ID)
		writeSSE(w, Event{
			Type: "end", Suite: final.ID, Done: final.Done, Total: final.Total,
			State: final.State, Error: final.Error,
		})
		flusher.Flush()
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				// Channel closed: the suite is terminal. Emit a final end
				// event from the snapshot in case the subscriber missed it.
				final, err := svc.Status(status.ID)
				if err == nil {
					writeSSE(w, Event{
						Type: "end", Suite: final.ID, Done: final.Done, Total: final.Total,
						State: final.State, Error: final.Error,
					})
					flusher.Flush()
				}
				return
			}
			writeSSE(w, ev)
			flusher.Flush()
		}
	}
}

func writeSSE(w io.Writer, ev Event) {
	blob, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "data: %s\n\n", blob)
}

// FigureIndex is the GET /api/v1/figures document.
type FigureIndex struct {
	// Figures lists the figure-table entries that have jobs to run.
	Figures []FigureInfo `json:"figures"`
	// Scales lists the accepted scale names.
	Scales []string `json:"scales"`
	// Schemes lists the scheme labels accepted in SuiteSpec.Schemes.
	Schemes []string `json:"schemes"`
}

// FigureInfo describes one figure-table entry.
type FigureInfo struct {
	Key               string `json:"key"`
	Desc              string `json:"desc"`
	SchemesSelectable bool   `json:"schemes_selectable"`
}

func figureIndex() FigureIndex {
	idx := FigureIndex{Scales: []string{"tiny", "reduced", "full"}}
	for _, f := range experiments.Figures() {
		if f.Jobs == nil {
			continue // static data: nothing to run or serve
		}
		idx.Figures = append(idx.Figures, FigureInfo{
			Key: f.Key, Desc: f.Desc, SchemesSelectable: f.SchemesSelectable,
		})
	}
	var labels []string
	for _, s := range append(sim.AllSchemes(), sim.SchemeBFCStatic) {
		labels = append(labels, s.String())
	}
	sort.Strings(labels)
	idx.Schemes = labels
	return idx
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
