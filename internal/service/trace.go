package service

import (
	"errors"
	"fmt"

	"bfc/internal/packet"
	"bfc/internal/telemetry"
)

// Trace-fetch failure classes, so the HTTP layer can pick status codes.
var (
	// ErrNotTraced marks suites submitted without trace, and cache-satisfied
	// jobs (which never executed, so nothing was recorded).
	ErrNotTraced = errors.New("service: no trace recorded")
	// ErrTracePending marks jobs that have not finished executing yet.
	ErrTracePending = errors.New("service: job still executing")
)

// Trace returns the flight-recorder events of one executed job of a
// Trace-enabled suite, with a TraceConfig resolving the job's node names (it
// rebuilds the job's topology, which is cheap next to a simulation run).
func (s *Service) Trace(id, jobName string) ([]telemetry.Event, telemetry.TraceConfig, error) {
	st, err := s.lookup(id)
	if err != nil {
		return nil, telemetry.TraceConfig{}, err
	}
	if st.traces == nil {
		return nil, telemetry.TraceConfig{}, fmt.Errorf("%w: suite %s was not submitted with \"trace\": true", ErrNotTraced, id)
	}
	idx := -1
	for i := range st.jobs {
		if st.jobs[i].Name == jobName {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, telemetry.TraceConfig{}, fmt.Errorf("service: suite %s has no job %q", id, jobName)
	}
	ring, ok := st.traces[idx]
	if !ok {
		return nil, telemetry.TraceConfig{}, fmt.Errorf("%w: job %q was served from the result cache and never executed", ErrNotTraced, jobName)
	}
	st.mu.Lock()
	finished := st.finished[idx]
	st.mu.Unlock()
	if !finished {
		return nil, telemetry.TraceConfig{}, fmt.Errorf("%w: job %q", ErrTracePending, jobName)
	}
	topo := st.jobs[idx].Topology()
	cfg := telemetry.TraceConfig{
		RunName:  id + "/" + jobName,
		NodeName: func(n packet.NodeID) string { return topo.Node(n).Name },
	}
	return ring.Events(), cfg, nil
}
