package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bfc/internal/telemetry"
	"bfc/internal/telemetry/execstats"
)

// Progress describes one completed (or skipped) job for progress reporting.
type Progress struct {
	// Done counts finished jobs so far; Total is the suite size.
	Done, Total int
	// Job is the finished job's name.
	Job string
	// Cached is true when the job was skipped because its artifact already
	// existed (resume).
	Cached bool
	// Elapsed is the wall time of the job's Execute (zero for cached jobs):
	// Origin.Elapsed, taken by the pool. It is reported but never persisted,
	// keeping artifacts byte-stable.
	Elapsed time.Duration
}

// Runner executes a list of jobs on a bounded Pool.
type Runner struct {
	// Parallel bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Parallel int
	// Store, when non-nil, persists every completed job.
	Store *Store
	// Resume, with a Store, skips jobs whose artifact already exists and
	// returns the stored record instead of re-executing.
	Resume bool
	// Progress, when non-nil, is invoked (serialized) after each job.
	Progress func(Progress)

	// Exec aggregates, after Run returns, the execution profiles of the jobs
	// this runner actually simulated. Zero-valued when every record came from
	// the store, which keeps no profile.
	Exec execstats.Summary
}

// Run executes the jobs and returns their records in job order (independent
// of worker count and completion order, so downstream row assembly is
// deterministic). With Resume, stored artifacts are taken first, one lookup
// per job hash; the rest run on a pool of Parallel workers. The first failure
// aborts dispatch of not-yet-started jobs and is returned after in-flight
// jobs finish — their records are still stored and reported.
func (r *Runner) Run(jobs []Job) ([]*Record, error) {
	r.Exec = execstats.Summary{}
	hashes, err := ValidateSuite(jobs)
	if err != nil {
		return nil, err
	}
	var (
		mu      sync.Mutex
		done    int
		records = make([]*Record, len(jobs))
		pending []int
	)
	report := func(i int, rec *Record, origin Origin) {
		records[i] = rec
		done++
		if r.Progress != nil {
			r.Progress(Progress{
				Done: done, Total: len(jobs),
				Job: jobs[i].Name, Cached: origin.Cached, Elapsed: origin.Elapsed,
			})
		}
	}
	for i := range jobs {
		if r.Resume && r.Store != nil {
			rec, ok, err := r.Store.Get(hashes[i])
			if err != nil {
				return nil, err
			}
			if ok {
				report(i, rec, Origin{Cached: true})
				continue
			}
		}
		pending = append(pending, i)
	}

	workers := r.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := NewPool(workers, new(telemetry.Gauge), new(telemetry.Gauge))
	err = pool.Dispatch(context.TODO(), jobs, pending, func(i int, rec *Record, origin Origin) error {
		if r.Store != nil {
			if err := r.Store.Put(rec); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		r.Exec.Add(rec.Result.Exec)
		report(i, rec, origin)
		return nil
	})
	pool.Wait()
	if err != nil {
		return nil, err
	}
	return records, nil
}

// ValidateSuite checks specs and rejects duplicate job names and duplicate
// content hashes. Duplicate hashes would make two jobs silently share one
// artifact; duplicate names are rejected separately because the simulation
// seed derives from the name alone — two jobs with the same name but
// different Meta have distinct hashes yet would silently share RNG state.
// It returns each job's content hash, in job order, so a caller need not
// take them again.
func ValidateSuite(jobs []Job) ([]string, error) {
	hashes := make([]string, len(jobs))
	seenHash := make(map[string]string, len(jobs))
	seenName := make(map[string]bool, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if seenName[j.Name] {
			return nil, fmt.Errorf("harness: duplicate job name %q (job names key the derived simulation seed)", j.Name)
		}
		seenName[j.Name] = true
		// Hash() truncates sha256 to 64 bits, so two differently-named jobs
		// can (however improbably) collide in the artifact key space; the
		// name check above does not subsume this one.
		h := j.Hash()
		if prev, dup := seenHash[h]; dup {
			return nil, fmt.Errorf("harness: jobs %q and %q have the same content hash %s", prev, j.Name, h)
		}
		seenHash[h] = j.Name
		hashes[i] = h
	}
	return hashes, nil
}
