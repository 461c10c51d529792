package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

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
	// Elapsed is the wall-clock execution time (zero for cached jobs). It is
	// reported but never persisted, keeping artifacts byte-stable.
	Elapsed time.Duration
	// Exec is the job's wall-clock execution profile when the run enabled
	// Options.ExecStats (nil for cached jobs and disabled runs). Like
	// Elapsed, it is reported but never persisted.
	Exec *execstats.RunStats
}

// Runner executes a list of jobs over a bounded worker pool.
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

	// Executed and Skipped count, after Run returns, the jobs that were
	// actually simulated vs satisfied from the store.
	Executed, Skipped int

	// Exec aggregates, after Run returns, the execution profiles of the jobs
	// this runner actually simulated with Options.ExecStats on. Zero-valued
	// when no executed job carried a profile.
	Exec execstats.Summary
}

// Run executes the jobs and returns their records in job order (independent
// of worker count and completion order, so downstream row assembly is
// deterministic). The first failure aborts dispatch of not-yet-started jobs
// and is returned after in-flight jobs finish.
func (r *Runner) Run(jobs []Job) ([]*Record, error) {
	r.Executed, r.Skipped = 0, 0
	r.Exec = execstats.Summary{}
	if err := ValidateSuite(jobs); err != nil {
		return nil, err
	}
	workers := r.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return nil, nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		done     int
		next     int
		records  = make([]*Record, len(jobs))
		wg       sync.WaitGroup
	)

	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= len(jobs) {
			return -1
		}
		i := next
		next++
		return i
	}
	finish := func(i int, rec *Record, elapsed time.Duration, wasCached bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		records[i] = rec
		var exec *execstats.RunStats
		if !wasCached && rec.Result != nil {
			exec = rec.Result.Exec
		}
		r.Exec.Add(exec)
		if wasCached {
			r.Skipped++
		} else {
			r.Executed++
		}
		done++
		if r.Progress != nil {
			r.Progress(Progress{
				Done: done, Total: len(jobs),
				Job: jobs[i].Name, Cached: wasCached, Elapsed: elapsed, Exec: exec,
			})
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				rec, elapsed, wasCached, err := r.runOne(&jobs[i])
				finish(i, rec, elapsed, wasCached, err)
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	return records, nil
}

// runOne satisfies a single job from its stored artifact (resume) or by
// executing it. Artifacts are looked up per job hash, so resuming a small
// figure against a large store never reads unrelated records.
func (r *Runner) runOne(j *Job) (rec *Record, elapsed time.Duration, wasCached bool, err error) {
	hash := j.Hash()
	if r.Resume && r.Store != nil {
		c, ok, err := r.Store.Get(hash)
		if err != nil {
			return nil, 0, false, err
		}
		if ok {
			return c, 0, true, nil
		}
	}
	start := time.Now()
	rec, err = j.Execute()
	if err != nil {
		return nil, 0, false, err
	}
	elapsed = time.Since(start)
	if r.Store != nil {
		if err := r.Store.Put(rec); err != nil {
			return nil, 0, false, err
		}
	}
	return rec, elapsed, false, nil
}

// ValidateSuite checks specs and rejects duplicate job names and duplicate
// content hashes. Duplicate hashes would make two jobs silently share one
// artifact; duplicate names are rejected separately because the simulation
// seed derives from the name alone — two jobs with the same name but
// different Meta have distinct hashes yet would silently share RNG state.
func ValidateSuite(jobs []Job) error {
	seenHash := make(map[string]string, len(jobs))
	seenName := make(map[string]bool, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if err := j.Validate(); err != nil {
			return err
		}
		if seenName[j.Name] {
			return fmt.Errorf("harness: duplicate job name %q (job names key the derived simulation seed)", j.Name)
		}
		seenName[j.Name] = true
		// Hash() truncates sha256 to 64 bits, so two differently-named jobs
		// can (however improbably) collide in the artifact key space; the
		// name check above does not subsume this one.
		h := j.Hash()
		if prev, dup := seenHash[h]; dup {
			return fmt.Errorf("harness: jobs %q and %q have the same content hash %s", prev, j.Name, h)
		}
		seenHash[h] = j.Name
	}
	return nil
}

// MustRun executes the jobs on a default parallel runner (all cores, no
// persistence) and panics on failure: the one-liner tests and benchmarks put
// between a figure's Jobs and its FromRecords.
func MustRun(jobs []Job) []*Record {
	recs, err := (&Runner{}).Run(jobs)
	if err != nil {
		panic(err)
	}
	return recs
}
