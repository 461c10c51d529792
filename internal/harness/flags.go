package harness

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/telemetry/execstats"
)

// RunFlags are the flags that say how declared jobs are executed and
// observed: pool size, engine shards, execution profile, flight-recorder
// export, pprof profiles and logging. None of them enters a job's hash or its
// result. RegisterRunFlags is their only declaration; cmd/bfcsim registers
// it and hands its compiled jobs to Run.
type RunFlags struct {
	Parallel   int
	Shards     int
	ExecStats  bool
	TraceDir   string
	CPUProfile string
	MemProfile string
	Log        *telemetry.LogOptions
}

// RegisterRunFlags declares the run flags on fs.
func RegisterRunFlags(fs *flag.FlagSet) *RunFlags {
	f := &RunFlags{Log: telemetry.RegisterLogFlags(fs)}
	fs.IntVar(&f.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker pool size (jobs run side by side)")
	fs.IntVar(&f.Shards, "shards", 0, "shards per run for the conservative-PDES engine (0/1 = serial, >=2 = explicit, -1 = auto: min(hosts, GOMAXPROCS)); results are byte-identical across shard counts")
	fs.BoolVar(&f.ExecStats, "exec-stats", false, "print each simulated run's execution profile on stderr (per-shard events, heap-hw = most event-queue records pending at once, barrier wait, window utilization, boundary traffic, the books the run checked); observational, digests are unchanged")
	fs.StringVar(&f.TraceDir, "trace-dir", "", "directory for per-scheme exports of runs that record: <scheme>.trace.json (sim-time Chrome/Perfetto trace), <scheme>.events.jsonl and <scheme>.exec.json (wall-clock trace of the execution machinery)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole command to this file; read with go tool pprof")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile taken after the last run to this file; pprof -sample_index=alloc_space shows what the runs allocated")
	return f
}

// Start applies the process-wide flags after parsing: it installs the logger
// (writing to stderr) as the slog default and begins the profiles. The
// returned stop ends and flushes them; call it once on every path out, a
// failed Run included — that run's profile is the one most wanted.
func (f *RunFlags) Start(stderr io.Writer) (stop func() error, err error) {
	logger, err := telemetry.NewLogger(stderr, f.Log)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(logger)
	return telemetry.StartProfiles(f.CPUProfile, f.MemProfile)
}

// Run executes the jobs on r with the flags applied and returns their records
// in job order. Every flag lands as one mutator appended to each job — after
// the job's own, so it has the final say, and outside Name and Meta, so hashes
// and results do not move. ringCap > 0 says the jobs are one per-scheme grid
// worth exporting: with -trace-dir each records into a ring of that capacity
// and its files are written as the flag's help describes ('+' in a scheme
// name written as '_'). Execution profiles and export notes go to stderr.
func (f *RunFlags) Run(r *Runner, jobs []Job, ringCap int, stderr io.Writer) ([]*Record, error) {
	var rings []*telemetry.Ring
	if f.TraceDir != "" && ringCap > 0 {
		rings = AttachRings(jobs, ringCap)
	}
	for i := range jobs {
		jobs[i].Options = append(jobs[i].Options, func(o *sim.Options) { o.Shards = f.Shards })
	}
	r.Parallel = f.Parallel
	recs, err := r.Run(jobs)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if ex := rec.Result.Exec; f.ExecStats && ex != nil {
			printExec(stderr, rec.Name, ex)
		}
	}
	if sum := r.Exec; f.ExecStats && sum.Runs > 1 {
		fmt.Fprintf(stderr, "# exec: runs=%d sharded=%d events=%d windows=%d barriers=%d utilization=%.1f%% (worst %.1f%%) busy=%v barrier-wait=%v\n",
			sum.Runs, sum.ShardedRuns, sum.Events, sum.Windows, sum.Barriers,
			100*sum.Utilization(), 100*sum.UtilizationMin,
			time.Duration(sum.BusyNS).Round(time.Microsecond),
			time.Duration(sum.BarrierWaitNS).Round(time.Microsecond))
	}
	if rings != nil {
		if err := f.export(jobs, recs, rings, stderr); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// printExec writes one run's execution profile. The header's events= is the
// run's event count (Result.Events, the same at every shard count); a shard
// line's events= counts what that shard's scheduler fired, leaving out the
// ticks and scenario events the coordinator applies, which the header's
// coord= counts, so the shard lines' events= and coord= add up to events=.
// heap-hw is the most index records ever pending at once across the event
// queue's three tiers — what a single heap's depth would be, and the same
// number. pool= is the packets the
// shard's pool carved / reused, free= those in its free-list at the end.
// filters= (carved/free/installed/in flight), queued= (packets/bytes),
// entries=, paused=, peak= and flows= (started/completed) are the shard's
// part of the books the run checked before it returned (sim's books).
func printExec(w io.Writer, job string, ex *execstats.RunStats) {
	fmt.Fprintf(w, "# %s exec: shards=%d events=%d coord=%d windows=%d barriers=%d utilization=%.1f%% busy=%v barrier-wait=%v\n",
		job, len(ex.Shards), ex.TotalEvents, ex.CoordEvents, ex.Windows, ex.Barriers, 100*ex.Utilization(),
		time.Duration(ex.BusyNS()).Round(time.Microsecond),
		time.Duration(ex.BarrierWaitNS()).Round(time.Microsecond))
	for i := range ex.Shards {
		ss := &ex.Shards[i]
		fmt.Fprintf(w, "#   shard %d: events=%d heap-hw=%d pool=%d/%d free=%d filters=%d/%d/%d/%d queued=%d/%dB entries=%d paused=%d peak=%dB flows=%d/%d util=%.1f%% boundary: pushes=%d max-drain=%d\n",
			ss.Shard, ss.Events, ss.HeapHighWater, ss.PoolAllocated, ss.PoolRecycled, ss.PoolFree,
			ss.FiltersCarved, ss.FiltersFree, ss.FiltersHeld, ss.FiltersInFlight,
			ss.QueuedPackets, ss.QueuedBytes, ss.FlowEntries, ss.PausedVFIDs, ss.BufferPeak,
			ss.FlowsStarted, ss.FlowsCompleted,
			100*ss.Utilization(), ss.Boundary.Pushes, ss.Boundary.MaxDrain)
	}
}

// AttachRings appends to every job a mutator that records the run into a
// flight-recorder ring the caller holds, and returns the rings in job order.
// Recording is observational: the mutator leaves the job's content hash and
// its result unchanged. The rings are only read after the run, so the worker
// count cannot influence what a trace contains.
func AttachRings(jobs []Job, capacity int) []*telemetry.Ring {
	rings := make([]*telemetry.Ring, len(jobs))
	for i := range jobs {
		ring := telemetry.NewRing(capacity)
		rings[i] = ring
		jobs[i].Options = append(jobs[i].Options, func(o *sim.Options) { o.Recorder = ring })
	}
	return rings
}

// export writes the per-scheme files of one recorded grid under -trace-dir. A
// job whose record came from a store was not simulated: its ring is empty, it
// has no profile, and it is skipped with a note.
func (f *RunFlags) export(jobs []Job, recs []*Record, rings []*telemetry.Ring, stderr io.Writer) error {
	if err := os.MkdirAll(f.TraceDir, 0o755); err != nil {
		return err
	}
	for i, ring := range rings {
		if ring.Seen() == 0 {
			fmt.Fprintf(stderr, "# %s: not re-simulated, no trace\n", jobs[i].Name)
			continue
		}
		topo := jobs[i].Topology()
		cfg := telemetry.TraceConfig{
			RunName:  jobs[i].Name,
			NodeName: func(n packet.NodeID) string { return topo.Node(n).Name },
		}
		events := ring.Events()
		base := filepath.Join(f.TraceDir, strings.ReplaceAll(recs[i].Scheme, "+", "_"))
		err := writeFile(base+".trace.json", func(w io.Writer) error { return telemetry.WriteChromeTrace(w, cfg, events) })
		if err == nil {
			err = writeFile(base+".events.jsonl", func(w io.Writer) error { return telemetry.WriteJSONL(w, events) })
		}
		if ex := recs[i].Result.Exec; err == nil && ex != nil {
			err = writeFile(base+".exec.json", func(w io.Writer) error { return execstats.WriteChromeTrace(w, jobs[i].Name, ex) })
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "# %s: wrote %s.trace.json (load at https://ui.perfetto.dev): %d events (%d seen, %d overwritten)\n",
			jobs[i].Name, base, len(events), ring.Seen(), ring.Overwritten())
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
