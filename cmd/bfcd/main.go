// Command bfcd is the simulation-as-a-service daemon: it serves the
// internal/service HTTP API (suite submission, progress streams, results) in
// front of a content-addressed result store, so repeated submissions of
// already-computed grids are served from the store without re-simulating: a
// submission checks the stored artifacts' bytes, a fetch streams them out.
//
//	bfcd -addr 127.0.0.1:8377 -store results/
//
// The store directory is the same artifact layout bfcsim -out
// writes: pointing bfcd at an existing results directory serves those records
// from cache, and artifacts bfcd computes can later be consumed by
// bfcsim -resume.
//
// Fleet mode distributes suites across daemons (see README.md "Fleet"):
//
//	bfcd -mode worker -addr 127.0.0.1:8381 -store worker1/ \
//	     -register http://127.0.0.1:8377
//	bfcd -mode coordinator -addr 127.0.0.1:8377 -store coord/ \
//	     -fleet-workers http://127.0.0.1:8381,http://127.0.0.1:8382
//
// A coordinator compiles each submitted suite, satisfies jobs already present
// anywhere in the fleet (the union of worker stores plus its own store) with
// zero execution, deals the rest round-robin into batches of at most
// -fleet-batch jobs, as many batches as a multiple of the live workers so that
// every worker gets work, scatters them to the workers, and merges the records
// into a result stream byte-identical to a single-node run; a batch no worker
// can take runs on the coordinator's own -parallel pool.
// Workers execute batches against their own stores and announce themselves to
// the coordinator; either side surviving the other's restart is normal
// operation.
//
// Observability: GET /metrics exposes Prometheus text-format counters for the
// suite/job/cache/HTTP planes (plus bfcd_fleet_* in fleet modes), GET
// /api/v1/version reports build information, and -pprof mounts net/http/pprof
// under /debug/pprof/. Requests are logged through the shared -log-level /
// -log-json slog flags. Every job the daemon's own pool executes — a
// coordinator's fallback batches included — also collects a wall-clock
// execution profile (internal/telemetry/execstats): the bfcd_exec_* families
// aggregate it, "job" SSE events carry a per-job summary, and a coordinator
// additionally maintains an EWMA per-worker throughput ledger served inside
// GET /api/v1/fleet/status and as bfcd_fleet_worker_throughput. "bfcctl top"
// renders both live.
//
// Use cmd/bfcctl (or curl) against the API; see README.md "Service".
package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bfc/internal/fleet"
	"bfc/internal/harness"
	"bfc/internal/service"
	"bfc/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8377", "listen address")
		storeDir  = flag.String("store", "bfcd-store", "result store directory (shared with bfcsim -out)")
		workers   = flag.Int("parallel", 0, "simulation worker pool size, fleet fallback included (0 = all cores)")
		maxSuites = flag.Int("max-suites", 4, "maximum concurrently running suites")
		history   = flag.Int("history", 64, "retained terminal suites (older ones are forgotten; their artifacts stay in the store)")
		withPprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		mode       = flag.String("mode", "standalone", "daemon role: standalone, coordinator or worker")
		fleetPeers = flag.String("fleet-workers", "", "coordinator: comma-separated worker base URLs")
		register   = flag.String("register", "", "worker: coordinator base URL to announce to")
		selfURL    = flag.String("self", "", "worker: advertised base URL (default http://<addr>)")
		batchJobs  = flag.Int("fleet-batch", 4, "coordinator: most jobs per scattered batch (the batch count is rounded up to a multiple of the live workers)")
		inflight   = flag.Int("fleet-inflight", 2, "coordinator: concurrent batches per worker")
		batchTO    = flag.Duration("fleet-timeout", 2*time.Minute, "coordinator: per-batch RPC timeout")
		heartbeat  = flag.Duration("fleet-heartbeat", 5*time.Second, "fleet: heartbeat / announce interval")
		attempts   = flag.Int("fleet-attempts", 3, "coordinator: remote attempts per batch before local fallback")
	)
	logOpts := telemetry.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	logger := telemetry.SetupLogging(logOpts)

	store, err := harness.NewStore(*storeDir)
	if err != nil {
		logger.Error("opening store", "err", err)
		os.Exit(1)
	}

	// One registry for the whole daemon, so the service and fleet metric
	// families land in the same /metrics exposition.
	registry := telemetry.NewRegistry()
	svcCfg := service.Config{
		Store:           store,
		Workers:         *workers,
		MaxActiveSuites: *maxSuites,
		MaxSuiteHistory: *history,
		Registry:        registry,
		Logger:          logger,
	}

	var (
		coord  *fleet.Coordinator
		exec   *fleet.Executor
		extras []func(*http.ServeMux)
	)
	switch *mode {
	case "standalone":
	case "coordinator":
		var peers []string
		for _, u := range strings.Split(*fleetPeers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				peers = append(peers, u)
			}
		}
		coord, err = fleet.NewCoordinator(fleet.Config{
			Store:             store,
			Workers:           peers,
			BatchJobs:         *batchJobs,
			InflightPerWorker: *inflight,
			BatchTimeout:      *batchTO,
			HeartbeatInterval: *heartbeat,
			MaxAttempts:       *attempts,
			Registry:          registry,
			Logger:            logger,
		})
		if err != nil {
			logger.Error("starting coordinator", "err", err)
			os.Exit(1)
		}
		// Assigned only when non-nil: a typed-nil Dispatcher would make the
		// service believe it has a fleet.
		svcCfg.Fleet = coord
		extras = append(extras, coord.Routes())
	case "worker":
		parallel := *workers
		if parallel <= 0 {
			parallel = runtime.NumCPU()
		}
		exec, err = fleet.NewExecutor(fleet.ExecutorConfig{
			Store:    store,
			Parallel: parallel,
			Registry: registry,
			Logger:   logger,
		})
		if err != nil {
			logger.Error("starting worker", "err", err)
			os.Exit(1)
		}
		extras = append(extras, exec.Routes())
	default:
		logger.Error("unknown -mode", "mode", *mode)
		os.Exit(1)
	}

	svc, err := service.New(svcCfg)
	if err != nil {
		logger.Error("starting service", "err", err)
		os.Exit(1)
	}

	handler := service.NewHandler(svc, extras...)
	if *withPprof {
		// The profiling mux wraps the API so pprof traffic skips the request
		// metrics (scrapes of /debug/pprof/profile run for seconds and would
		// distort the latency histogram).
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}

	// The base context is cancelled on the first signal, which unblocks SSE
	// streams so Shutdown can drain cleanly; a second signal kills the
	// process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if exec != nil && *register != "" {
		self := *selfURL
		if self == "" {
			self = "http://" + *addr
		}
		go exec.Announce(ctx, *register, self, *heartbeat)
	}

	server := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}

	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	info := telemetry.ReadBuildInfo()
	logger.Info("bfcd serving",
		"addr", *addr, "mode", *mode, "store", store.Dir(), "pprof", *withPprof,
		"version", info.Version, "go", info.GoVersion)

	select {
	case err := <-errCh:
		logger.Error("serve", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("bfcd shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	// Drain order: stop accepting HTTP, cancel running suites (which aborts
	// in-flight fleet dispatches), then stop heartbeats.
	svc.Close()
	if coord != nil {
		coord.Close()
	}
}
