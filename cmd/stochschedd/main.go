// Command stochschedd serves the repository's scheduling-policy solvers
// over HTTP/JSON: Gittins indices, Whittle indices, cµ/Klimov/WSEPT
// priority orders, and engine-backed Monte Carlo evaluation of every
// registered simulate scenario (mg1, mmm, bandit, restless, batch), behind
// a sharded memoization cache and a bounded admission queue.
//
//	stochschedd -addr :8080 -parallel 8
//
//	POST   /v1/index              kind + spec            → analytic indices (kind-dispatched)
//	POST   /v1/simulate           spec + seed + reps     → replication estimates (any registered kind)
//	POST   /v1/batch              [{op, body}, …]        → up to -batch-max-items calls, one round trip
//	POST   /v1/sweep              base + grid + policies → async job id (202)
//	GET    /v1/sweep/{id}         job status + progress
//	GET    /v1/sweep/{id}/results NDJSON comparison rows, grid order
//	DELETE /v1/sweep/{id}         cancel
//	GET    /v1/stats              per-endpoint counters + cache/sweep/engine gauges
//	GET    /v1/trace/{id}         span tree of a recent request (id = its X-Request-Id)
//	GET    /metrics               Prometheus text exposition of the same counters
//	GET    /healthz               liveness
//	GET    /readyz                readiness (503 while restoring state or admission would shed)
//
// Every response carries an X-Request-Id header; -log-level/-log-format
// select the structured access log, and -debug-addr opts into net/http/pprof
// on a separate listener. Responses are memoized by canonical spec hash;
// /v1/simulate responses and sweep result rows are byte-identical for a
// given (spec, seed) at any parallelism — tracing and logging never touch
// bodies. See docs/api.md and docs/observability.md for the full reference.
//
// Multi-node: -peers (comma-separated base URLs, self included) plus
// -self (this node's entry in that list) arrange the daemons on a
// consistent-hash ring — each request is served by the peer owning its
// spec hash, with degraded-mode local fallback when the owner is down.
// -state-dir enables durable snapshot/restore of the cache and finished
// sweeps (periodic per -snapshot-interval, plus one final snapshot on
// SIGTERM; restored on boot, with /readyz answering 503 until the restore
// settles). See docs/architecture.md for the clustering design.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stochsched/internal/cluster"
	"stochsched/internal/service"
)

// options is the daemon's parsed command line: the listen addresses, the
// logging selections, the cluster topology, and the service configuration
// the flags map onto.
type options struct {
	addr       string
	debugAddr  string
	logLevel   string
	logFormat  string
	stateDir   string
	snapshotIv time.Duration
	cfg        service.Config
}

// parseArgs resolves the command line into options. Errors (including
// -h/-help) are reported on stderr by the flag set; the caller decides the
// exit path, which is what makes the wiring testable.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("stochschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.addr, "addr", ":8080", "listen address")
	fs.StringVar(&opt.debugAddr, "debug-addr", "", "listen address for net/http/pprof (empty = disabled)")
	fs.StringVar(&opt.logLevel, "log-level", "info", "log level: debug, info, warn, or error")
	fs.StringVar(&opt.logFormat, "log-format", "text", "log format: text or json")
	fs.IntVar(&opt.cfg.Parallel, "parallel", 0, "simulation worker-pool size; per-request parallelism is clamped to it (0 = GOMAXPROCS)")
	fs.IntVar(&opt.cfg.CacheShards, "cache-shards", 16, "cache shard count")
	fs.IntVar(&opt.cfg.CacheEntriesPerShard, "cache-entries", 256, "cached responses per shard (-1 = unbounded)")
	fs.IntVar(&opt.cfg.MaxInflight, "max-inflight", 64, "max concurrently executing computations")
	fs.IntVar(&opt.cfg.MaxQueue, "max-queue", 256, "max computations waiting for a slot before shedding 429s (-1 = shed immediately)")
	fs.DurationVar(&opt.cfg.ComputeTimeout, "compute-timeout", 2*time.Minute, "server-side bound on a single response computation")
	fs.IntVar(&opt.cfg.SweepMaxJobs, "sweep-max-jobs", 32, "max stored sweep jobs (oldest finished evicted beyond this)")
	fs.IntVar(&opt.cfg.SweepMaxCells, "sweep-max-cells", 4096, "max grid points × policies per sweep")
	fs.IntVar(&opt.cfg.BatchMaxItems, "batch-max-items", 64, "max calls one POST /v1/batch may multiplex")
	fs.IntVar(&opt.cfg.TraceBuffer, "trace-buffer", 256, "request traces retained for GET /v1/trace/{id} (-1 = disabled)")
	var peers, self string
	fs.StringVar(&peers, "peers", "", "comma-separated peer base URLs forming a cluster ring, self included (empty = single node)")
	fs.StringVar(&self, "self", "", "this node's base URL in the -peers list (required with -peers)")
	fs.StringVar(&opt.stateDir, "state-dir", "", "directory for durable cache/sweep snapshots (empty = no persistence)")
	fs.DurationVar(&opt.snapshotIv, "snapshot-interval", 30*time.Second, "period between state snapshots when -state-dir is set")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	logger, err := buildLogger(opt.logLevel, opt.logFormat, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "stochschedd: %v\n", err)
		return nil, err
	}
	opt.cfg.Logger = logger
	if cl, err := buildCluster(peers, self); err != nil {
		fmt.Fprintf(stderr, "stochschedd: %v\n", err)
		return nil, err
	} else if cl != nil {
		opt.cfg.Cluster = cl
	}
	return &opt, nil
}

// buildCluster resolves the -peers/-self flags into the node's cluster
// runtime (nil for a single-node deployment). The peer list is split on
// commas with empties dropped, so trailing commas are harmless.
func buildCluster(peers, self string) (*cluster.Cluster, error) {
	if peers == "" {
		if self != "" {
			return nil, fmt.Errorf("-self %q given without -peers", self)
		}
		return nil, nil
	}
	if self == "" {
		return nil, fmt.Errorf("-peers requires -self (this node's entry in the list)")
	}
	var list []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			list = append(list, p)
		}
	}
	return cluster.New(cluster.Config{Self: self, Peers: list})
}

// buildLogger resolves the -log-level/-log-format flags into a slog.Logger
// writing to w.
func buildLogger(level, format string, w io.Writer) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// debugMux returns the pprof handler set on its own mux — registered
// explicitly rather than importing the package for its DefaultServeMux
// side effect, so the profiling surface never leaks onto the API listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	opt, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	log := opt.cfg.Logger

	srv := service.New(opt.cfg)
	hs := &http.Server{
		Addr:    opt.addr,
		Handler: srv.Handler(),
		// Full-request read deadline: request bodies are small specs, so a
		// client needing longer than this is trickling, not transferring.
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Background work (peer health probes, periodic snapshots) stops when
	// shutdown begins, so the final snapshot cannot race a periodic one.
	bgCtx, stopBg := context.WithCancel(context.Background())
	defer stopBg()

	if opt.cfg.Cluster != nil {
		opt.cfg.Cluster.Start(bgCtx)
		log.Info("cluster ring", "self", opt.cfg.Cluster.Self(), "peers", opt.cfg.Cluster.Ring().Peers())
	}

	var store *cluster.Store
	if opt.stateDir != "" {
		var err error
		if store, err = cluster.NewStore(opt.stateDir); err != nil {
			log.Error("state dir", "error", err)
			os.Exit(1)
		}
		// Restore runs concurrently with serving: /readyz answers 503 until
		// it settles, so load balancers and peers hold traffic while the
		// cache warms. A corrupt or missing snapshot boots cold — losing a
		// cache of pure functions only costs recomputes. The periodic
		// snapshot loop starts only after restore settles, so a half-restored
		// state can never overwrite a good snapshot.
		srv.SetRestoring(true)
		go func() {
			defer srv.SetRestoring(false)
			defer func() {
				go store.Run(bgCtx, opt.snapshotIv, srv.SnapshotState,
					func(err error) { log.Warn("periodic snapshot", "error", err) })
			}()
			payload, err := store.Load()
			if err != nil {
				log.Warn("state restore failed; booting cold", "error", err)
				return
			}
			if payload == nil {
				log.Info("no state snapshot; booting cold", "path", store.Path())
				return
			}
			if err := srv.RestoreState(payload); err != nil {
				log.Warn("state restore failed; booting cold", "error", err)
				return
			}
			log.Info("state restored", "path", store.Path(), "bytes", len(payload))
		}()
	}

	if opt.debugAddr != "" {
		dbg := &http.Server{Addr: opt.debugAddr, Handler: debugMux()}
		go func() {
			log.Info("pprof listening", "addr", opt.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("pprof listener failed", "error", err)
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Info("shutting down")
		stopBg() // halt probes and periodic snapshots before draining
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Warn("shutdown", "error", err)
		}
		// Final snapshot after the listener drains: every served response
		// is captured, so the next boot restarts warm.
		if store != nil {
			if payload, err := srv.SnapshotState(); err != nil {
				log.Warn("final snapshot", "error", err)
			} else if err := store.Save(payload); err != nil {
				log.Warn("final snapshot", "error", err)
			} else {
				log.Info("state saved", "path", store.Path(), "bytes", len(payload))
			}
		}
	}()

	log.Info("listening", "addr", opt.addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("listen", "error", err)
		os.Exit(1)
	}
	<-done
}
