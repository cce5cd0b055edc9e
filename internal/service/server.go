// Package service exposes the repository's solvers as an HTTP/JSON policy
// service: analytic index computation (Gittins, Whittle, cµ/Klimov/WSEPT
// priority orders) through the scenario registry's Indexer capability,
// engine-backed Monte Carlo evaluation of every simulate kind registered
// in internal/scenario, and request batching — behind a sharded
// memoization cache with singleflight deduplication, a bounded admission
// queue that sheds overload with 429s, and per-endpoint counters at
// /v1/stats.
//
// The wire contract (request/response JSON shapes, error envelope, spec
// hashes) is defined once in pkg/api and shared with the Go client SDK
// (pkg/client) and the CLIs.
//
// Responses are cached as encoded bytes keyed by the canonical spec hash
// (see pkg/api Hash), so repeated identical queries are byte-identical and
// cost one map lookup. Simulation responses are additionally byte-identical
// across parallelism levels for a fixed (spec, seed): the engine guarantees
// replication-order aggregation, the cache key excludes the parallelism
// knob, and encoding happens once per distinct spec.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"stochsched/internal/cluster"
	"stochsched/internal/engine"
	"stochsched/internal/obs"
	"stochsched/internal/scenario"
	"stochsched/internal/sweep"
	"stochsched/pkg/api"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// Parallel is the worker-pool size used by /v1/simulate when the
	// request does not pin one. Default: GOMAXPROCS (engine.NewPool(0)).
	Parallel int
	// CacheShards is the number of cache shards. Default 16.
	CacheShards int
	// CacheEntriesPerShard bounds each shard (0 keeps the default 256;
	// negative means unbounded).
	CacheEntriesPerShard int
	// MaxInflight bounds concurrently executing computations. Default 64.
	MaxInflight int
	// MaxQueue bounds computations waiting for an execution slot; beyond
	// it the server sheds with 429 (0 keeps the default 256; negative
	// means no queue — shed as soon as every slot is busy).
	MaxQueue int
	// MaxBodyBytes bounds request bodies. Default 1 MiB; negative
	// disables the bound (the in-process CLIs use that — the cap protects
	// a shared daemon, not a local run).
	MaxBodyBytes int64
	// MaxReplications bounds the replication count a single /v1/simulate
	// request may ask for. Default 100000; negative disables the bound.
	MaxReplications int
	// MaxSimWork bounds the total simulated work one /v1/simulate request
	// may ask for: replications × the scenario's per-replication work
	// estimate (horizon for queueing models, the discounted episode scale
	// 1/(1−β) for bandits, epochs × fleet size for restless fleets, job
	// count for batch — see scenario.Scenario.ReplicationWork). Requests
	// beyond it are rejected with 400 instead of monopolizing execution
	// slots, uniformly across every registered kind. Default 1e8; negative
	// disables the bound.
	MaxSimWork float64
	// ComputeTimeout bounds a single response computation server-side
	// (client disconnects do not cancel a computation, because concurrent
	// identical requests may be waiting on it). Default 2 minutes.
	ComputeTimeout time.Duration
	// SweepMaxJobs bounds the async sweep job store; beyond it the oldest
	// finished job is evicted, and if every job is running new submissions
	// are shed with 429. Default 32.
	SweepMaxJobs int
	// SweepMaxCells bounds one sweep's grid points × policies. Default 4096.
	SweepMaxCells int
	// BatchMaxItems bounds the calls one POST /v1/batch may multiplex.
	// Default 64.
	BatchMaxItems int
	// TraceBuffer bounds the ring of request traces retained for
	// GET /v1/trace/{id} (0 keeps the default 256; negative disables
	// retention — requests still carry X-Request-Id headers, but no trace
	// is recorded and the trace endpoint always answers 404).
	TraceBuffer int
	// Logger receives structured access and lifecycle logs (one Info line
	// per request: request id, endpoint, scenario kind, spec hash, cache
	// outcome, status, latency). nil discards logs — the default for
	// in-process/test use; the daemon wires a real handler from its
	// -log-level/-log-format flags.
	Logger *slog.Logger
	// Cluster, when non-nil, makes this node one member of a multi-node
	// ring (the daemon builds it from -peers/-self): index/simulate
	// requests for spec hashes another peer owns are forwarded there, and
	// sweep cells fan out across the ring. nil — the default — serves
	// everything locally.
	Cluster *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.CacheShards == 0 {
		c.CacheShards = 16
	}
	if c.CacheEntriesPerShard == 0 {
		c.CacheEntriesPerShard = 256
	} else if c.CacheEntriesPerShard < 0 {
		c.CacheEntriesPerShard = 0
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxReplications == 0 {
		c.MaxReplications = 100000
	}
	if c.MaxSimWork == 0 {
		c.MaxSimWork = 1e8
	}
	if c.ComputeTimeout == 0 {
		c.ComputeTimeout = 2 * time.Minute
	}
	if c.BatchMaxItems == 0 {
		c.BatchMaxItems = 64
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 256
	} else if c.TraceBuffer < 0 {
		c.TraceBuffer = 0
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the policy service. Construct with New; it is safe for
// concurrent use.
type Server struct {
	cfg     Config
	pool    *engine.Pool
	cache   *Cache
	admit   *Admission
	sweeps  *sweep.Manager
	eps     map[string]*EndpointMetrics
	rec     *obs.Recorder
	log     *slog.Logger
	cluster *cluster.Cluster
	// restoring gates /readyz: true while a state-snapshot restore is in
	// progress at boot, so load balancers do not route to a node whose
	// cache and job store are still cold-loading (see SetRestoring).
	restoring atomic.Bool
}

// New returns a server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    engine.NewPool(cfg.Parallel),
		cache:   NewCache(cfg.CacheShards, cfg.CacheEntriesPerShard),
		admit:   NewAdmission(cfg.MaxInflight, cfg.MaxQueue),
		eps:     make(map[string]*EndpointMetrics),
		rec:     obs.NewRecorder(cfg.TraceBuffer),
		log:     cfg.Logger,
		cluster: cfg.Cluster,
	}
	// sweep and sweep_cells are pseudo-endpoints: submissions of /v1/sweep
	// and the individual simulate cells sweeps execute through the cache.
	for _, name := range []string{"index", "simulate", "batch", "sweep", "sweep_cells"} {
		s.eps[name] = &EndpointMetrics{}
	}
	// In a cluster, sweep cells route to their owning peer exactly like
	// interactive /v1/simulate traffic for the same spec would, so the
	// whole ring is one memoization domain for sweeps too. The routing key
	// is the simulate cache key, built by the service's own request parser
	// — sweep routing and interactive routing can never disagree on
	// ownership.
	var be sweep.Backend = s
	if s.cluster != nil {
		be = cluster.NewBackend(s.cluster, s, func(body []byte) (string, error) {
			req, err := s.parseSimulate(body)
			if err != nil {
				return "", err
			}
			return "simulate:" + req.Hash(), nil
		})
	}
	s.sweeps = sweep.NewManager(be, sweep.Config{
		MaxJobs:  cfg.SweepMaxJobs,
		MaxCells: cfg.SweepMaxCells,
		Parallel: cfg.Parallel,
	})
	return s
}

// Handler returns the HTTP handler serving the v1 API, wrapped in the
// instrumentation middleware (request IDs, trace recording, access logs —
// see observe.go). Every route is registered method-scoped; the companion
// methodNotAllowed pattern catches the other verbs with a 405, an Allow
// header, and the standard error envelope (Go's mux alone would answer
// 405 with a plain-text body). Routes pass the endpoint-metrics name they
// bill to, so rejected verbs land in the same per-endpoint counters as
// served ones ("" for routes without a metrics bucket).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(method, pattern, name string, h http.HandlerFunc, allow string) {
		mux.HandleFunc(method+" "+pattern, h)
		mux.HandleFunc(pattern, s.methodNotAllowed(name, allow))
	}
	route(http.MethodPost, "/v1/index", "index", s.solverEndpoint("index", parseIndex), "POST")
	route(http.MethodPost, "/v1/simulate", "simulate", s.solverEndpoint("simulate", computeSimulate), "POST")
	route(http.MethodPost, "/v1/batch", "batch", s.handleBatch, "POST")
	route(http.MethodPost, "/v1/sweep", "sweep", s.handleSweepSubmit, "POST")
	mux.HandleFunc("GET /v1/sweep/{id}", s.handleSweepStatus)
	mux.HandleFunc("DELETE /v1/sweep/{id}", s.handleSweepCancel)
	mux.HandleFunc("/v1/sweep/{id}", s.methodNotAllowed("sweep", "GET, DELETE"))
	route(http.MethodGet, "/v1/sweep/{id}/results", "sweep", s.handleSweepResults, "GET")
	route(http.MethodGet, "/v1/stats", "", s.handleStats, "GET")
	route(http.MethodGet, "/v1/trace/{id}", "", s.handleTrace, "GET")
	route(http.MethodGet, "/metrics", "", s.handleMetrics, "GET")
	route(http.MethodGet, "/readyz", "", s.handleReadyz, "GET")
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return s.instrument(mux)
}

// methodNotAllowed answers 405 with the standard error envelope and an
// Allow header naming the verbs the path does serve. When the route bills
// to an endpoint-metrics bucket, the rejection is recorded there — a 405
// is a terminated request like any other, and auditing depends on every
// termination path incrementing the counters.
func (s *Server) methodNotAllowed(name, allow string) http.HandlerFunc {
	m := s.eps[name]
	return func(w http.ResponseWriter, r *http.Request) {
		if m != nil {
			begin := time.Now()
			m.requests.Add(1)
			m.errors.Add(1)
			defer func() { m.observeLatency(time.Since(begin)) }()
		}
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, api.ErrCodeMethodNotAllowed,
			fmt.Sprintf("%s does not allow %s (allow: %s)", r.URL.Path, r.Method, allow))
	}
}

// badRequest marks an error as the client's fault (HTTP 400).
type badRequest struct{ err error }

func (e badRequest) Error() string { return e.err.Error() }
func (e badRequest) Unwrap() error { return e.err }

// asClientFault rewraps scenario-level spec errors as badRequest so the
// shared error mapping classifies them 400.
func asClientFault(err error) error {
	var bs scenario.BadSpec
	if errors.As(err, &bs) {
		return badRequest{err}
	}
	return err
}

// errorStatus maps a request-path error onto its HTTP status and
// machine-readable envelope code.
func errorStatus(err error) (int, string) {
	var br badRequest
	switch {
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests, api.ErrCodeOverloaded
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, api.ErrCodeUnavailable
	case errors.As(err, &br):
		return http.StatusBadRequest, api.ErrCodeBadRequest
	default:
		return http.StatusInternalServerError, api.ErrCodeInternal
	}
}

// parsed is the outcome of decoding one request: a cache key, the
// computation producing the encoded response body, and the request's
// scenario kind and spec hash for the access log and trace annotations.
// compute receives the serving context so spans recorded inside the
// computation attach to the initiating request's trace.
type parsed struct {
	key     string
	kind    string
	hash    string
	compute func(ctx context.Context) ([]byte, error)
}

// readBody reads a request body under the configured size cap (negative
// MaxBodyBytes means uncapped).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if s.cfg.MaxBodyBytes < 0 {
		return io.ReadAll(r.Body)
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
}

// serve runs one parsed computation through the shared machinery: the
// sharded cache (hits and singleflight joins bypass admission entirely)
// and the bounded admission queue. Both the single-call endpoints and the
// /v1/batch items execute through here. The trace (if any) gets a "cache"
// span covering the lookup, annotated with the outcome; a miss nests
// "admission" (queue wait) and the computation's own spans under it.
func (s *Server) serve(ctx context.Context, p parsed) ([]byte, Outcome, error) {
	sp := obs.RootSpan(ctx).StartChild("cache")
	// The cache span enters the context only inside the miss closure, so
	// hits and dedup joins pay no context allocation.
	sctx := obs.WithSpan(ctx, sp)
	// Admission wraps only the computation: cache hits are map lookups
	// and singleflight waiters are parked channel reads, so neither
	// consumes an execution slot — one slow popular spec cannot starve
	// cheap traffic on other keys.
	body, outcome, err := s.cache.Do(sctx, p.key, func() ([]byte, error) {
		asp := sp.StartChild("admission")
		err := s.admit.Acquire(sctx)
		asp.End()
		if err != nil {
			return nil, err
		}
		defer s.admit.Release()
		// The computation's spans (compute, encode) are siblings of the
		// admission wait under the cache span.
		return p.compute(sctx)
	})
	sp.Annotate("outcome", outcomeHeader(outcome))
	sp.End()
	return body, outcome, err
}

// solverEndpoint wraps a solver endpoint with the shared machinery:
// body limits, admission control, memoization, metrics, and tracing.
func (s *Server) solverEndpoint(name string, parse func(s *Server, body []byte) (parsed, error)) http.HandlerFunc {
	m := s.eps[name]
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		m.requests.Add(1)
		defer func() { m.observeLatency(time.Since(begin)) }()
		ctx := r.Context()
		root := obs.RootSpan(ctx)
		root.Annotate("endpoint", name)

		// Read and parse before admission: a slow client trickling its body
		// is network I/O, not compute, and must not pin an execution slot.
		body, err := s.readBody(w, r)
		if err != nil {
			m.errors.Add(1)
			writeError(w, http.StatusBadRequest, api.ErrCodeBadRequest, fmt.Sprintf("reading body: %v", err))
			return
		}
		psp := root.StartChild("parse")
		p, err := parse(s, body)
		psp.End()
		if err != nil {
			m.errors.Add(1)
			writeError(w, http.StatusBadRequest, api.ErrCodeBadRequest, err.Error())
			return
		}
		root.Annotate("kind", p.kind)
		root.Annotate("spec_hash", p.hash)
		// In a cluster, a spec hash another peer owns is relayed there —
		// unless this request is itself a forward (depth-1 loop guard) or
		// the owner is down (degraded-mode local fallback). Routing is by
		// cache key, so requests that share a cached body also share an
		// owner.
		if s.maybeForward(w, r, m, "/v1/"+name, p.key, body) {
			return
		}
		resp, outcome, err := s.serve(ctx, p)
		if err != nil {
			status, code := errorStatus(err)
			if status == http.StatusTooManyRequests {
				m.shed.Add(1)
				writeError(w, status, code, "server overloaded: admission queue full")
			} else {
				m.errors.Add(1)
				writeError(w, status, code, err.Error())
			}
			return
		}
		m.observe(outcome)
		root.Annotate("outcome", outcomeHeader(outcome))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", outcomeHeader(outcome))
		wsp := root.StartChild("write")
		w.Write(resp)
		wsp.End()
	}
}

func outcomeHeader(o Outcome) string {
	switch o {
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	default:
		return "miss"
	}
}

// writeError emits the standard JSON error envelope
// {"error":{"code":…,"message":…}} (see pkg/api and docs/api.md).
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.ErrorResponse{Err: api.ErrorDetail{Code: code, Message: msg}})
}

// marshal encodes a response body. Spec and response types contain no maps,
// so the encoding is canonical — the property the byte-identity guarantees
// rest on.
func marshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ---------------------------------------------------------------------------
// /v1/index
//
// Index computation is resolved through the scenario registry's Indexer
// capability — the serving layer carries no per-kind solver code, exactly
// like /v1/simulate. The cache key is the request's family:hash (see
// scenario.Indexer.IndexFamily).

// parseIndex decodes a kind-dispatched /v1/index body into its cache key
// and computation.
func parseIndex(_ *Server, body []byte) (parsed, error) {
	req, err := scenario.ParseIndexRequest(body)
	if err != nil {
		return parsed{}, badRequest{err}
	}
	return parsed{
		key:  req.Family() + ":" + req.Hash(),
		kind: req.Kind,
		hash: req.Hash(),
		compute: func(ctx context.Context) ([]byte, error) {
			// Validation happens inside compute: hits skip it entirely, and
			// invalid specs never enter the cache because errors are not cached.
			_, csp := obs.Start(ctx, "compute")
			resp, err := req.Compute()
			csp.End()
			if err != nil {
				return nil, asClientFault(err)
			}
			_, esp := obs.Start(ctx, "encode")
			defer esp.End()
			return marshal(resp)
		},
	}, nil
}

// ---------------------------------------------------------------------------
// /v1/simulate

// parseSimulate decodes a /v1/simulate body through the scenario registry
// and enforces the request-level invariants (shape, replication cap, work
// budget — uniformly across every registered kind). Spec-level validation
// is deferred to the computation (hits skip it); ValidateSimulate in
// sweep.go performs both for sweep submissions.
func (s *Server) parseSimulate(body []byte) (*scenario.Request, error) {
	req, err := scenario.ParseRequest(body, scenario.Limits{
		MaxReplications: s.cfg.MaxReplications,
		MaxSimWork:      s.cfg.MaxSimWork,
	})
	if err != nil {
		return nil, badRequest{err}
	}
	return req, nil
}

// requestPool resolves the pool a request's simulation fans out over. A
// per-request parallelism is a capped view of the server's shared pool
// (engine.Pool.Limit): the knob can shrink a request's footprint, but the
// worker slots it does use are drawn from — never added to — the
// configured capacity, no matter how many requests carry the knob at
// once (each admitted computation still executes inline on its own
// goroutine when the pool is saturated, as everywhere in the engine).
func (s *Server) requestPool(parallel int) *engine.Pool {
	return s.pool.Limit(parallel)
}

func computeSimulate(s *Server, body []byte) (parsed, error) {
	req, err := s.parseSimulate(body)
	if err != nil {
		return parsed{}, err
	}

	// The cache key deliberately omits Parallel: the engine makes the
	// response a function of (spec, seed, replications) only, so requests
	// differing only in parallelism share one cached body.
	pool := s.requestPool(req.Parallel)
	return parsed{
		key:  "simulate:" + req.Hash(),
		kind: req.Kind,
		hash: req.Hash(),
		compute: func(ctx context.Context) ([]byte, error) {
			return s.simulateResponse(ctx, req, pool)
		},
	}, nil
}

// simulateResponse executes a parsed request through its scenario.
// Response assembly (envelope + kind-keyed fragment) lives in
// scenario.Run, so the serving layer carries no kind-specific response
// types — a new scenario needs no edits here.
func (s *Server) simulateResponse(ctx context.Context, req *scenario.Request, pool *engine.Pool) ([]byte, error) {
	// Server-side timeout detached from the request's cancellation (but
	// not its values — the trace rides along): singleflight waiters may be
	// sharing this computation after the initiating client leaves.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.ComputeTimeout)
	defer cancel()
	body, err := scenario.Run(ctx, req, pool)
	if err != nil {
		return nil, asClientFault(err)
	}
	return body, nil
}

// ---------------------------------------------------------------------------
// /v1/batch

// handleBatch serves POST /v1/batch: up to BatchMaxItems heterogeneous
// index/simulate calls multiplexed into one HTTP round trip. Items execute
// concurrently on the server's shared engine pool, each through the same
// cache, admission, and compute path as its single-call endpoint, and the
// response lists per-item status and body in item order — deterministically,
// whatever the completion interleaving. One invalid or shed item never
// fails its siblings.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	m := s.eps["batch"]
	begin := time.Now()
	m.requests.Add(1)
	defer func() { m.observeLatency(time.Since(begin)) }()
	obs.RootSpan(r.Context()).Annotate("endpoint", "batch")

	body, err := s.readBody(w, r)
	if err != nil {
		m.errors.Add(1)
		writeError(w, http.StatusBadRequest, api.ErrCodeBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	var req api.BatchRequest
	if err := decodeStrict(body, &req); err != nil {
		m.errors.Add(1)
		writeError(w, http.StatusBadRequest, api.ErrCodeBadRequest, err.Error())
		return
	}
	if len(req.Items) == 0 {
		m.errors.Add(1)
		writeError(w, http.StatusBadRequest, api.ErrCodeBadRequest, "batch carries no items")
		return
	}
	if len(req.Items) > s.cfg.BatchMaxItems {
		m.errors.Add(1)
		writeError(w, http.StatusBadRequest, api.ErrCodeBadRequest,
			fmt.Sprintf("batch carries %d items, limit %d", len(req.Items), s.cfg.BatchMaxItems))
		return
	}
	m.batchItems.Add(int64(len(req.Items)))

	// Forwarded batches serve every item locally (depth-1 loop guard):
	// the peer that forwarded already made the routing decision.
	forwarded := r.Header.Get(cluster.ForwardHeader) != ""

	// engine.Map fans the items out over the shared pool (degrading to
	// inline execution when it is saturated) and returns results in item
	// order. Item functions never return errors — failures are encoded
	// into the item result — so the only Map error is the request context
	// dying mid-batch, which gets the same unavailable mapping as every
	// other endpoint.
	results, err := engine.Map(r.Context(), s.pool, len(req.Items),
		func(ctx context.Context, i int) (api.BatchItemResult, error) {
			ictx, isp := obs.Start(ctx, fmt.Sprintf("item[%d]", i))
			res := s.batchItem(ictx, m, req.Items[i], forwarded)
			isp.Annotate("status", fmt.Sprint(res.Status))
			isp.End()
			return res, nil
		})
	if err != nil {
		m.errors.Add(1)
		status, code := errorStatus(err)
		writeError(w, status, code, err.Error())
		return
	}
	resp, err := marshal(api.BatchResponse{Items: results})
	if err != nil {
		m.errors.Add(1)
		writeError(w, http.StatusInternalServerError, api.ErrCodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
}

// batchItem executes one batch item end to end and renders its outcome as
// the per-item status/body pair — the same status and body the single-call
// endpoint would have produced. In a cluster, each item routes on its own
// cache key (forwarded set suppresses re-routing on relayed batches), so
// one batch fans out across every peer that owns one of its items.
func (s *Server) batchItem(ctx context.Context, m *EndpointMetrics, item api.BatchItem, forwarded bool) api.BatchItemResult {
	var p parsed
	var path string
	var err error
	switch item.Op {
	case api.OpIndex:
		p, err = parseIndex(s, item.Body)
		path = "/v1/index"
	case api.OpSimulate:
		p, err = computeSimulate(s, item.Body)
		path = "/v1/simulate"
	default:
		err = badRequest{fmt.Errorf("unknown batch op %q (want %s or %s)", item.Op, api.OpIndex, api.OpSimulate)}
	}
	if err != nil {
		m.errors.Add(1)
		return batchItemError(http.StatusBadRequest, api.ErrCodeBadRequest, err.Error())
	}
	if !forwarded {
		if res, handled := s.forwardItem(ctx, m, path, p.key, item.Body); handled {
			return res
		}
	}
	resp, outcome, err := s.serve(ctx, p)
	if err != nil {
		status, code := errorStatus(err)
		if status == http.StatusTooManyRequests {
			m.shed.Add(1)
			return batchItemError(status, code, "server overloaded: admission queue full")
		}
		m.errors.Add(1)
		return batchItemError(status, code, err.Error())
	}
	m.observe(outcome)
	return api.BatchItemResult{Status: http.StatusOK, Body: resp}
}

// batchItemError renders a failed item as its HTTP-equivalent status plus
// the standard error envelope.
func batchItemError(status int, code, msg string) api.BatchItemResult {
	body, err := json.Marshal(api.ErrorResponse{Err: api.ErrorDetail{Code: code, Message: msg}})
	if err != nil {
		body = []byte(`{"error":{"code":"internal","message":"encoding error body"}}`)
	}
	return api.BatchItemResult{Status: status, Body: body}
}

// decodeStrict unmarshals body into v, rejecting unknown fields and
// trailing garbage.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest{fmt.Errorf("parsing request: %w", err)}
	}
	if dec.More() {
		return badRequest{fmt.Errorf("parsing request: trailing data after JSON value")}
	}
	return nil
}

// ---------------------------------------------------------------------------
// /v1/stats

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	pm := s.pool.Metrics()
	resp := api.StatsResponse{
		Endpoints: make(map[string]EndpointSnapshot, len(s.eps)),
		Cache:     s.cache.Stats(),
		Sweeps:    s.sweeps.Stats(),
		Engine: api.EngineStats{
			Workers:          s.pool.Size(),
			InFlight:         s.admit.InFlight(),
			QueueDepth:       s.admit.Waiting(),
			BusyNs:           pm.BusyNs,
			ChunksDispatched: pm.ChunksDispatched,
			ChunksInline:     pm.ChunksInline,
			QueueWaitNs:      s.admit.WaitNs(),
		},
	}
	if s.cluster != nil {
		resp.Cluster = s.cluster.Stats()
	}
	for name, m := range s.eps {
		resp.Endpoints[name] = m.snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(resp, "", "  ")
	w.Write(append(b, '\n'))
}
