// Package service exposes the repository's solvers as an HTTP/JSON policy
// service: analytic index computation (Gittins, Whittle, cµ/Klimov/WSEPT
// priority orders) through the scenario registry's Index capability,
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
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"stochsched/internal/cluster"
	"stochsched/internal/engine"
	"stochsched/internal/obs"
	"stochsched/internal/scenario"
	"stochsched/internal/sweep"
	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// Parallel is the worker-pool size used by /v1/simulate when the
	// request does not pin one. Default: GOMAXPROCS (engine.NewPool(0)).
	Parallel int
	// CacheShards is the number of cache shards. Default 16.
	CacheShards int
	// CacheEntriesPerShard bounds each shard (0 keeps the default 256;
	// negative means unbounded). It also bounds, separately, each shard's
	// part of the body memo that lets a repeated body skip parsing; with
	// an unbounded cache the memo keeps to each shard's entry count, or
	// to 256 while a shard holds fewer.
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
	// count for batch — see scenario.Scenario.Work). Requests
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
	// retention — requests are still traced, so they carry X-Request-Id
	// headers and the access log its request facts, but no trace is kept
	// and the trace endpoint always answers 404).
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
		c.CacheEntriesPerShard = defaultEntriesPerShard
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
		// Its threshold is above every level the server logs at, so the
		// access log skips formatting (slog.DiscardHandler needs Go 1.24).
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
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
	// and the individual simulate cells sweeps execute through the pipeline.
	for _, name := range []string{"index", "simulate", "batch", "sweep", "sweep_cells"} {
		s.eps[name] = &EndpointMetrics{}
	}
	// The server is its own sweep backend: every cell is one simulate call
	// through the same pipeline as HTTP traffic (see Simulate in sweep.go).
	s.sweeps = sweep.NewManager(s, sweep.Config{
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
	post := func(pattern, name string, h bodyHandler) {
		route(http.MethodPost, pattern, name, s.endpoint(name, h), "POST")
	}
	post("/v1/index", "index", s.solve(indexOp))
	post("/v1/simulate", "simulate", s.solve(simulateOp))
	post("/v1/batch", "batch", s.handleBatch)
	post("/v1/sweep", "sweep", s.handleSweepSubmit)
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

// bodyHandler serves a POST route once endpoint has done the shared
// bookkeeping: it gets the route's metrics bucket and the request body,
// already read under the size cap, and bills its own outcome to m.
type bodyHandler func(w http.ResponseWriter, r *http.Request, m *EndpointMetrics, body []byte)

// endpoint wraps a POST route in the bookkeeping all four share: the
// request counter and latency of its metrics bucket, the endpoint
// annotation on the trace root, and the body read under the configured
// cap (negative MaxBodyBytes means uncapped; an unreadable body is a 400
// billed as an error). The body is read before anything else, so a slow
// client trickling it — network I/O, not compute — never pins an
// execution slot.
func (s *Server) endpoint(name string, h bodyHandler) http.HandlerFunc {
	m := s.eps[name]
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		m.requests.Add(1)
		defer func() { m.observeLatency(time.Since(begin)) }()
		obs.RootSpan(r.Context()).Annotate("endpoint", name)
		rd := r.Body
		if s.cfg.MaxBodyBytes >= 0 {
			rd = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		body, err := io.ReadAll(rd)
		if err != nil {
			m.errors.Add(1)
			writeError(w, http.StatusBadRequest, api.ErrCodeBadRequest, fmt.Sprintf("reading body: %v", err))
			return
		}
		h(w, r, m, body)
	}
}

// failure maps a failed call onto its HTTP status and error envelope. An
// owner's relayed *client.APIError keeps the owner's status, code and
// message, so a forwarded rejection is byte-identical to a local one.
func failure(err error) (status int, code, msg string) {
	var owner *client.APIError
	switch {
	case errors.As(err, &owner):
		return owner.Status, owner.Code, owner.Message
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests, api.ErrCodeOverloaded, "server overloaded: admission queue full"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, api.ErrCodeUnavailable, err.Error()
	case errors.As(err, new(scenario.BadSpec)):
		return http.StatusBadRequest, api.ErrCodeBadRequest, err.Error()
	default:
		return http.StatusInternalServerError, api.ErrCodeInternal, err.Error()
	}
}

// writeFailure renders a failed call as an HTTP error response.
func writeFailure(w http.ResponseWriter, err error) {
	status, code, msg := failure(err)
	writeError(w, status, code, msg)
}

// ---------------------------------------------------------------------------
// The call pipeline
//
// Every index or simulate call — an HTTP request, a /v1/batch item, a
// sweep cell — takes the same path: parse, then either the ring owner
// (forward, in cluster.go) or the local cache and admission queue
// (serve), billed to its bucket in one place (call). The front doors
// only render the answer.

// parsed is one decoded call: its cache key (also its ring routing key),
// the computation producing the encoded response body, and the request's
// scenario kind and spec hash for the access log and trace annotations.
// compute receives the serving context so spans recorded inside the
// computation attach to the initiating request's trace.
type parsed struct {
	key     string
	kind    string
	hash    string
	compute func(ctx context.Context) ([]byte, error)
}

// op is one kind of call: the path a peer serves it at (the forward
// target) and the parser decoding its body.
type op struct {
	path  string
	parse func(s *Server, body []byte) (parsed, error)
}

var (
	indexOp    = op{"/v1/index", parseIndex}
	simulateOp = op{"/v1/simulate", parseSimulate}
)

// callMode is how a call reached this node.
type callMode int

const (
	// interactive is a client's HTTP request or batch item: routed on the
	// ring, an owner's error envelope relayed, a full admission queue
	// shed with 429.
	interactive callMode = iota
	// relayed is a call a peer already forwarded once — the depth-1 loop
	// guard: it is served here, whatever the ring says.
	relayed
	// background is a sweep cell: routed on the ring, but computed here
	// whenever the owner does not answer with bytes (down, or shedding),
	// and waiting for an execution slot instead of shedding — a shed cell
	// would fail its whole job, and cells are bounded by their job's
	// parallelism. Local bytes equal the owner's, so the fallback is
	// always sound.
	background
)

// modeOf reads an HTTP request's call mode off the forwarding header.
func modeOf(r *http.Request) callMode {
	if r.Header.Get(cluster.ForwardHeader) != "" {
		return relayed
	}
	return interactive
}

// call answers one call and bills it to m — the only place a call is
// billed (a batch item with an unknown op is not a call): shed for a 429,
// errors for any other failure, and the outcome for a success. The
// outcome is the X-Cache value — hit, miss, dedup, or forward, which
// counts as neither hit nor miss (the owner counts it).
func (s *Server) call(ctx context.Context, m *EndpointMetrics, o op, body []byte, mode callMode) ([]byte, string, error) {
	resp, outcome, err := s.answer(ctx, o, body, mode)
	if err == nil {
		m.observe(outcome)
	} else if status, _, _ := failure(err); status == http.StatusTooManyRequests {
		m.shed.Add(1)
	} else {
		m.errors.Add(1)
	}
	return resp, outcome, err
}

// answer runs one call through the pipeline, unbilled. Spans open under
// ctx's current span — the request root of an HTTP call, the item span of
// a batch item — which also carries the call's kind, spec hash, and
// outcome. The outcome of a local failure is empty; anything the owner
// answered, its error envelope included, is "forward".
//
// A body this node already parsed and served as a hit is in the memo
// (see Cache): its "parse" is a SHA-256 and a lookup, and the memoized key
// goes through serve like a parsed one, so a hit or a join of an in-flight
// entry needs no decode, re-marshal or canonical hash. Only a miss parses
// the body, inside its computation; parsing is deterministic, so the body
// parses as it did when it was recorded. Any other call takes the parser,
// so every error text stays the parser's.
func (s *Server) answer(ctx context.Context, o op, body []byte, mode callMode) ([]byte, string, error) {
	sp := obs.CurrentSpan(ctx)
	psp := sp.StartChild("parse")
	mk := memoKey{o.path, sha256.Sum256(body)}
	memo, memoized := s.cache.recall(mk)
	var p parsed
	var err error
	if memoized {
		p = parsed{key: memo.key, kind: memo.kind, hash: memo.key[strings.LastIndexByte(memo.key, ':')+1:]}
		p.compute = func(ctx context.Context) ([]byte, error) {
			q, err := o.parse(s, body)
			if err != nil {
				return nil, err
			}
			return q.compute(ctx)
		}
	} else {
		p, err = o.parse(s, body)
	}
	psp.End()
	if err != nil {
		return nil, "", err
	}
	sp.Annotate("kind", p.kind)
	sp.Annotate("spec_hash", p.hash)
	if s.cluster != nil && mode != relayed {
		resp, err := s.forward(ctx, o.path, p.key, body)
		if resp != nil || (err != nil && mode == interactive) {
			sp.Annotate("outcome", "forward")
			return resp, "forward", err
		}
	}
	resp, outcome, err := s.serve(ctx, p, mode == background)
	if err != nil {
		return nil, "", err
	}
	// Only a repeat earns a memo entry: misses, dedups and forwards record
	// nothing, so fresh-seed traffic never fills the memo.
	if outcome == "hit" && !memoized {
		s.cache.remember(mk, memoEntry{key: p.key, kind: p.kind})
	}
	sp.Annotate("outcome", outcome)
	return resp, outcome, nil
}

// serve runs one parsed call on this node: the sharded cache (hits and
// singleflight joins bypass admission entirely), then on a miss the
// admission queue and the computation. A background call waits for a slot
// rather than shedding. It returns the lookup's outcome as its X-Cache
// value. The trace (if any) gets a "cache" span covering the lookup,
// annotated with the outcome; a miss nests "admission" (queue wait) and
// the computation's own spans under it.
func (s *Server) serve(ctx context.Context, p parsed, background bool) ([]byte, string, error) {
	sp := obs.CurrentSpan(ctx).StartChild("cache")
	sctx := obs.WithSpan(ctx, sp)
	// Admission wraps only the computation: cache hits are map lookups
	// and singleflight waiters are parked channel reads, so neither
	// consumes an execution slot — one slow popular spec cannot starve
	// cheap traffic on other keys.
	body, outcome, err := s.cache.Do(sctx, p.key, func() ([]byte, error) {
		asp := sp.StartChild("admission")
		var err error
		if background {
			err = s.admit.AcquireBlocking(sctx)
		} else {
			err = s.admit.Acquire(sctx)
		}
		asp.End()
		if err != nil {
			return nil, err
		}
		defer s.admit.Release()
		// The computation's spans (compute, encode) are siblings of the
		// admission wait under the cache span.
		return p.compute(sctx)
	})
	label := outcomeHeader(outcome)
	sp.Annotate("outcome", label)
	sp.End()
	return body, label, err
}

// solve serves /v1/index or /v1/simulate: one call, rendered as the HTTP
// response with its X-Cache outcome.
func (s *Server) solve(o op) bodyHandler {
	return func(w http.ResponseWriter, r *http.Request, m *EndpointMetrics, body []byte) {
		resp, outcome, err := s.call(r.Context(), m, o, body, modeOf(r))
		if err != nil {
			writeFailure(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", outcome)
		wsp := obs.RootSpan(r.Context()).StartChild("write")
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
// Index computation is resolved through the scenario registry's Index
// capability — the serving layer carries no per-kind solver code, exactly
// like /v1/simulate. The cache key is the request's family:hash (see
// scenario.Index.Family).

// parseIndex decodes a kind-dispatched /v1/index body into its cache key
// and computation.
func parseIndex(_ *Server, body []byte) (parsed, error) {
	req, err := scenario.ParseIndexRequest(body)
	if err != nil {
		return parsed{}, scenario.BadSpec{Err: err}
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
				return nil, err
			}
			_, esp := obs.Start(ctx, "encode")
			defer esp.End()
			return marshal(resp)
		},
	}, nil
}

// ---------------------------------------------------------------------------
// /v1/simulate

// simulateRequest decodes a /v1/simulate body through the scenario
// registry and enforces the request-level invariants (shape, replication
// cap, work budget — uniformly across every registered kind). Spec-level
// validation is deferred to the computation (hits skip it);
// ValidateSimulate in sweep.go performs both for sweep submissions.
func (s *Server) simulateRequest(body []byte) (*scenario.Request, error) {
	req, err := scenario.ParseRequest(body, scenario.Limits{
		MaxReplications: s.cfg.MaxReplications,
		MaxSimWork:      s.cfg.MaxSimWork,
	})
	if err != nil {
		return nil, scenario.BadSpec{Err: err}
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

// parseSimulate decodes a /v1/simulate body into its cache key and
// computation.
func parseSimulate(s *Server, body []byte) (parsed, error) {
	req, err := s.simulateRequest(body)
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
			// Server-side timeout detached from the request's cancellation
			// (but not its values — the trace rides along): singleflight
			// waiters may be sharing this computation after the initiating
			// client leaves. Response assembly lives in scenario.Run, so the
			// serving layer carries no kind-specific response types.
			ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.ComputeTimeout)
			defer cancel()
			return scenario.Run(ctx, req, pool)
		},
	}, nil
}

// ---------------------------------------------------------------------------
// /v1/batch

// handleBatch serves POST /v1/batch: up to BatchMaxItems heterogeneous
// index/simulate calls multiplexed into one HTTP round trip. Items execute
// concurrently on the server's shared engine pool, each through the same
// call pipeline as its single-call endpoint, and the response lists
// per-item status and body in item order — deterministically, whatever the
// completion interleaving. One invalid or shed item never fails its
// siblings.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, m *EndpointMetrics, body []byte) {
	var req api.BatchRequest
	if err := scenario.DecodeStrict(body, &req); err != nil {
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

	// engine.Map fans the items out over the shared pool (degrading to
	// inline execution when it is saturated) and returns results in item
	// order. Item functions never return errors — failures are encoded
	// into the item result — so the only Map error is the request context
	// dying mid-batch, which gets the same unavailable mapping as every
	// other endpoint. A relayed batch serves every item here.
	mode := modeOf(r)
	results, err := engine.Map(r.Context(), s.pool, len(req.Items),
		func(ctx context.Context, i int) (api.BatchItemResult, error) {
			ictx, isp := obs.Start(ctx, fmt.Sprintf("item[%d]", i))
			res := s.batchItem(ictx, m, req.Items[i], mode)
			isp.Annotate("status", fmt.Sprint(res.Status))
			isp.End()
			return res, nil
		})
	if err != nil {
		m.errors.Add(1)
		writeFailure(w, err)
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

// batchItem runs one batch item as a call and renders its answer as the
// per-item status/body pair — the status and body its single-call
// endpoint would have produced. In a ring each item routes on its own
// cache key, so one batch fans out across every peer that owns one of its
// items. An unknown op is rejected before the call: the memo is keyed by
// an op's path, so no body it holds for a known op may answer for it.
func (s *Server) batchItem(ctx context.Context, m *EndpointMetrics, item api.BatchItem, mode callMode) api.BatchItemResult {
	var resp []byte
	var err error
	switch item.Op {
	case api.OpIndex:
		resp, _, err = s.call(ctx, m, indexOp, item.Body, mode)
	case api.OpSimulate:
		resp, _, err = s.call(ctx, m, simulateOp, item.Body, mode)
	default:
		m.errors.Add(1)
		err = scenario.BadSpec{Err: fmt.Errorf("unknown batch op %q (want %s or %s)", item.Op, api.OpIndex, api.OpSimulate)}
	}
	if err == nil {
		return api.BatchItemResult{Status: http.StatusOK, Body: resp}
	}
	status, code, msg := failure(err)
	body, err := json.Marshal(api.ErrorResponse{Err: api.ErrorDetail{Code: code, Message: msg}})
	if err != nil {
		body = []byte(`{"error":{"code":"internal","message":"encoding error body"}}`)
	}
	return api.BatchItemResult{Status: status, Body: body}
}

// ---------------------------------------------------------------------------
// /v1/stats

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	pm := s.pool.Metrics()
	resp := api.StatsResponse{
		Endpoints: make(map[string]api.EndpointStats, len(s.eps)),
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
