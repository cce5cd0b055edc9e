// Package stochsched is a Go library reproducing the model families,
// index policies, and classical results catalogued in José Niño-Mora's
// survey "Stochastic Scheduling" (Encyclopedia of Optimization, 2001;
// revised 2005).
//
// The library implements, from scratch on the standard library:
//
//   - Batch stochastic scheduling (internal/batch): WSEPT/Smith's rule,
//     Sevcik's preemptive index, SEPT/LEPT on identical and uniform parallel
//     machines with exact subset-DP baselines, in-tree precedence with HLF,
//     stochastic flow shops, and the two-point counterexample machinery.
//   - Multi-armed bandits (internal/bandit): Gittins indices by two
//     independent algorithms, product-chain DP ground truth, switching-cost
//     extensions, and Beta–Bernoulli indices.
//   - Restless bandits (internal/restless): Whittle indices, indexability
//     checking, the Whittle LP relaxation bound, a primal–dual index
//     heuristic, and fleet simulation.
//   - Queueing control (internal/queueing): multiclass M/G/1 with the cµ
//     rule and exact Cobham/Pollaczek–Khinchine formulas, Klimov's feedback
//     model and index algorithm, conservation laws and the performance
//     polytope, multiclass M/M/m, polling with setups, multi-station
//     networks with the Lu–Kumar instability, and fluid models.
//   - Substrates: deterministic splittable RNG (internal/rng), probability
//     distributions with hazard-rate machinery (internal/dist), dense linear
//     algebra (internal/linalg), Markov-chain analysis and MDP value
//     iteration (internal/markov), a two-phase simplex LP solver
//     (internal/lp), streaming statistics (internal/stats), and a
//     discrete-event simulation kernel (internal/des).
//   - Execution (internal/engine): the shared concurrent replication
//     runner. Monte Carlo replications fan out over a worker pool with
//     per-replication RNG substreams and a strictly ordered streaming
//     reduce, so every simulator and the experiment suite produce
//     byte-identical results for a given seed at any parallelism level,
//     with context-based cancellation and timeouts throughout.
//   - Wire contract (pkg/api): every request/response JSON shape the
//     service speaks — the problem specs (bandit, restless, multiclass
//     M/G/1 with optional Klimov feedback, batch, …), the
//     simulate/index/batch/sweep/stats envelopes, the standard error
//     envelope, and the deterministic SHA-256 content hashing — with no
//     internal dependencies, so external programs can import it. The CLIs
//     and the policy service all parse into these types.
//   - Scenarios (internal/scenario): the pluggable model layer of the
//     simulation service. One registered Scenario per simulate kind —
//     mg1 (cµ/FIFO/Klimov), bandit (Gittins/greedy), restless fleets
//     (Whittle/myopic/random), batch (WSEPT/SEPT/LEPT), and five more —
//     each in one file owning strict payload parsing, work-budget
//     accounting, its one policy list, one prepare step (policy, spec
//     conversion into the solver model, antithetic admissibility) that
//     both sweep validation and the engine-backed simulation run, and
//     metric extraction for comparisons. Kinds with closed-form indices
//     additionally carry the optional Index capability (Gittins, Whittle,
//     cµ/Klimov/WSEPT), which is how POST /v1/index computes. The service, the sweep engine, and the
//     CLIs all resolve kinds through the registry, so a new kind is one
//     file plus its registration line.
//   - Serving (internal/service, cmd/stochschedd): an HTTP/JSON policy
//     server exposing the solvers — POST /v1/index (kind-dispatched
//     analytic indices), /v1/simulate, and /v1/batch (up to
//     N heterogeneous calls multiplexed into one round trip, executed
//     concurrently on the shared pool with per-item status in item
//     order) — behind a sharded memoization cache keyed by spec hash
//     with singleflight deduplication of concurrent identical requests,
//     a bounded admission queue that sheds overload with 429s, a
//     standard JSON error envelope, and per-endpoint hit-rate/latency
//     counters at /v1/stats. Simulation responses are byte-identical for
//     a given (spec, seed) at any parallelism level, which also lets the
//     cache key ignore the parallelism knob.
//   - Client SDK (pkg/client): the typed Go client — context-aware calls
//     for every endpoint, automatic retry-on-429 with exponential
//     backoff (safe: the service is idempotent by spec hash), spec-hash
//     verification on simulate responses, a batching transport that
//     coalesces concurrent calls into /v1/batch round trips, and an
//     in-process transport the bundled CLIs run on.
//   - Sweeps (internal/sweep): the asynchronous experiment platform on
//     top of the service — a base /v1/simulate request, a declarative
//     parameter grid (api.Grid), and a policy list expand into a
//     deterministic DAG of simulation cells executed through the
//     service's cache, folded into per-point policy-comparison rows
//     (mean, CI half-width, regret vs the best policy) and streamed as
//     NDJSON in grid order. Exposed as POST /v1/sweep with status,
//     streaming-results, and cancel routes, plus the in-process
//     `stochsched sweep` subcommand; jobs live in a bounded store with
//     oldest-finished eviction. Sweep result streams inherit the
//     engine's guarantee: byte-identical at any parallelism.
//
// The reproduction suite (internal/experiments, runnable via
// cmd/stochsched with -parallel and -timeout) contains 28 experiments, one
// per classical result the survey cites; BenchmarkE* in this package
// regenerate each experiment's table, BenchmarkEngineReplications tracks
// the engine's replication throughput, BenchmarkServiceIndexCache
// tracks the policy service's cold-compute vs warm-cache latency,
// BenchmarkSimulate tracks the /v1/simulate path for every registered
// scenario kind, and BenchmarkBatchVsSingle tracks the /v1/batch wire
// amortization against single calls. Run
// `stochsched -list` for the experiment index; docs/catalog.md is the
// index-rule catalogue.
//
// Documentation lives in docs/: architecture.md (the layer diagram and
// what each layer owns), api.md (the full HTTP reference for every /v1/*
// endpoint), client.md (using the Go client SDK), and determinism.md
// (why results are byte-identical across parallelism and what would
// break it); README.md is the quickstart.
package stochsched
