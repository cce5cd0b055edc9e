GO ?= go

.PHONY: build test race conformance bench bench-service bench-simulate bench-batch bench-precision bench-cluster bench-check loadgen-smoke smoke cluster-smoke docs-check fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-bearing packages (the engine and
# everything that fans replications out over it).
race:
	$(GO) test -race ./internal/engine/... ./internal/experiments/... \
		./internal/queueing/... ./internal/batch/... \
		./internal/bandit/... ./internal/restless/... \
		./internal/markov/... ./internal/lp/... \
		./internal/rng/... ./internal/stats/... \
		./internal/service/... ./internal/sweep/... \
		./internal/scenario/... ./pkg/...

# The registry-wide conformance suites: every registered scenario kind
# through the full Scenario/Indexer contract (internal/scenario) and all
# four public endpoints (internal/service), plus the analytic-vs-simulation
# agreement tests. A named gate so a kind that regresses the registry
# contract is called out by name in CI.
conformance:
	$(GO) test -count=1 -run 'TestConformance|TestEveryKind|TestEveryIndexer|TestJacksonProductForm|TestMDPOptimalGain|TestRestlessLPBound' \
		./internal/scenario/... ./internal/service/...

# Engine replication benchmark at parallelism 1/4/max, rendered as
# machine-readable BENCH_engine.json for the performance trajectory.
# Three runs folded to their best keep the baseline comparable with the
# best-of-N measurement `make bench-check` gates against. Every bench
# target pins -cpu 1, the GOMAXPROCS the gate measures at.
bench:
	$(GO) test -run '^$$' -bench BenchmarkEngineReplications -benchmem -count 3 -cpu 1 . > bench_engine.out
	@cat bench_engine.out
	$(GO) run ./cmd/bench2json < bench_engine.out > BENCH_engine.json
	@rm -f bench_engine.out
	@echo wrote BENCH_engine.json

# Policy-service index-cache benchmark (cold compute vs warm sharded-cache
# hit on a bandit /v1/index request), rendered as BENCH_service.json. The warm path must be
# at least 10x faster than the cold path.
bench-service:
	$(GO) test -run '^$$' -bench BenchmarkServiceIndexCache -benchmem -cpu 1 . > bench_service.out
	@cat bench_service.out
	$(GO) run ./cmd/bench2json < bench_service.out > BENCH_service.json
	@rm -f bench_service.out
	@echo wrote BENCH_service.json

# Simulate-path benchmark: every registered scenario kind through
# /v1/simulate, cold (computing) and warm (cached bytes), rendered as
# BENCH_simulate.json so the simulate path is tracked like the engine and
# cache benches.
bench-simulate:
	$(GO) test -run '^$$' -bench BenchmarkSimulate -benchmem -count 3 -cpu 1 . > bench_simulate.out
	@cat bench_simulate.out
	$(GO) run ./cmd/bench2json < bench_simulate.out > BENCH_simulate.json
	@rm -f bench_simulate.out
	@echo wrote BENCH_simulate.json

# Batching benchmark: N warm index calls as N single HTTP round trips
# through pkg/client vs one POST /v1/batch carrying all N, rendered as
# BENCH_batch.json. The batch must amortize per-call transport overhead
# (batch faster per op than the N singles).
bench-batch:
	$(GO) test -run '^$$' -bench BenchmarkBatchVsSingle -benchmem -cpu 1 . > bench_batch.out
	@cat bench_batch.out
	$(GO) run ./cmd/bench2json < bench_batch.out > BENCH_batch.json
	@rm -f bench_batch.out
	@echo wrote BENCH_batch.json

# Adaptive-precision benchmark: per kind, the conservative fixed budget a
# user would provision for ±1% CI95 versus target-precision mode stopping
# at the first round that meets it (the ns/op ratio is the replication
# saving; the adaptive variants assert a ≥5x saving inline), plus the
# implied replications to resolve a policy difference to ±1% with and
# without common random numbers. Rendered as BENCH_precision.json.
bench-precision:
	$(GO) test -run '^$$' -bench BenchmarkAdaptivePrecision -benchmem -count 3 -cpu 1 . > bench_precision.out
	@cat bench_precision.out
	$(GO) run ./cmd/bench2json < bench_precision.out > BENCH_precision.json
	@rm -f bench_precision.out
	@echo wrote BENCH_precision.json

# Cluster benchmark: warm cache hit served by the owning node vs reached
# through a forwarding peer (the relay overhead), and a fresh 4-point
# sweep on one node vs a 3-node ring fanning cells out to their owners.
# Rendered as BENCH_cluster.json.
bench-cluster:
	$(GO) test -run '^$$' -bench BenchmarkCluster -benchmem -count 3 -cpu 1 . > bench_cluster.out
	@cat bench_cluster.out
	$(GO) run ./cmd/bench2json < bench_cluster.out > BENCH_cluster.json
	@rm -f bench_cluster.out
	@echo wrote BENCH_cluster.json

# Benchmark regression gate: re-run the engine, simulate, adaptive-
# precision, and cluster benchmarks (best of BENCH_COUNT runs) and fail
# when any entry regresses more than BENCH_TOLERANCE_PCT (default 15)
# percent in ns/op or bytes/op against the checked-in BENCH_engine.json /
# BENCH_simulate.json / BENCH_precision.json / BENCH_cluster.json
# baselines. Regenerate the baselines with
# `make bench bench-simulate bench-precision bench-cluster` after
# intentional changes.
bench-check:
	./scripts/bench_delta.sh

# Loadgen smoke: start a real daemon and soak it through `stochsched
# loadgen -check` — zero non-429 errors and populated /v1/stats latency
# histograms required. LOADGEN_DURATION overrides the 30s default.
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# End-to-end smoke of the stochschedd HTTP server: build, start, curl every
# endpoint against golden bodies, verify cache hits, sweep submit/poll/
# stream against golden rows, and cross-parallelism determinism of both
# simulate bodies and sweep NDJSON. Same script CI's service-smoke job runs.
smoke:
	./scripts/service_smoke.sh

# Multi-node smoke: build the daemon, start a 3-node loopback ring with
# -peers/-self, and require every node's simulate bodies and sweep NDJSON
# byte-identical to a single-node daemon's; then kill one peer (surviving
# nodes must keep answering identically) and round-trip a -state-dir
# snapshot across a SIGTERM restart (warm hits restored). Same script CI's
# cluster-smoke job runs.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Lint the documentation tree: every relative link in README.md, docs/, and
# examples/*/README.md must resolve to a file in the checkout.
docs-check:
	./scripts/docs_check.sh

fmt:
	gofmt -w .

fmt-check:
	@diff=$$(gofmt -l .); if [ -n "$$diff" ]; then \
		echo "gofmt needed on:"; echo "$$diff"; exit 1; fi

vet:
	$(GO) vet ./...

# The CI entry point: identical to what .github/workflows/ci.yml runs.
ci: build vet fmt-check test race conformance smoke cluster-smoke docs-check bench-check loadgen-smoke
