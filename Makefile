GO ?= go

.PHONY: build test bench-test race conformance fuzz bench bench-simulate bench-precision bench-cluster bench-check smoke cluster-smoke docs-check examples-check suite-check fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The end-to-end benchmark under bench/ is its own module, so `go test ./...`
# at the root never builds it. It calls rng, des and engine directly
# (bench/layers), so a kernel API change can break it with every root
# package green: vet and test it here. Its tests build the reference
# checker and drive each workload against an in-process service for about a
# second.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Race-detector pass over every package, so a package that gains
# concurrent code (the cluster's probe loop, the trace recorder) is checked
# without editing a list.
race:
	$(GO) test -race ./...

# The registry-wide conformance suites: every registered scenario kind
# through the full Scenario contract, Index included (internal/scenario),
# and all four public endpoints (internal/service), sweep submission's
# agreement with /v1/simulate, plus the analytic-vs-simulation agreement
# tests. A named gate so a kind that regresses the registry contract is
# called out by name in CI. The golden tests, every kind's adaptive
# (round continuation) and antithetic suites, and the quick-suite table
# golden then run at GOMAXPROCS 1, 2 and 4: response bytes and tables must
# not depend on the core count.
conformance:
	$(GO) test -count=1 -run 'TestConformance|TestEveryKind|TestEveryIndexer|TestValidateSimulateAgreement|TestJacksonProductForm|TestMDPOptimalGain|TestRestlessLPBound' \
		./internal/scenario/... ./internal/service/...
	$(GO) test -count=1 -cpu 1,2,4 -run 'TestGoldenBodies|TestSweepGoldenRows|TestAdaptiveConformance|TestAntitheticConformance|TestAllExperimentsRunQuick' \
		./internal/scenario ./internal/service ./internal/experiments

# Fuzz the /v1/simulate and /v1/index request parsers, the grid
# substitution behind sweeps and the CLI's body rewrites, the state
# snapshot restore (all of a payload or none of it, no running job), the
# body memo (a body sent three times answers as a fresh server answers it
# once), and the client's error-envelope decoder, one -fuzz run per target
# for FUZZTIME each. A crasher is written under the package's
# testdata/fuzz; check it in with the fix, and it joins the seed corpus
# every plain `go test` runs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzParseIndexRequest$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzSetPath$$' -fuzztime $(FUZZTIME) ./pkg/api
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreState$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzRepeatBody$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeError$$' -fuzztime $(FUZZTIME) ./pkg/client

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

# Build and run all nine programs under examples/ and diff each one's stdout
# against its checked-in examples/<name>/stdout.golden. REGEN=1 rewrites
# the goldens.
examples-check:
	./scripts/examples_check.sh

# Build cmd/stochsched, run the full reproduction suite at seed 3 and diff
# its stdout against internal/experiments/testdata/all_seed3.txt: the
# full-size tables, replication counts and columns the quick-suite golden
# never reaches. REGEN=1 rewrites the golden.
suite-check:
	./scripts/suite_check.sh

fmt:
	gofmt -w .

fmt-check:
	@diff=$$(gofmt -l .); if [ -n "$$diff" ]; then \
		echo "gofmt needed on:"; echo "$$diff"; exit 1; fi

vet:
	$(GO) vet ./...

# The CI entry point: identical to what .github/workflows/ci.yml runs.
ci: build vet fmt-check test bench-test race conformance fuzz smoke cluster-smoke docs-check examples-check suite-check bench-check
