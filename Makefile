# Developer entry points. `make verify` is the full pre-commit gate:
# tier-1 (build + test) plus vet, alexlint, and the race detector.

GO ?= go

.PHONY: all build test race vet lint verify fmt fmt-check bench bench-cpus bench-space bench-query bench-fleet bench-store fleet-smoke fleet-chaos clean

all: verify

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint builds and runs alexlint, the ALEX invariant analyzer suite
# (internal/analysis). Also usable as `go vet -vettool=bin/alexlint`.
# The wall-clock budget guards the two-phase loader: the repo-wide
# typecheck + fact fixpoint must stay interactive, or the gate stops
# being run before commits.
lint:
	@start=$$(date +%s) && \
	$(GO) build -o bin/alexlint ./cmd/alexlint && \
	./bin/alexlint ./... && \
	elapsed=$$(( $$(date +%s) - start )) && \
	echo "lint: clean in $${elapsed}s (budget 60s)" && \
	if [ $$elapsed -ge 60 ]; then \
		echo "lint: FAIL: $${elapsed}s exceeds the 60s budget" >&2; exit 1; fi

verify: build vet lint test race
	@echo "verify: OK"

fmt:
	gofmt -l -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench: bench-space bench-query
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# BENCH_CPUS is the -cpu list of the scaling benchmarks: powers of two
# below the core count, then the core count itself. Rows past nproc
# would measure oversubscription, not scaling.
BENCH_CPUS ?= $(shell n=$$(nproc 2>/dev/null || echo 1); l=1; c=2; \
	while [ $$c -lt $$n ]; do l=$$l,$$c; c=$$((c*2)); done; \
	if [ $$n -gt 1 ]; then l=$$l,$$n; fi; echo $$l)

bench-cpus:
	@echo $(BENCH_CPUS)

# bench-space runs the feature-space construction benchmarks — the
# similarity join on the largest synth profile (-cpu rows are the
# parallel speedup curve) and core.New on dbpedia-nytimes with its 9
# partitions — and records the results as BENCH_space.json via
# cmd/benchjson.
bench-space:
	$(GO) test -run '^$$' -bench '^(BenchmarkSpaceBuild|BenchmarkCoreNew)$$' -benchmem \
		-cpu=$(BENCH_CPUS) ./internal/feature ./internal/core | \
		$(GO) run ./cmd/benchjson -out BENCH_space.json

# bench-query runs the federated query read-path benchmarks: the
# legacy serial evaluator vs the fast path with cold and pre-warmed
# plan caches, plus static vs adaptive execution on the skewed-hub
# profile, across -cpu worker counts. Results land in BENCH_query.json
# (with delta_vs_prev against the previous run's file).
bench-query:
	$(GO) test -run '^$$' -bench '^(BenchmarkFederatedQuery|BenchmarkAdaptiveQuery)$$' -benchmem \
		-cpu=$(BENCH_CPUS) ./internal/federation | \
		$(GO) run ./cmd/benchjson -out BENCH_query.json

# bench-store runs the segment-store lifecycle benchmark at the
# largest synth profile: segment build, mmap'd full scan, the O(delta)
# disk checkpoint vs the mem backend's full serialization (acceptance:
# >=10x faster), and mmap cold start vs N-Triples re-parse (acceptance:
# faster). Results land in BENCH_store.json (delta_vs_prev against the
# previous run).
bench-store:
	$(GO) test -run '^$$' -bench '^BenchmarkSegmentStore$$' -benchmem \
		./internal/store | \
		$(GO) run ./cmd/benchjson -out BENCH_store.json

# bench-fleet runs the sharded-fleet scatter-gather benchmark: router
# query throughput over 1, 2 and 4 alexd shards with simulated
# I/O-bound sources. Acceptance is queries/s growing with the shard
# count; results land in BENCH_fleet.json.
bench-fleet:
	$(GO) test -run '^$$' -bench '^BenchmarkFleetQuery$$' -benchmem \
		-benchtime=200x ./internal/fleet | \
		$(GO) run ./cmd/benchjson -out BENCH_fleet.json

# fleet-smoke boots 3 alexd shards plus an alexrouter out-of-process,
# queries through the router, kills one shard, asserts
# degraded-but-correct serving, restarts it and asserts recovery.
fleet-smoke:
	./scripts/fleet_smoke.sh

# fleet-chaos is the seeded chaos drill: 3 shards behind faultnetd
# proxies (latency, drops, 5xx, partition) plus a SIGKILL'd shard;
# asserts zero acked-feedback loss and answer identity vs single-node.
fleet-chaos:
	./scripts/fleet_chaos.sh

clean:
	$(GO) clean ./...
	rm -rf bin
