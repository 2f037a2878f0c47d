# Developer entry points. Everything is plain `go` underneath; the targets
# only pin the invocations CI and EXPERIMENTS.md reference.

GO ?= go

.PHONY: all build test race vet lint bench bench-smoke bench-e2e fuzz-smoke serve-smoke fabric-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages under the race detector: the mapper's
# evaluation pipeline, the memoization cache, the shared worker budget, the
# parallel consumers, the HTTP service, and the sharded search fabric.
race:
	$(GO) test -race ./internal/mapper ./internal/memo ./internal/par ./internal/network ./internal/serve ./internal/fabric

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is not vendored and the target
# degrades to a notice when the binary is absent, so `make lint` is safe on
# a bare checkout; CI installs it and gets the real check.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Search & model benchmarks with allocation stats, appended to the JSON
# history in BENCH_mapper.json keyed by git SHA + date (see cmd/benchjson).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMapperSearch|BenchmarkMapperSearchEnergy|BenchmarkMapperSearchEDP|BenchmarkModelThroughput|BenchmarkNetworkEval|BenchmarkGenerateOnly|BenchmarkServe|BenchmarkScoreBatch|BenchmarkFabric|BenchmarkTransformer|BenchmarkUnionMixedSpans|BenchmarkAssignBounds' \
		-benchmem -benchtime=2s . ./internal/periodic ./internal/mapper ./internal/serve ./internal/fabric | tee /dev/stderr | $(GO) run ./cmd/benchjson -compare BENCH_mapper.json -out BENCH_mapper.json

# Two passes. First, one iteration of every benchmark in the repo (the
# batch-scoring benchmarks included): CI runs this so a
# benchmark that stops compiling or starts failing is caught on the PR, and
# the cmd/benchjson parser is exercised end to end; its -compare delta
# report against the checked-in BENCH_mapper.json is informational ONLY —
# single-iteration timings include one-time cold-start costs (empty memo
# caches, unwarmed evaluator scratch) that put them hundreds of times over
# the multi-iteration history for the caching benchmarks, so they must
# never gate. Second, the core memo-free benchmarks (and the walk alone,
# ./internal/mapper's BenchmarkGenerateOnly) re-measured with real
# iteration counts, gated by -threshold: a > 400% ns/op regression against
# the history fails CI. The bound is far above runner noise on purpose —
# the gate is for catastrophic regressions, not jitter. No history entry is
# written by either pass.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./... | $(GO) run ./cmd/benchjson -compare BENCH_mapper.json > /dev/null
	$(GO) test -run '^$$' -bench '^(BenchmarkMapperSearch|BenchmarkMapperSearchEnergy|BenchmarkMapperSearchEDP|BenchmarkModelThroughput|BenchmarkScoreBatch|BenchmarkGenerateOnly)$$' -benchmem -benchtime=0.5s . ./internal/mapper \
		| $(GO) run ./cmd/benchjson -compare BENCH_mapper.json -threshold 400 > /dev/null

# The end-to-end servemodel benchmark, once per workload BENCHMARK.json
# names, printing each run's end-to-end metrics. It only calls
# e2ebench/run.sh (which builds into .bench_build/); see e2ebench/README.md.
BENCH_WORKLOADS = $(shell awk '/"workloads"/{w=1} w&&/"name"/{gsub(/[",]/,"",$$2); print $$2} w&&/^  \]/{exit}' BENCHMARK.json)

bench-e2e:
	@for w in $(BENCH_WORKLOADS); do \
		echo "== $$w"; \
		bash e2ebench/run.sh --workload $$w --trace 0 || exit 1; \
	done

# Every native fuzz target in the module for 10 s, one target per
# invocation (go test -fuzz accepts a single target). A failing input is
# written under the package's testdata/fuzz, ready to commit as a
# regression case.
fuzz-smoke:
	@grep -rHo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' --exclude-dir=e2ebench . | \
	while IFS=: read -r file fn; do \
		pkg=./$$(dirname $${file#./}); fn=$${fn#func }; \
		echo "== $$pkg $$fn"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime=10s $$pkg || exit 1; \
	done

# Black-box smoke test of the HTTP daemon: build cmd/servemodel, serve on a
# loopback port, run a search + cache-hit + malformed-request sequence over
# curl, and verify SIGTERM shuts it down gracefully.
serve-smoke:
	bash scripts/serve_smoke.sh

# Black-box smoke test of the sharded search fabric: two servemodel nodes on
# loopback ports, a fanned-out latmodel search that must match the local
# byte-for-byte, shard-counter metrics, and error-path checks.
fabric-smoke:
	bash scripts/fabric_smoke.sh

clean:
	rm -f benchjson-*.tmp
