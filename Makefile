# Developer entry points. CI runs `make ci`.

GO ?= go

.PHONY: all build test vet fmt lint lint-smoke lint-sarif race stream-check streamd check ci bench bench-sim bench-smoke bench-query bench-query-smoke bench-whatif perfbench-smoke optimize-smoke federate-smoke scenario-smoke bench-report clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails (listing the files) when anything needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs reprolint, the repository's own static-analysis suite
# (see internal/lint): five per-package analyzers (determinism, unit
# safety, float comparison, error wrapping, lock/goroutine hygiene) plus
# four whole-program call-graph analyzers (detreach, allocfree, ctxflow,
# leakcheck).
lint:
	$(GO) run ./cmd/reprolint ./...

# lint-smoke runs only the whole-program call-graph analyzers — the
# expensive cross-package half of the suite — as a fast standalone gate.
lint-smoke:
	$(GO) run ./cmd/reprolint -analyzers detreach,allocfree,ctxflow,leakcheck ./...

# lint-sarif writes the full suite's findings as SARIF 2.1.0 (the format CI
# uploads as an artifact). Exit code still reflects violations.
lint-sarif:
	$(GO) run ./cmd/reprolint -sarif ./... > reprolint.sarif

# race runs every package under the race detector; the heavyweight
# simulation tests are trimmed so this stays bounded.
race:
	$(GO) test -race ./...

# stream-check gates the live streaming-analysis plane: the batch/stream
# parity test plus the full internal/stream suite under the race detector
# (backpressure, stalled-consumer shedding, graceful shutdown).
stream-check:
	$(GO) test -race -run TestBatchStreamParity ./internal/stream
	$(GO) test -race ./internal/stream

# streamd runs the live service against an embedded simulated feed; query
# it at http://127.0.0.1:8090/api/v1/live/rollup while it runs.
streamd:
	$(GO) run ./cmd/streamd -sim-minutes 30

# check is the full gate: compile, format, vet, lint, unit tests, then the
# race detector.
check: build fmt vet lint test stream-check race

# ci mirrors .github/workflows/ci.yml.
ci: fmt vet lint build test stream-check race

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-sim runs the simulator benchmarks and records the results in
# BENCH_sim.json under the given LABEL (default post-optimization), next to
# the tracked pre-PR baseline. See the README's Performance section.
LABEL ?= post-optimization
bench-sim:
	$(GO) test -run xxx -bench 'BenchmarkSim' -benchmem -count 3 . | \
		$(GO) run ./cmd/benchjson -out BENCH_sim.json -label $(LABEL)

# bench-smoke is the CI guard: one iteration of each simulator benchmark,
# so the hot path and the benchmark harness itself stay buildable and
# runnable without CI paying for a real measurement.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkSim' -benchmem -benchtime 1x .

# bench-query records the query-engine benchmarks (cold decode, cached,
# iterator-aggregate, pre-aggregate) in BENCH_query.json twice: once with
# the engine pinned to the decode-everything path ("materialized", the
# pre-optimization baseline) and once on the default vectorized read path
# ("vectorized"). The report then renders both labels side by side.
bench-query:
	QUERYBENCH_MODE=materialized $(GO) test -run xxx -bench 'BenchmarkQuery' -benchmem -count 3 . | \
		$(GO) run ./cmd/benchjson -out BENCH_query.json -label materialized
	$(GO) test -run xxx -bench 'BenchmarkQuery' -benchmem -count 3 . | \
		$(GO) run ./cmd/benchjson -out BENCH_query.json -label vectorized

# bench-query-smoke is the CI guard: one iteration of each query benchmark
# in both scan modes, plus a parse check of the tracked BENCH_query.json.
bench-query-smoke:
	QUERYBENCH_MODE=materialized $(GO) test -run xxx -bench 'BenchmarkQuery' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkQuery' -benchmem -benchtime 1x .
	$(GO) run ./cmd/benchjson -report - BENCH_query.json >/dev/null

# bench-whatif measures what-if scenario-evaluation throughput (runs/sec)
# and records it in BENCH_whatif.json under LABEL.
bench-whatif:
	$(GO) test -run xxx -bench 'BenchmarkWhatifBatch' -benchmem -count 3 ./internal/whatif | \
		$(GO) run ./cmd/benchjson -out BENCH_whatif.json -label $(LABEL)

# perfbench-smoke is the CI guard for the repository benchmark (perfbench/):
# every workload at its tiny size for a couple of seconds, so the harness,
# its output checks and the layers it drives stay buildable and correct.
perfbench-smoke:
	bash perfbench/run.sh --workload all --size tiny --seconds 2

# optimize-smoke is the CI guard for the what-if control plane: a short
# catalog sweep run twice at different worker counts must produce
# byte-identical sweep logs (the bit-reproducibility contract).
optimize-smoke:
	$(GO) build -o /tmp/optimize-smoke ./cmd/optimize
	/tmp/optimize-smoke -list
	/tmp/optimize-smoke -study heatwave-setpoint -strategy grid -workers 1 -out /tmp/whatif-w1.json
	/tmp/optimize-smoke -study heatwave-setpoint -strategy grid -workers 4 -out /tmp/whatif-w4.json
	cmp /tmp/whatif-w1.json /tmp/whatif-w4.json
	rm -f /tmp/optimize-smoke /tmp/whatif-w1.json /tmp/whatif-w4.json

# federate-smoke gates the federated query plane: the golden N-shard
# bit-parity test under the race detector, then an end-to-end check that a
# 2-cluster fleet analyzed through a 2-shard federated source is
# byte-identical to the direct read.
federate-smoke:
	$(GO) test -race -run 'TestFederatedParity|TestFederatedPartialDegradation' ./internal/source
	$(GO) build -o /tmp/fedsmoke-summitsim ./cmd/summitsim
	$(GO) build -o /tmp/fedsmoke-analyze ./cmd/analyze
	rm -rf /tmp/fedsmoke-fleet
	/tmp/fedsmoke-summitsim -out /tmp/fedsmoke-fleet -clusters 2 -sites summit,frontier -nodes 36 -days 1 -q
	/tmp/fedsmoke-analyze -data /tmp/fedsmoke-fleet -cluster summit-0 > /tmp/fedsmoke-direct.txt
	/tmp/fedsmoke-analyze -data /tmp/fedsmoke-fleet -cluster summit-0 -shards 2 > /tmp/fedsmoke-sharded.txt
	cmp /tmp/fedsmoke-direct.txt /tmp/fedsmoke-sharded.txt
	rm -rf /tmp/fedsmoke-fleet /tmp/fedsmoke-summitsim /tmp/fedsmoke-analyze /tmp/fedsmoke-direct.txt /tmp/fedsmoke-sharded.txt

# scenario-smoke gates the declarative scenario plane: the full-catalog
# golden regression under the race detector, then an end-to-end check that
# one scenario run at two worker counts archives byte-identical datasets
# and reports (the bit-reproducibility contract).
scenario-smoke:
	$(GO) test -race -run 'TestGoldenCatalogReports|TestRunArchiveParity' ./internal/scenario
	$(GO) build -o /tmp/scnsmoke-scenario ./cmd/scenario
	/tmp/scnsmoke-scenario -list
	rm -rf /tmp/scnsmoke-w1 /tmp/scnsmoke-w4
	/tmp/scnsmoke-scenario -run trace-replay -workers 1 -out /tmp/scnsmoke-w1
	/tmp/scnsmoke-scenario -run trace-replay -workers 4 -out /tmp/scnsmoke-w4
	diff -r /tmp/scnsmoke-w1 /tmp/scnsmoke-w4
	rm -rf /tmp/scnsmoke-scenario /tmp/scnsmoke-w1 /tmp/scnsmoke-w4

# bench-report regenerates the checked-in markdown trend report from every
# BENCH_*.json baseline.
bench-report:
	$(GO) run ./cmd/benchjson -report BENCH_REPORT.md

clean:
	$(GO) clean ./...
