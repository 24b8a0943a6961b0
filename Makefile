# Q-BEEP build / verification targets. `make ci` is what a pipeline runs.

GO ?= go

.PHONY: all build vet lint gcfacts test race bench-smoke bench-core bench-sim bench-gate bench-record fuzz-smoke obs-smoke quality-gate quality-baseline loc ci

# Extra worker counts the determinism tests sweep on top of their
# built-in {1, 4, GOMAXPROCS} matrix. Comma-separated. The matrix
# helper is replicated per kernel package as workerMatrix in
# internal/core/equivalence_test.go, internal/statevector/kernels_test.go,
# internal/densitymatrix/workers_test.go, and
# internal/noise/trajectory_determinism_test.go.
QBEEP_TEST_WORKERS ?= 2,3,7,16

all: build

build:
	$(GO) build ./...

# vet = go vet + gofmt drift check (fails listing any unformatted file).
vet:
	$(GO) vet ./...
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

# lint = the qbeep-lint multichecker (internal/analysis, DESIGN.md §9)
# plus the gcfacts compiler-fact gate (DESIGN.md §15): nodeterm, nogo,
# spanend, floatcmp, ctxflow, poolsafe, directive over every package,
# then escape/inline fact enforcement for //qbeep:allocfree /
# //qbeep:noescape / //qbeep:mustinline annotations. Exits non-zero on
# any finding; suppress deliberate sites with //qbeep:allow-<check>.
# Wall time is printed so lint-cost regressions show up in CI logs.
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/qbeep-lint ./... || exit 1; \
	echo "lint: $$(( $$(date +%s) - start ))s"

# gcfacts alone (the compile-heavy half of lint): used by the standalone
# CI job that is required on main but warn-only on pull requests.
gcfacts:
	$(GO) run ./cmd/qbeep-lint -only gcfacts ./...

test:
	$(GO) test ./...

# race covers the packages with real concurrency or lock-cheap atomics:
# the obs registry/sinks, the parallel fan-out, the mitigation core, the
# sharded simulation kernels (statevector, density matrix, trajectory
# sampler) — with the widened worker-count matrix so deterministic merges
# and amplitude shards are raced under uneven fan-outs too — plus the
# experiment runners and the transpiler, whose figure pipelines fan out
# through par, and the device catalog and the root package, whose
# once-built backends every par worker shares.
race:
	QBEEP_TEST_WORKERS=$(QBEEP_TEST_WORKERS) $(GO) test -race ./internal/obs ./internal/par ./internal/core ./internal/statevector ./internal/densitymatrix ./internal/noise ./internal/experiments ./internal/transpile ./internal/device .

# bench-smoke: one short pass over the mitigation hot path to catch
# gross regressions (the observability layer must stay ~free when off).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkMitigateThroughput' -benchtime 1x .

# bench-core: the state-graph engine microbenchmarks (build vs the
# brute-force reference, allocation-free Step, edge vs Walsh–Hadamard
# Step on a dense graph) plus the par dispatch bench. BENCH_core.json holds the recorded baseline.
bench-core:
	$(GO) test -run '^$$' -bench 'StateGraph|BenchmarkMitigate$$' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'ForEachTinyTasks' -benchmem ./internal/par

# bench-sim: the simulation kernel engine — fused vs unfused vs the
# retained naiveApply oracle on the 14-qubit QAOA workload, the zero-copy
# probability path, the density-matrix hot loops, and the parallel
# trajectory sampler. BENCH_sim.json holds the recorded baseline.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkRun$$|BenchmarkRunProgram$$|BenchmarkRunUnfused$$|BenchmarkNaiveRun$$|BenchmarkProbabilitiesInto$$' -benchmem ./internal/statevector
	$(GO) test -run '^$$' -bench 'BenchmarkDensityEvolve$$' -benchmem ./internal/densitymatrix
	$(GO) test -run '^$$' -bench 'BenchmarkTrajectory$$|BenchmarkTrajectoryPerGate$$' -benchmem ./internal/noise

# bench-gate: the regression gate. cmd/qbeep-bench runs both suites at a
# short benchtime and recomputes the derived ratio invariants
# (fused/naive, engine/brute, zero-alloc hot loops) against the
# BENCH_*.json baselines; a ratio collapsing past the threshold fails
# the target. Ratios cancel machine speed, so the short benchtime and
# shared runners stay inside the 25% default threshold. Trajectory
# recording is disabled here — CI working trees should not dirty the
# checked-in BENCH_trajectory.json.
bench-gate:
	$(GO) run ./cmd/qbeep-bench -suites core,sim -compare -trajectory '' -benchtime 100ms -commit "$$(git rev-parse --short HEAD)"

# bench-record: refresh BENCH_trajectory.json with one row per suite at
# the current commit (idempotent: re-running replaces the rows).
bench-record:
	$(GO) run ./cmd/qbeep-bench -suites core,sim -commit "$$(git rev-parse --short HEAD)"

# fuzz-smoke: a few seconds on each native fuzz target — enough to
# re-check the seed corpus plus a short random walk on every commit.
# Longer fuzzing sessions run the same targets with a bigger -fuzztime.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/qasm
	$(GO) test -run '^$$' -fuzz '^FuzzParseQASM$$' -fuzztime 5s ./internal/qasm
	$(GO) test -run '^$$' -fuzz '^FuzzDistFromCounts$$' -fuzztime 5s ./internal/bitstring
	$(GO) test -run '^$$' -fuzz '^FuzzCompileReplay$$' -fuzztime 5s ./internal/statevector
	$(GO) test -run '^$$' -fuzz '^FuzzMitigate$$' -fuzztime 5s ./internal/core

# obs-smoke: end-to-end observability check. The built qbeep-trace
# analyzes the golden pipeline fixture (aggregate table, critical path,
# Chrome export), scripts/obssmoke scrapes /healthz and /metrics from a
# throwaway debug server on an ephemeral port, and a traced figure run
# must come out as one span tree joined to its run-ledger records.
obs-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/qbeep-trace ./cmd/qbeep-trace; \
	$$tmp/qbeep-trace internal/tracefile/testdata/pipeline.ndjson | tee $$tmp/report.txt; \
	grep -q 'critical path (trace 1' $$tmp/report.txt; \
	grep -q 'qbeep.pipeline' $$tmp/report.txt; \
	$$tmp/qbeep-trace -chrome -o $$tmp/trace.json internal/tracefile/testdata/pipeline.ndjson; \
	grep -q 'traceEvents' $$tmp/trace.json; \
	$$tmp/qbeep-trace -hotspots internal/tracefile/testdata/resource.ndjson | tee $$tmp/hotspots.txt; \
	grep -q 'hotspots by self-CPU' $$tmp/hotspots.txt; \
	grep -q 'hotspots by self-allocations' $$tmp/hotspots.txt; \
	grep -q 'adaptive early exit: 17 flow iterations saved' $$tmp/hotspots.txt; \
	$(GO) run ./scripts/obssmoke; \
	$(GO) test -count=1 -run '^TestTracedFigureIsOneTree$$' ./internal/experiments

# quality-gate: the mitigation-quality regression gate (DESIGN.md §16).
# A small deterministic slice of the Fig. 7 experiment runs with
# -run-ledger, then cmd/qbeep-ledger compares the per-backend quality
# means (λ, Hellinger shift, fidelity, PST) against the pinned
# QUALITY_baseline.json. Unlike bench-gate's wall-clock ratios, every
# gated metric is a seed-deterministic model output, so any delta is a
# real behavioral change, not machine noise.
quality-gate:
	@set -e; rm -rf .quality-gate; mkdir -p .quality-gate; \
	$(GO) run ./cmd/qbeep-experiments -fig 7 -scale 0.05 -shots 1024 \
		-run-ledger .quality-gate/runs.ndjson -trace .quality-gate/trace.ndjson > .quality-gate/stdout.txt; \
	$(GO) run ./cmd/qbeep-ledger -gate -baseline QUALITY_baseline.json .quality-gate/runs.ndjson

# quality-baseline: regenerate QUALITY_baseline.json from the same
# workload. Run after a deliberate quality-affecting change, inspect the
# diff, and commit the result alongside the change that moved it.
quality-baseline:
	@set -e; rm -rf .quality-gate; mkdir -p .quality-gate; \
	$(GO) run ./cmd/qbeep-experiments -fig 7 -scale 0.05 -shots 1024 -run-ledger .quality-gate/runs.ndjson > .quality-gate/stdout.txt; \
	$(GO) run ./cmd/qbeep-ledger -write-baseline QUALITY_baseline.json -commit "$$(git rev-parse --short HEAD)" .quality-gate/runs.ndjson

# loc: the footprint figure CHANGES.md records per change — lines of
# tracked non-test Go, i.e. every `git ls-files '*.go'` path except
# _test.go files and testdata/ fixtures.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v 'testdata/' | xargs cat | wc -l

ci: vet lint test race bench-smoke obs-smoke bench-gate quality-gate
