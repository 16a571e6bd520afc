GO ?= go

.PHONY: build vet test race fuzz bce bench-json bench-smoke soak soak-smoke fleet-smoke fleet-bench trace-smoke ispstream-smoke lint check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the packages with concurrency: the UDP transport + chaos
# harness, the batched kernels, the model core, the sharded engine, the
# parallel ingest pipeline, the telemetry registry, and the root-package
# integration tests.
race:
	$(GO) test -race ./internal/netflow ./internal/nn ./internal/core ./internal/engine ./internal/ingest ./internal/cluster ./internal/telemetry ./internal/trace .

# The float32 serving kernels (quantized panel matmuls, gate
# nonlinearities, widen/narrow) and the batched training kernels (tape
# forward/backward, gradient matmuls, sparse input projection) must compile
# with zero per-element bounds checks: these files are the inner loops of
# every online detection step and every training step. The compiler's
# check_bce debug pass prints every check it could not prove away; any
# `Found IsInBounds` in the named kernel files fails the build. One-time
# slice-header constructions (IsSliceInBounds, O(1) per kernel call) are
# setup cost, not inner-loop cost, and are not gated. Load-time
# quantization (quantize32.go), the dynamic-index gather/scatter loops of
# the batch runners, and the once-per-chunk strided transposes
# (nn/transpose.go) are deliberately excluded.
BCE_KERNELS := internal/nn/f32.go internal/nn/panel32.go internal/nn/lstm32.go \
	internal/nn/batchgrad.go internal/nn/batchtape.go internal/nn/sparsetrain.go
bce:
	@out=$$($(GO) build -gcflags='-d=ssa/check_bce' ./internal/nn/ ./internal/core/ 2>&1 \
		| grep 'Found IsInBounds' \
		| grep -E 'nn/f32\.go|nn/panel32\.go|nn/lstm32\.go|nn/batchgrad\.go|nn/batchtape\.go|nn/sparsetrain\.go' || true); \
	if [ -n "$$out" ]; then \
		echo "bounds checks in hot kernels ($(BCE_KERNELS)):"; \
		echo "$$out"; exit 1; \
	fi; \
	echo "bce: hot serving and training kernels are bounds-check-free"

# Static analysis: vet + gofmt always; staticcheck when installed (CI
# installs it, local machines may not have it).
lint: vet
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

# Benchmarks rendered as committed JSON baselines: engine sharding
# throughput (BENCH_engine.json), the inference hot path — LSTM step
# kernels, Stream.Push, BatchRunner.Push — (BENCH_nn.json), and the
# training path — scalar-baseline vs batched Fit, batched LSTM
# forward/backward — (BENCH_train.json). Each records ns/op, allocs/op and
# steps/sec or examples/sec so regressions show up in review.
bench-json:
	$(GO) test ./internal/engine -run '^$$' -bench 'BenchmarkEngineShards' | $(GO) run ./cmd/benchjson > BENCH_engine.json
	@cat BENCH_engine.json
	$(GO) test ./internal/nn ./internal/core -run '^$$' -bench 'BenchmarkLSTMStep|BenchmarkStreamPush|BenchmarkBatchRunnerPush' | $(GO) run ./cmd/benchjson > BENCH_nn.json
	@cat BENCH_nn.json
	$(GO) test ./internal/ingest -run '^$$' -bench 'BenchmarkIngestE2E|BenchmarkDecodeV5Into|BenchmarkAggregatorAdd|BenchmarkExtractInto' -benchtime 2s | $(GO) run ./cmd/benchjson > BENCH_ingest.json
	@cat BENCH_ingest.json
	$(GO) test ./internal/nn ./internal/core -run '^$$' -bench 'BenchmarkFit|BenchmarkLSTMForwardBatch|BenchmarkLSTMBackwardBatch|BenchmarkLSTMBackwardScalar' -benchtime 2s | $(GO) run ./cmd/benchjson > BENCH_train.json
	@cat BENCH_train.json

# One-iteration pass over every benchmark: catches benchmarks that no
# longer compile or crash without paying for real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Phased-chaos soak over the real UDP serving path. `soak` is the full
# 14-day run that regenerates the committed BENCH_soak.json (loss, dup,
# reorder ramps, panics on every shard, a mid-run incremental
# checkpoint/restore, a forced degradation window). `soak-smoke` is the
# CI gate: a 2-simulated-day world, one 10% loss ramp and one injected
# shard panic, asserting automatic recovery and detection-delay parity
# with a fault-free baseline.
soak:
	$(GO) run ./cmd/xatu-soak -days 14 -assert -out BENCH_soak.json

soak-smoke:
	$(GO) run ./cmd/xatu-soak -smoke -assert -out /tmp/BENCH_soak_smoke.json

# Distributed serving acceptance: coordinator + engine-node fleet with a
# table-following ingest router, replayed at 1/2/4 nodes with a live
# mid-run join, a forced rebalance, and a node kill + rejoin under the
# same ID. `fleet-smoke` is the CI gate (2-day world) asserting
# cluster-wide alert-set parity against the 1-node baseline;
# `fleet-bench` is the fuller run that regenerates the committed
# BENCH_cluster.json (records/s and migration pause at each size).
fleet-smoke:
	$(GO) run ./cmd/xatu-fleet -smoke -assert > /dev/null

fleet-bench:
	$(GO) run ./cmd/xatu-fleet -days 6 -assert | $(GO) run ./cmd/benchjson > BENCH_cluster.json
	@cat BENCH_cluster.json

# Observability acceptance: the 2-node fleet run with 1-in-64 flow
# tracing must yield coordinator-assembled cross-node timelines
# (export→seal→step on the nodes joined with the coordinator's fan-in
# span), and a controlled exporter→ingest replay (the BENCH_ingest hot
# path, in-process) must hold tracing-on throughput within 5% of
# tracing-off (median of paired off/on runs).
trace-smoke:
	$(GO) run ./cmd/xatu-fleet -smoke -assert -trace 64 > /dev/null

# Live serving acceptance: train a small model, stream a test attack
# window over a real UDP socket through the ingest pipeline into a sharded
# engine, and fail unless the window raises at least one alert.
ispstream-smoke:
	$(GO) run ./examples/ispstream > /dev/null

# Short fuzz pass over the wire codec and journal (CI smoke; run longer
# locally with -fuzztime as needed).
fuzz:
	$(GO) test ./internal/netflow -run '^$$' -fuzz FuzzDecodeV5 -fuzztime 10s
	$(GO) test ./internal/netflow -run '^$$' -fuzz FuzzJournalRoundTrip -fuzztime 10s

check: build lint bce test race fleet-smoke trace-smoke ispstream-smoke
