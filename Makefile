# Flux build and verification entry points.
#
#   make verify      vet + fluxvet + build + full test suite (tier-1 gate;
#                    vet and fluxvet findings fail the build)
#   make lint        fluxvet alone: decorator-spec analysis (layer 1) plus
#                    the repo source invariants (layer 3)
#   make race        -race pass over the concurrency-sensitive packages
#   make bench       hot-path microbenchmarks + matrix scaling benchmarks
#   make bench-pipeline  parallel-marshal / chunking / streamed-link /
#                    rsyncx benchmarks plus the streamed-vs-sequential matrix
#   make bench-faults  fault matrix: recovery rate and overhead at the
#                    headline (15%) and hostile (75%) chunk fault rates
#   make bench-commuter  delta-migration commuter scenario: 8 round trips
#                    per pair at 10% dirty rate, writes BENCH_commuter.json
#   make results     regenerate every figure and write BENCH_results.json
#   make lab         run the committed smoke spec through fluxlab and diff
#                    the fresh report against the committed trajectory
#   make fleet       fleet engine gate: package benchmarks (events/sec,
#                    allocs), the smoke report diffed byte-for-byte against
#                    BENCH_fleet.json, and the 10k-device scale spec at two
#                    profiling widths
#   make profile     CPU+heap profiles of the fleet scale run and the full
#                    fluxbench evaluation (writes *.pprof)
#   make trace-demo  run one telemetry-enabled migration and write a
#                    sample Chrome trace (trace-demo.json) + stage report
#   make log-verify  seglog smoke: record a log, verify its hash chain
#                    and anchor, flip one bit, assert detection
#   make perf        host-time benchmark (perfbench): the four workloads
#                    of BENCHMARK.json, each gated on its virtual outputs

GO ?= go

.PHONY: all verify vet lint build test race bench bench-pipeline bench-faults bench-commuter results lab fleet profile trace-demo log-verify perf clean

all: verify

verify: vet lint build test

vet:
	$(GO) vet ./...

# Replay-safety static analysis (DESIGN.md §5f, §5k): decorator-spec
# checks over the shipped AIDL catalog plus the layer-3 pass driver's
# parallel source analyses (wallclock, determinism-taint, maprange,
# lock-order, durability, wire-drift), with per-pass wall time on
# stderr. `fluxvet -logs run.flxl -image app.cria` lints a persisted
# record log offline; see cmd/fluxvet.
lint:
	$(GO) run ./cmd/fluxvet -layers spec,src -timings

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages with lock-free/sharded hot paths and the parallel matrix
# driver. Keep this green: the sharded record log, the worker-pool
# evaluation driver, the telemetry ring/registry, the span-instrumented
# migration pipeline (including its fault-recovery retry paths), the
# concurrent fault injector, the parallel image marshaller, and the
# memoized sync trees, the mutex-guarded chunk store, and the
# process-wide tables every device shares (the /system trees and the
# replay registry) are only correct if they are race-clean.
race:
	$(GO) test -race ./internal/record/ ./internal/experiments/ ./internal/binder/ ./internal/obs/ ./internal/migration/ ./internal/cria/ ./internal/netsim/ ./internal/rsyncx/ ./internal/faults/ ./internal/chunkstore/ ./internal/lab/ ./internal/fleet/ ./internal/seglog/ ./internal/device/ ./internal/pairing/ ./internal/replay/

bench:
	$(GO) test -bench=. -benchmem ./internal/record/
	$(GO) test -bench=. -benchmem ./internal/obs/
	$(GO) test -bench='BenchmarkMatrixWorkers' -benchmem .

# The streaming-pipeline hot paths: parallel FXC2 marshal (run with
# -cpu 1,4 on multi-core hosts to see the worker-pool scaling), unmarshal,
# memoized WireBytes, chunk partitioning, streamed link scheduling, and
# the rsyncx plan builder — then the streamed-vs-sequential matrix itself.
bench-pipeline:
	$(GO) test -bench='BenchmarkImage' -benchmem ./internal/cria/
	$(GO) test -bench=. -benchmem ./internal/netsim/
	$(GO) test -bench='BenchmarkBuildPlan' -benchmem ./internal/rsyncx/
	$(GO) run ./cmd/fluxbench -pipeline -json ""

# The fault matrix twice over: the headline model (15% chunk faults,
# ≤1 link flap per migration — the ≥99% recovery acceptance bar) and a
# hostile 75% rate that exercises rollback-to-home at scale.
bench-faults:
	$(GO) run ./cmd/fluxbench -faults -fault-rate 0.15 -json ""
	$(GO) run ./cmd/fluxbench -faults -fault-rate 0.75 -json ""

# The commuter scenario behind the delta-migration acceptance bar: K=8
# round trips per device pair with 10% of the heap dirtied between hops;
# hops 2+ must ship at most 25% of hop 1's bytes.
bench-commuter:
	$(GO) run ./cmd/fluxbench -commuter -json BENCH_commuter.json

results:
	$(GO) run ./cmd/fluxbench -all -json BENCH_results.json

# The experiment platform's smoke spec: a deterministic sweep (same seed
# + spec is byte-identical at any -workers width), recorded into a fresh
# trajectory and diffed against the committed BENCH_trajectory.json. Any
# stage timing, byte counter, signal, or calibration metric regressing
# beyond the tolerance fails the target.
lab:
	$(GO) run ./cmd/fluxlab run -q -record /tmp/flux-lab-smoke.json lab/specs/smoke.yaml > /dev/null
	$(GO) run ./cmd/fluxlab diff BENCH_trajectory.json /tmp/flux-lab-smoke.json

# The fleet discrete-event engine gate: hot-path benchmarks (≥1M
# simulated events/sec, 0 allocs/op steady state), the smoke workload
# diffed byte-for-byte against the committed baseline, and the
# 10k-device / 50k-migration scale spec at two profiling widths (the
# reports must be identical — determinism is structural).
fleet:
	$(GO) test -bench='BenchmarkFleet' -benchmem -run TestRunSteadyStateAllocs ./internal/fleet/
	$(GO) run ./cmd/fluxfleet -spec fleet/specs/smoke.yaml -v -check BENCH_fleet.json > /dev/null
	$(GO) run ./cmd/fluxfleet -spec fleet/specs/scale-10k.yaml -v -workers 1 > /tmp/flux-fleet-w1.json
	$(GO) run ./cmd/fluxfleet -spec fleet/specs/scale-10k.yaml -v -workers 16 > /tmp/flux-fleet-w16.json
	cmp /tmp/flux-fleet-w1.json /tmp/flux-fleet-w16.json

# Profiles of the two heaviest drivers: the fleet scale run and the
# full evaluation. Inspect with `go tool pprof fleet-cpu.pprof`.
profile:
	$(GO) run ./cmd/fluxfleet -spec fleet/specs/scale-10k.yaml -cpuprofile fleet-cpu.pprof -memprofile fleet-mem.pprof > /dev/null
	$(GO) run ./cmd/fluxbench -all -json "" -cpuprofile bench-cpu.pprof -memprofile bench-mem.pprof > /dev/null

# One migration with full telemetry: flamegraph-style stage breakdown on
# stdout, Chrome trace-event JSON (chrome://tracing / ui.perfetto.dev)
# in trace-demo.json.
trace-demo:
	$(GO) run ./cmd/fluxstat -app com.king.candycrushsaga -trace trace-demo.json

# The tamper-evidence smoke (DESIGN.md §5j): record a real workload's
# log to disk, verify the full hash chain + anchor, then flip a single
# bit and assert -verify refuses the file. Detection, never wrong replay.
log-verify:
	$(GO) run ./cmd/fluxtrace -app com.whatsapp -o /tmp/flux-log-verify.flxg > /dev/null
	$(GO) run ./cmd/fluxtrace -verify /tmp/flux-log-verify.flxg
	$(GO) run ./cmd/fluxtrace -tamper /tmp/flux-log-verify.flxg
	! $(GO) run ./cmd/fluxtrace -verify /tmp/flux-log-verify.flxg

# The host-time benchmark declared in BENCHMARK.json, one workload after
# another at perfbench's default window. Each run prints its end-to-end
# metrics; the target fails if a run reports "correct":false, meaning some
# op's virtual outputs diverged from perfbench/refs.json. See
# perfbench/README.md for the flags (--seed, --seconds, --trace).
PERF_WORKLOADS = matrix commuter fleet appexec
perf:
	@mkdir -p .bench_build
	@for w in $(PERF_WORKLOADS); do \
		bash perfbench/run.sh --workload $$w > .bench_build/perf-$$w.txt || exit 1; \
		cat .bench_build/perf-$$w.txt; \
		tail -n 1 .bench_build/perf-$$w.txt | grep -q '"correct":true' || { echo "perf: $$w: virtual outputs diverged"; exit 1; }; \
	done

clean:
	rm -f BENCH_results.json BENCH_commuter.json trace-demo.json *.pprof
