GO ?= go

.PHONY: all build vet test race bench bench-parallel bench-parallel-quick bench-wire bench-wire-quick icebench icebench-quick bench-check flake fuzz gateway-smoke trace-smoke cluster-smoke health-smoke dag-smoke lab-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# Packages whose tests take over 3 s; flake repeats every other package
# twenty times in shuffled order, so an order- or timing-dependent test
# fails here before it fails someone else's build.
SLOW_PKGS = ice/internal/core ice/internal/sched ice/internal/campaign ice/internal/potentiostat ice/internal/microscope

flake:
	$(GO) test -count=20 -shuffle=on $$($(GO) list ./... | grep -vxF $(SLOW_PKGS:%=-e %))

# Full benchmark sweep (figures + ablations + parallelism).
bench:
	$(GO) test -bench=. -benchmem .

# Regenerate BENCH_parallel.json — the fleet/pipelining/ML parallelism record.
bench-parallel:
	$(GO) run ./cmd/benchparallel -o BENCH_parallel.json

# Fast variant for CI smoke: small transfers, single repetitions.
bench-parallel-quick:
	$(GO) run ./cmd/benchparallel -quick -o BENCH_parallel.json

# Regenerate BENCH_wire.json — the v1-vs-v2 framing and streaming-
# analysis record. The thresholds double as the regression gate: v2
# must carry at least 2x the RPC throughput of v1 over the saturated
# control link, and the streamed verdict must land within 10% of the
# acquisition window after instrument release.
bench-wire:
	$(GO) run ./cmd/benchparallel -o '' -wire-o BENCH_wire.json -min-wire-speedup 2 -max-stream-lag 0.1

# Fast variant for CI smoke, with looser thresholds for noisy runners.
bench-wire-quick:
	$(GO) run ./cmd/benchparallel -quick -o '' -wire-o BENCH_wire.json -min-wire-speedup 1.5 -max-stream-lag 0.25

# icebench, the gateway-to-verdict benchmark BENCHMARK.json declares:
# every workload's timed run, traced run and probes; results land in
# bench/out/. bench/README.md says how a change states a claim with it.
icebench:
	$(GO) run -C bench ice/bench/cmd/icebench

# A tenth of the length: a smoke run whose numbers are never gated.
icebench-quick:
	$(GO) run -C bench ice/bench/cmd/icebench -quick

# bench/ is a module of its own, so the root `go vet` and `go test` do
# not reach it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# End-to-end gateway check: icegated on a self-deployed lab, two
# tenants' jobs through the HTTP API, leases verified clean.
gateway-smoke:
	$(GO) run ./cmd/icegated -smoke

# Tracing acceptance drill: a two-cell campaign job through the
# gateway, its trace fetched by ID and checked for a parent-complete
# span tree and a critical-path partition that sums to the wall time.
# The JSONL export lands in trace_smoke.jsonl for offline icetrace
# inspection (CI uploads it when the drill fails).
trace-smoke:
	$(GO) run ./cmd/icegated -trace-smoke -trace-export trace_smoke.jsonl

# Federation acceptance drill: two facility gateways over one lab, one
# killed mid-CV (kill -9 semantics); the peer must adopt the job from
# the replicated WAL within 10s and finish it exactly once (audit
# verified). State, replicated WALs, and the trace JSONL land in
# cluster_smoke_state/ (CI uploads them when the drill fails).
cluster-smoke:
	$(GO) run ./cmd/icegated -cluster-smoke

# Instrument-health acceptance drill: the simulated potentiostat
# wedges mid-acquisition; the breaker must quarantine it, fence the
# wedged run with an emergency abort, checkpoint-requeue the job,
# recover via a half-open probe and finish exactly once (audit
# verified, goroutine-leak checked). An unmeetable deadline_ms must be
# rejected at admission with 503 + Retry-After. State and the trace
# JSONL land in health_smoke_state/ (CI uploads them on failure).
health-smoke:
	$(GO) run ./cmd/icegated -health-smoke

# DAG-engine acceptance drill: the examples/dag specs against
# self-deployed labs. The cv_classic.json graph must reproduce the
# hardwired cv job's measurement digest and ML verdict bit for bit;
# resubmitting it must serve every cacheable node from the
# content-keyed cache with the instrument untouched; a kill -9
# mid-DAG must resume exactly once from the checkpoint journal; and
# the two-cell campaign round must analyze both branches. State and
# per-job journals land in dag_smoke_state/ (CI uploads them on
# failure).
dag-smoke:
	$(GO) run ./cmd/icegated -dag-smoke

# Declarative-registry acceptance drill: the
# examples/labs/microscopy.yaml config must bring up a multi-station
# facility (echem control agent + scan-steering STEM) from
# configuration alone, run a cv job and a scan job side by side on one
# scheduler with registry-derived health supervision, show exactly one
# acquisition per instrument in the per-station audit journals, and
# tear down with zero leaked leases or goroutines. Facility state
# lands in lab_smoke_state/ (CI uploads it on failure).
lab-smoke:
	$(GO) run ./cmd/icegated -lab-smoke

fuzz:
	for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' "$$pkg" | grep '^Fuzz' || true); do \
			$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime=10s "$$pkg" || exit 1; \
		done; \
	done
