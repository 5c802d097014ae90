GO ?= go

.PHONY: all build vet test race bench bench-parallel bench-parallel-quick bench-wire bench-wire-quick icebench icebench-quick bench-check flake fuzz

all: build vet test

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# Packages whose tests take over 3 s; flake repeats every other package
# twenty times in shuffled order, so an order- or timing-dependent test
# fails here before it fails someone else's build. Of sched it repeats,
# under -race, only the tests that pin the job transition order
# (journal, fold, event, then enqueue).
SLOW_PKGS = ice/internal/core ice/internal/sched ice/internal/campaign ice/internal/potentiostat ice/internal/microscope

flake:
	$(GO) test -count=20 -shuffle=on $$($(GO) list ./... | grep -vxF $(SLOW_PKGS:%=-e %))
	$(GO) test -race -count=200 -run 'TestSchedulerSubmitRunDone$$|TestRefusedAdmissionNeverReachesRunner$$|TestRequeueAndAdoptJournalBeforeDispatch$$' ./internal/sched

# Full benchmark sweep (figures + ablations + parallelism).
bench:
	$(GO) test -bench=. -benchmem .

# Regenerate BENCH_parallel.json — the fleet/pipelining/ML parallelism record.
bench-parallel:
	$(GO) run ./cmd/benchparallel -o BENCH_parallel.json

# Fast variant for CI smoke: small transfers, single repetitions.
bench-parallel-quick:
	$(GO) run ./cmd/benchparallel -quick -o BENCH_parallel.json

# Regenerate BENCH_wire.json — the streaming-analysis record. The
# threshold doubles as the regression gate: the streamed verdict must
# land within 10% of the acquisition window after instrument release.
bench-wire:
	$(GO) run ./cmd/benchparallel -o '' -wire-o BENCH_wire.json -max-stream-lag 0.1

# Fast variant for CI smoke, with a looser threshold for noisy runners.
bench-wire-quick:
	$(GO) run ./cmd/benchparallel -quick -o '' -wire-o BENCH_wire.json -max-stream-lag 0.25

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

fuzz:
	for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' "$$pkg" | grep '^Fuzz' || true); do \
			$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime=10s "$$pkg" || exit 1; \
		done; \
	done
