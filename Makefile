# Convenience targets; the repo needs only the Go toolchain. The optional
# linters (staticcheck, govulncheck) are installed on demand into
# $(TOOLS_BIN) at pinned versions; when the network is unavailable and the
# binary is not already present, their targets warn and skip instead of
# failing so `make check` stays usable offline.

GO ?= go

TOOLS_BIN            := $(CURDIR)/.tools/bin
STATICCHECK_VERSION  ?= 2025.1.1
GOVULNCHECK_VERSION  ?= v1.1.4
STATICCHECK          := $(TOOLS_BIN)/staticcheck
GOVULNCHECK          := $(TOOLS_BIN)/govulncheck

.PHONY: build test vet race check bench-build staticcheck govulncheck scanlint lint-fix-list bench bench-obsv bench-alloc alloc-gate chaos perf perf-baseline docs-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The benchmark (scanbench/) is a nested module, so the root `go build ./...`
# stops at its boundary; build and vet it on its own so an API change it
# depends on fails here rather than at benchmark time. -o /dev/null keeps
# the binary out of the tree.
bench-build:
	cd scanbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

race:
	$(GO) test -race ./...

staticcheck:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || \
		GOBIN=$(TOOLS_BIN) $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) 2>/dev/null || true
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./... ; \
	else \
		echo "warning: staticcheck $(STATICCHECK_VERSION) unavailable (offline?); skipping" >&2 ; \
	fi

govulncheck:
	@command -v $(GOVULNCHECK) >/dev/null 2>&1 || \
		GOBIN=$(TOOLS_BIN) $(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) 2>/dev/null || true
	@if command -v $(GOVULNCHECK) >/dev/null 2>&1; then \
		$(GOVULNCHECK) ./... ; \
	else \
		echo "warning: govulncheck $(GOVULNCHECK_VERSION) unavailable (offline?); skipping" >&2 ; \
	fi

# The project-specific analyzers (internal/lint, cmd/scanlint): hot-path
# allocation discipline, workspace aliasing, canonical metric names, loop
# cancellation checkpoints, atomic/plain access mixing, and the four
# CFG/dataflow analyzers — snapshot immutability (snapfreeze), exactly-once
# release paths (releaseonce), global lock ordering (lockorder) and bounded
# blocking waits (chanwait). Built from source — no network needed — so it
# always runs, unlike the optional linters above.
scanlint:
	$(GO) build -o $(TOOLS_BIN)/scanlint ./cmd/scanlint
	$(TOOLS_BIN)/scanlint ./...

# Machine-readable findings for tooling/triage (exit status still reflects
# whether findings exist; see OPERATIONS.md for the triage guide).
lint-fix-list:
	@$(GO) build -o $(TOOLS_BIN)/scanlint ./cmd/scanlint
	-$(TOOLS_BIN)/scanlint -json ./...

# The serving hot path must stay within its heap-allocation budget (see
# TestServingAllocBudget). Run WITHOUT -race: the race runtime allocates
# per instrumented access, so the test skips itself under it — this
# dedicated pass is what actually enforces the gate.
alloc-gate:
	$(GO) test -run TestServingAllocBudget -count 1 -v ./internal/engine/

# The fault-containment suite under the race detector: seeded chaos runs
# across every engine, the server panic/stall acceptance scenarios, the
# watchdog tests (dist-scan's per-round deadline among them), the
# sim-block panic mapping, and the shard-tier drills — seeded fault schedules
# against a worker fleet plus real scanshard processes killed and
# restarted mid-superstep (see OPERATIONS.md "Failure modes" and §14).
# Already part of `make race`; this target iterates on just the
# containment paths. Set SHARD_CHAOS_LOG_DIR to keep the worker
# processes' logs on disk (CI uploads them as artifacts on failure).
chaos:
	$(GO) test -race -count 1 -run 'TestChaos|TestWatchdog|TestDistscanSuperstepRetry|TestDistscanRetryExhaustion|TestAcceptance|TestServerChaos|TestServerWatchdog|TestHandlerPanic|TestShardChaos|TestDistStallTimeout|TestSimBlockPanicIsInternalError' \
		./internal/engine/ ./internal/server/ ./internal/shard/

# The performance gate (cmd/perfbench + internal/perfgate): measure the
# canonical suite — per-engine warm/cold latency, warm allocs, P1–P7 phase
# durations, kernel throughput, server request latency — and compare
# medians against the newest same-host BENCH_*.json under $(PERF_DIR).
# Regression beyond tolerance exits non-zero with a per-metric report and
# does NOT advance the baseline. See OPERATIONS.md §11 for triage.
PERF_DIR ?= bench
perf:
	@mkdir -p $(PERF_DIR)
	$(GO) run ./cmd/perfbench -dir $(PERF_DIR)

# First recording on a new machine (or an intentional baseline reset after
# an accepted trade-off): write the report even if the gate would fail.
perf-baseline:
	@mkdir -p $(PERF_DIR)
	$(GO) run ./cmd/perfbench -dir $(PERF_DIR) -force-write

# Documentation drift gate (cmd/docscheck): every flag each CLI binary
# actually registers must have a backticked `-flag` entry in
# OPERATIONS.md, every HTTP route the server registers must appear in the
# README API reference, and the OPERATIONS.md §9 analyzer table must match
# `scanlint -list` (both name directions plus each suppression directive).
# Built from source like scanlint — no network.
docs-check:
	$(GO) build -o $(TOOLS_BIN)/ ./cmd/scanserver ./cmd/scanshard ./cmd/ppscan ./cmd/perfbench ./cmd/docscheck ./cmd/scanlint
	$(TOOLS_BIN)/docscheck -ops OPERATIONS.md -readme README.md \
		-scanlint $(TOOLS_BIN)/scanlint \
		$(TOOLS_BIN)/scanserver $(TOOLS_BIN)/scanshard $(TOOLS_BIN)/ppscan $(TOOLS_BIN)/perfbench

# The pre-merge gate: static checks, the full suite under the race
# detector (the parallel phases, scheduler telemetry and HTTP middleware
# are all exercised concurrently), the chaos/fault-containment suite, the
# non-race allocation gate, then the performance gate against the local
# trajectory.
check: vet bench-build scanlint staticcheck govulncheck docs-check
	$(GO) test -race ./...
	$(MAKE) chaos
	$(MAKE) alloc-gate
	$(MAKE) perf

# Benchmark sweep: the facade round-trips plus the engine- and server-level
# serving benchmarks, with -count 6 so the outputs feed benchstat:
#   make bench > old.txt ; <edit> ; make bench > new.txt
#   benchstat old.txt new.txt
# (benchstat is golang.org/x/perf/cmd/benchstat; without it, eyeball the
# per-count spread.) For the gated, trajectory-recorded numbers use
# `make perf` instead — bench is for interactive A/B comparison.
bench:
	$(GO) test -bench . -benchtime 10x -count 6 .
	$(GO) test -run xxx -bench . -benchtime 20x -count 6 ./internal/engine/
	$(GO) test -run xxx -bench . -benchtime 20x -count 6 ./internal/server/

# Instrumented-vs-nop registry overhead on the core engine (<2% target;
# numbers recorded in EXPERIMENTS.md).
bench-obsv:
	$(GO) test -run xxx -bench BenchmarkObsvOverhead -benchtime 30x -count 3 .

# Pooled-workspace serving benchmarks: warm (steady-state) vs cold runs of
# the engine, plus the end-to-end server resolve path. allocs/op is the
# headline number; pipe `-count 10` outputs into benchstat to compare
# before/after (numbers recorded in EXPERIMENTS.md).
bench-alloc:
	$(GO) test -run xxx -bench 'BenchmarkEngine(SteadyState|ColdRun)' -benchtime 20x -count 3 ./internal/engine/
	$(GO) test -run xxx -bench BenchmarkServerSteadyState -benchtime 20x -count 3 ./internal/server/
