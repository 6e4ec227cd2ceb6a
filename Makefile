GO ?= go

.PHONY: check vet build test perfbench race bench figures serve trace-smoke

# check is what CI runs: vet, build, full tests, the benchmark
# harness's own vet and tests, race-enabled solver/pipeline tests, and
# the trace-export smoke test.
check: vet build test perfbench race trace-smoke

# introvet is the repo's own determinism linter (see cmd/introvet):
# mandatory, stdlib-only, so it runs everywhere go does. staticcheck,
# golangci-lint and govulncheck are optional extras: run whichever is
# on PATH, skip silently otherwise (the GitHub Actions workflow
# installs pinned staticcheck/govulncheck; the local container ships
# neither, and go vet + introvet are the mandatory floor).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/introvet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	elif command -v golangci-lint >/dev/null 2>&1; then golangci-lint run ./...; \
	else echo "vet: staticcheck/golangci-lint not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "vet: govulncheck not installed; skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench/ is a module of its own, so ./... never reaches it: vet
# and test the benchmark harness separately.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The solver, the pipeline, the cut-shortcut strategy it loads, the
# checkers that consume their results, the analysis service, and the
# tracing layer have the interesting concurrency surface (context
# cancellation mid-worklist, shared results across runs, single-flight
# dedup and admission under load, observers shared across fleet
# workers); run their tests under the race detector.
race:
	$(GO) test -race ./internal/analysis ./internal/pta ./internal/cutshortcut ./internal/checkers ./internal/service ./internal/obs

# bench runs the one-iteration figure benchmarks plus the service load
# replay (scripts/replay.sh), which records SLO_<date>.json — latency
# percentiles, throughput, and the cache hit ratio — next to the
# BENCH_<date>.json files scripts/bench.sh writes.
bench:
	$(GO) test -bench='Fig|Provenance|CutShortcut' -benchtime=1x -run=^$$ .
	scripts/replay.sh

# trace-smoke solves a real benchmark with tracing on and validates
# the exported Chrome trace (parses, spans nest, solver snapshots
# present) — the end-to-end check that the observability layer's file
# format stays loadable in Perfetto.
trace-smoke:
	$(GO) run ./cmd/pta -bench hsqldb -analysis 2objH-IntroA -budget -1 \
		-trace /tmp/pta-trace-smoke.json -snap-every 262144
	$(GO) run ./scripts/tracecheck /tmp/pta-trace-smoke.json

figures:
	$(GO) run ./cmd/introbench

# Run the analysis daemon locally (Ctrl-C to stop). See cmd/ptad for
# flags and the README "Server" section for curl examples.
serve:
	$(GO) run ./cmd/ptad
