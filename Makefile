GO ?= go

.PHONY: all build vet lint allocbudget test race golden fuzz-smoke bench-smoke trace-smoke fault-smoke serve-smoke pointcache-smoke sim-bench profile loc clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static contract checks: determinism (no wall clock, no map-order or
# goroutine nondeterminism in simulation packages), hot-path allocation
# discipline, nil-guarded probe access, and no library surface that only
# tests use (deadapi, which also loads benchmark/ for its uses). See
# DESIGN.md §4i; suppress single findings with
# `//ioatlint:allow <analyzer> — <reason>`.
lint:
	$(GO) run ./cmd/ioatlint ./...

# Heap-escape budget: compiler escape analysis over the hot-path
# packages diffed against testdata/lint/escape_allowlist.txt. A new
# escape fails; regenerate the allowlist with
# `scripts/allocbudget.sh -update` after justifying the allocation.
allocbudget:
	./scripts/allocbudget.sh

test:
	$(GO) test ./...

# Race-audit the whole tree, including the parallel sweep runner.
race:
	$(GO) test -race ./...

# Regenerate the golden corpus (testdata/golden/) from the current
# simulator output. Review the diff before committing: every changed
# number is a claim that the simulation intentionally changed.
golden:
	$(GO) test . -run 'TestGoldenCorpus$$' -update

# Short fuzz pass over the transport segmentation, loss recovery, cache
# invariants, the cache's equivalence to its stamp-based reference,
# scheduler invariants, the point cache's eviction against its scanning
# reference, and point-cache keys against their fmt-based reference
# encoder; CI runs this on every push. Minimizing a new
# input is capped at 1 s: at Go's default of 60 s it can take the whole
# 15 s run, during which nothing is fuzzed.
fuzz-smoke:
	$(GO) test ./internal/tcp -run '^$$' -fuzz FuzzTCPSegmentation -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/tcp -run '^$$' -fuzz FuzzTCPLossRecovery -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzCacheAccessRange -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzCacheDifferential -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzSchedulerOrdering -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/sweep -run '^$$' -fuzz FuzzPointCacheBound -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/sweep -run '^$$' -fuzz FuzzKeyCanonical -fuzztime 15s -fuzzminimizetime 1s

# Fault-plane smoke: the loss sweep under strict fail-fast checking, plus
# the benign-plan differential (a non-nil all-zero plan must reproduce
# the golden corpus byte-for-byte).
fault-smoke: build
	$(GO) run ./cmd/ioatbench -run fault_loss -scale 0.05 -strict >/dev/null
	$(GO) test . -run 'TestBenignFaultPlanDifferential'
	$(GO) test ./internal/tcp -run 'TestLossyStreamStrict|TestZeroPlanInert'
	@echo "fault-smoke OK"

# Daemon smoke: boot ioatd, run a golden-config job over HTTP (the
# served table must match testdata/golden/), hit the shared point cache
# on a resubmit, and drain cleanly on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# Point-cache smoke: two `go run ./cmd/ioatbench -pointcache <dir>` runs
# of fig6 and ablpin; the second must read every point back from the
# one per-executable subdirectory the first wrote.
pointcache-smoke:
	./scripts/pointcache_smoke.sh

# A fast end-to-end pass over every experiment: shapes only, tiny scale.
bench-smoke: build
	$(GO) run ./cmd/ioatbench -scale 0.05 -parallel 0

# A tiny traced+metered run of fig6: the trace JSON and metrics CSV must
# be non-empty and well-formed, and the export schema tests must pass.
trace-smoke: build
	$(GO) run ./cmd/ioatbench -run fig6 -scale 0.05 \
		-trace trace-smoke.json -metrics trace-smoke.csv -profile-report >/dev/null
	test -s trace-smoke.json && test -s trace-smoke.csv
	$(GO) test . -run 'TestTraceSmoke|TestTraceExportSchema'
	@rm -f trace-smoke.json trace-smoke.csv
	@echo "trace-smoke OK"

# Hot-path microbenchmarks: event core, context resume cost (goroutine
# handoff vs continuation), cache model, end-to-end packet path, the
# point-cache key and memo hit (the benchmark ladder's sweep rungs), and
# the key every sweep point builds (BenchmarkPointKey).
# allocs/op must be 0 on every steady-state simulation path.
sim-bench:
	$(GO) test -bench='BenchmarkSchedule|BenchmarkRunHotLoop|BenchmarkProcResume|BenchmarkTaskResume' -benchmem -run='^$$' ./internal/sim/
	$(GO) test -bench='BenchmarkAccessRange|BenchmarkAccessLines|BenchmarkAccessEach|BenchmarkInvalidate|BenchmarkInstall' -benchmem -run='^$$' ./internal/mem/
	$(GO) test -bench='BenchmarkSteadyStatePacketPath' -benchmem -run='^$$' ./internal/tcp/
	$(GO) test -bench='BenchmarkKey$$|BenchmarkCachedRunHit$$' -benchmem -run='^$$' ./internal/sweep/
	$(GO) test -bench='BenchmarkPointKey$$' -benchmem -run='^$$' ./internal/bench/

# CPU + allocation profiles of the heaviest workload (the fig10 app-level
# sweep) at benchmark scale; inspect with `go tool pprof`.
profile: build
	$(GO) run ./cmd/ioatbench -scale 0.25 -parallel 0 -run fig10a,fig10b \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof"

# Added, deleted and net non-test Go lines against BASE (default HEAD),
# over both modules (the root and benchmark/); _test.go files and
# testdata/ fixtures are left out. A new file counts once it is
# committed or added with `git add -N`.
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' ':(exclude)*/testdata/*' | \
		awk '{a += $$1; d += $$2} END {printf "non-test Go lines: +%d -%d, net %+d\n", a, d, a - d}'

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof trace-smoke.json trace-smoke.csv
