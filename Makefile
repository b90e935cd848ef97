GO ?= go
GOLANGCI ?= golangci-lint
# Coverage floor (percent) enforced by `make cover` over the public API
# package and the shard planner.
COVER_FLOOR ?= 75
COVER_PKGS = ./setcontain/... ./internal/stats/...

.PHONY: all build vet test bench bench-baseline bench-compare bench-ci bench-module-check fuzz-smoke lint cover check linkcheck vet-examples api-surface serve snapshot-smoke crash-smoke scatter-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# Run every benchmark once, across all packages, without re-running unit
# tests — the CI bench-smoke job uses the same invocation.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Tier-1 hot-path benchmarks: the CPU-performance gate of the README's
# "CPU performance" section, plus the expression planner's
# planned-vs-naive pair and the streaming-execution trio
# (streaming-vs-materializing, limit early exit, batch CSE).
TIER1_BENCH = BenchmarkSubset|BenchmarkEquality|BenchmarkSuperset|BenchmarkExprPlanner|BenchmarkExprStream|BenchmarkExprLimit|BenchmarkExprCSE
BENCH_TIME ?= 500x
# Samples per benchmark; benchjson keeps the fastest (min ns/op), which
# gates robustly on machines with background load.
BENCH_COUNT ?= 5
# ns/op regression tolerance for bench-compare, in percent.
BENCH_TOLERANCE ?= 10

# Refresh the checked-in CPU baseline: BENCH_PR3.json (standardized
# ns/op, allocs/op, pages/op, decoded-hit-rate per benchmark) plus its
# raw-text twin for benchstat.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(TIER1_BENCH)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -benchmem . \
		| tee BENCH_PR3.txt | $(GO) run ./cmd/benchjson > BENCH_PR3.json

# Compare a fresh tier-1 run against the checked-in baseline, failing on
# >$(BENCH_TOLERANCE)% ns/op regression. benchstat summarises the raw
# runs when installed; the pass/fail gate is benchjson -compare either
# way (no external dependency).
bench-compare:
	$(GO) test -run '^$$' -bench '$(TIER1_BENCH)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -benchmem . \
		| tee bench-new.txt | $(GO) run ./cmd/benchjson > bench-new.json
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat BENCH_PR3.txt bench-new.txt; \
	else \
		echo "benchstat not installed; skipping statistical summary"; \
	fi
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_TOLERANCE) \
		-filter '^Benchmark(Subset|Equality|Superset|ExprPlanner|ExprStream|ExprLimit|ExprCSE)' BENCH_PR3.json bench-new.json

# The CI bench-smoke job's per-SHA artifact: the same tier-1 set and
# min-of-count methodology as the checked-in baseline, at a CI-sized
# iteration count, so the artifact is directly comparable with
# `benchjson -compare`. Derived from TIER1_BENCH so the job cannot drift
# from the gate again. Two steps, not a pipe: a failing or non-compiling
# benchmark must fail the target whatever shell make runs.
bench-ci:
	$(GO) test -run '^$$' -bench '$(TIER1_BENCH)' -benchtime=100x -count=3 -benchmem . > bench-ci.txt
	$(GO) run ./cmd/benchjson < bench-ci.txt > bench-ci.json

# The repository benchmark (benchmark/, its own module) compiles against
# the public API and is frozen against PRs that change other code, so a
# change that breaks its build must fail here, not in the pipeline.
bench-module-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# Short coverage-guided runs of every fuzz target (go allows one -fuzz
# target per invocation): the expression-grammar round-trip fuzzer, the
# remote shard client's NDJSON answer reader, the snapshot container
# reader, the WAL replay/record fuzzers, and the vbyte codec fuzzers. The
# CI fuzz job uses the same invocations; corpus findings land in testdata
# and fail `make test` thereafter. The answer-stream and snapshot inputs
# run to kilobytes, so minimizing each new one is capped — it would
# otherwise eat the whole smoke.
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime $(FUZZ_TIME) ./setcontain
	$(GO) test -run '^$$' -fuzz '^FuzzRemoteAnswerStream$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./setcontain
	$(GO) test -run '^$$' -fuzz '^FuzzOpenSnapshot$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./setcontain
	$(GO) test -run '^$$' -fuzz '^FuzzReplaySegment$$' -fuzztime $(FUZZ_TIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime $(FUZZ_TIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzUint32$$' -fuzztime $(FUZZ_TIME) ./internal/vbyte
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePostings$$' -fuzztime $(FUZZ_TIME) ./internal/vbyte

lint:
	$(GOLANGCI) run ./...

# Verify relative markdown links in README.md, docs/, and the example
# READMEs resolve; the CI docs job runs this.
linkcheck:
	./scripts/linkcheck.sh

# The examples are the documentation's code snippets writ large: vet
# them explicitly so a drifting API fails the docs job, not a reader.
vet-examples:
	$(GO) vet ./examples/...

# Regenerate docs/API.txt: every exported declaration of setcontain,
# setcontain/serve and the wire bodies serve aliases (internal/wire),
# plus their non-test line count and that of the index layer below the
# engine. The file is checked in so a PR that grows the surface — or
# either layer — shows it in its diff; the CI docs job regenerates it
# and fails when it is stale.
api-surface:
	./scripts/api-surface.sh > docs/API.txt

# Serve a demo dataset locally (see cmd/setcontaind -help for flags).
serve:
	$(GO) run ./cmd/setcontaind -synthetic 100000 -index sharded

# Durability end-to-end: build a synthetic index, snapshot, restore, and
# verify the restored instance's answer digest matches — per engine kind,
# clean and with pending inserts + tombstones. The CI matrix runs this.
snapshot-smoke:
	./scripts/snapshot-smoke.sh

# Durability under fire: start setcontaind with a write-ahead log, apply
# acknowledged mutations over HTTP, kill -9, restart, and verify every
# acknowledged write survived (then again across a checkpoint). The CI
# matrix runs this.
crash-smoke:
	./scripts/crash-smoke.sh

# Distribution end-to-end: two shard daemons plus a coordinator versus a
# single-node daemon on the same dataset — mixed query/expr/limit
# traffic must digest-compare identical (built, pending, merged), and
# killing one shard must surface a clean error naming it. The CI matrix
# runs this.
scatter-smoke:
	./scripts/scatter-smoke.sh

cover:
	$(GO) test -coverprofile=coverage.out $(COVER_PKGS)
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { seen = 1; sub(/%/, "", $$3); \
		 if ($$3 + 0 < floor) { printf "FAIL: coverage %.1f%% below floor %d%%\n", $$3, floor; exit 1 } \
		 else { printf "coverage %.1f%% (floor %d%%)\n", $$3, floor } } \
		 END { if (!seen) { print "FAIL: no coverage total (go tool cover failed?)"; exit 1 } }'

# Remove build/bench/coverage droppings (all of them .gitignore'd):
# bench-compare output, coverage profiles, locally built CLI binaries,
# and the cached fuzzing corpus.
clean:
	rm -f bench-new.json bench-new.txt bench-ci.json bench-ci.txt coverage.out bench-output.txt
	rm -f oifbench oifquery setcontaind setgen benchjson
	$(GO) clean -fuzzcache

check: build vet test
