GO ?= go
GOLANGCI ?= golangci-lint
# Coverage floor (percent) enforced by `make cover` over the public API
# package and the shard planner.
COVER_FLOOR ?= 90
COVER_PKGS = ./setcontain/... ./internal/stats/...

.PHONY: all build vet test alloc-check bench bench-module-check fuzz-smoke lint cover check linkcheck vet-examples api-surface api-check serve snapshot-smoke crash-smoke scatter-smoke oifbench-smoke mutants clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# The allocation gates — TestBatcherZeroAllocs, TestStoreExecAppendZeroAllocs,
# TestQueryEvalAppendZeroAllocs, TestOverlayMatchesZeroAllocs (the delta's
# sweeps and the tombstone Mask), TestResultCodecZeroAllocs,
# TestReseekZeroAllocs, TestExprAllocCeilings, and the build paths'
# TestGeneratorAllocCeilings, TestReadAllocCeilings and
# TestBuildAllocCeilings (generators, the text reader, Build,
# MergeDelta), TestMergeAllocCeilings (the bytes one merge allocates),
# TestSnapshotAllocCeilings (Save streams, and allocates nothing sized
# by the collection), the index's live heap against its
# Space (TestIndexHeapCeiling) and the collection's against its items
# and records (TestDatasetHeapCeiling) —
# skip or are compiled out under the race detector, so `make test` never
# runs them; this does, without -race.
alloc-check:
	$(GO) test -run 'ZeroAllocs|AllocCeilings|HeapCeiling' . ./setcontain/... ./internal/overlay ./internal/wire ./internal/btree ./internal/dataset ./internal/core

# Run every benchmark once, across all packages, without re-running unit
# tests: the CI bench-smoke job's one step, proving every Benchmark*
# still compiles and runs. They are profiling targets, not gates — timing
# is judged by benchmark/ (docs/BENCHMARKS.md). File then cat, not a
# pipe into tee: a failing or non-compiling benchmark must fail the
# target whatever shell make runs.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./... > bench-output.txt; \
		status=$$?; cat bench-output.txt; exit $$status

# The repository benchmark (benchmark/, its own module) compiles against
# the public API and is frozen against PRs that change other code, so a
# change that breaks its build must fail here, not in the pipeline.
bench-module-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# Short coverage-guided runs of every fuzz target (go allows one -fuzz
# target per invocation): the model harness that holds every serving
# stack to internal/naive over a seeded op sequence, the
# expression-grammar round-trip fuzzer, the remote shard client's NDJSON
# answer reader, the answer-line codec
# against encoding/json, the snapshot container reader, the POST /query
# body through the serve handler, the WAL replay/record fuzzers, the
# update overlay's pending-records and tombstone sections, the vbyte
# codec and block-kernel fuzzers, superset's candidate counts against
# internal/naive, the §3 re-ordering against the stable comparison
# sort it replaced, the answer set algebra against a plain merge, and
# the collection text format's Read / Write round trip. The CI fuzz job
# uses the same invocations; corpus findings land in testdata and fail
# `make test` thereafter. The answer-stream, answer-line, snapshot,
# posting-block, re-ordering and text inputs run to kilobytes, so
# minimizing each new one is capped — it would otherwise eat the whole
# smoke.
#
# FuzzModel alone runs 60s. Each of its inputs replays a whole op
# sequence through every serving stack, HTTP included, and the fuzzer
# replays its baseline — 32 seeds plus the cached corpus — before it
# explores anything: in 15s on 2 vCPUs it got through 87 of 105 baseline
# entries and found nothing new, so 10s re-ran what `make test` runs.
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzModel$$' -fuzztime 60s ./setcontain
	$(GO) test -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime $(FUZZ_TIME) ./setcontain
	$(GO) test -run '^$$' -fuzz '^FuzzRemoteAnswerStream$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./setcontain
	$(GO) test -run '^$$' -fuzz '^FuzzResultLine$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzOpenSnapshot$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./setcontain
	$(GO) test -run '^$$' -fuzz '^FuzzQueryRequest$$' -fuzztime $(FUZZ_TIME) ./setcontain/serve
	$(GO) test -run '^$$' -fuzz '^FuzzReplaySegment$$' -fuzztime $(FUZZ_TIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime $(FUZZ_TIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzOverlaySections$$' -fuzztime $(FUZZ_TIME) ./internal/overlay
	$(GO) test -run '^$$' -fuzz '^FuzzUint32$$' -fuzztime $(FUZZ_TIME) ./internal/vbyte
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePostings$$' -fuzztime $(FUZZ_TIME) ./internal/vbyte
	$(GO) test -run '^$$' -fuzz '^FuzzPostingKernels$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./internal/vbyte
	$(GO) test -run '^$$' -fuzz '^FuzzSupersetCounts$$' -fuzztime $(FUZZ_TIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReorder$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./internal/sequence
	$(GO) test -run '^$$' -fuzz '^FuzzSetAlgebra$$' -fuzztime $(FUZZ_TIME) ./setcontain
	$(GO) test -run '^$$' -fuzz '^FuzzDatasetText$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./internal/dataset

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
# plus their non-test line count and those of the index layer, the
# storage layer and internal/stats below the engine, and the test line
# count of setcontain/ and setcontain/serve/. The file is checked
# in so a PR that grows the surface — or any layer — shows it in its
# diff; api-check — part of `make check` and of the CI docs job — fails
# when it is stale.
api-surface:
	./scripts/api-surface.sh > docs/API.txt

api-check:
	./scripts/api-surface.sh | diff -u docs/API.txt -

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

# Distribution end-to-end: two shard daemons plus a coordinator, a
# daemon holding the same two shards in process, and a single-node
# daemon on the same dataset — mixed query/expr/limit traffic must
# digest-compare identical across all three (built, pending, merged),
# and killing one shard must surface a clean error naming it. The CI
# matrix runs this.
scatter-smoke:
	./scripts/scatter-smoke.sh

# The paper-figures CLI end to end: every experiment at a tiny scale
# (about half a second), then an unknown -experiment, which must exit 2.
# The binary is built once (go run reports any failure as exit 1). The
# CI matrix runs this.
oifbench-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		$(GO) build -o "$$dir/oifbench" ./cmd/oifbench && \
		"$$dir/oifbench" -experiment all -scale 0.0001 -realscale 0.02 -queries 3 && \
		{ "$$dir/oifbench" -experiment nosuch; status=$$?; \
		  if [ $$status -ne 2 ]; then echo "FAIL: unknown -experiment exited $$status, want 2"; exit 1; fi; }

# The mutation gate: each mutants/*.patch plants one bug in a copy of
# the tree under $TMPDIR, and the tests its header names must fail on
# it (docs/MUTANTS.md lists each with its killer). It also fails when a
# patch no longer applies or builds. The CI mutants job runs this.
mutants:
	./scripts/mutants.sh

cover:
	$(GO) test -coverprofile=coverage.out $(COVER_PKGS)
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { seen = 1; sub(/%/, "", $$3); \
		 if ($$3 + 0 < floor) { printf "FAIL: coverage %.1f%% below floor %d%%\n", $$3, floor; exit 1 } \
		 else { printf "coverage %.1f%% (floor %d%%)\n", $$3, floor } } \
		 END { if (!seen) { print "FAIL: no coverage total (go tool cover failed?)"; exit 1 } }'

# Remove build/bench/coverage droppings (all of them .gitignore'd):
# make bench output, coverage profiles, locally built CLI binaries, and
# the cached fuzzing corpus.
clean:
	rm -f coverage.out bench-output.txt
	rm -f oifbench oifquery setcontaind setgen
	$(GO) clean -fuzzcache

# The local tier. alloc-check, bench-module-check and api-check are part
# of it: a PR that narrows the public API is exactly the one that can
# break the allocation gates (which `make test`, under -race, skips) or
# the frozen benchmark module (its own go.mod, so ./... does not reach
# it), and that leaves docs/API.txt stale.
check: build vet test alloc-check bench-module-check api-check
