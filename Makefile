# Single source of truth for build/test invocations — CI runs these
# same targets, so a green `make check` locally means a green CI run.

GO ?= go
RACE_PKGS := ./internal/core/... ./internal/search/... ./internal/graph/... ./internal/server/... ./internal/index/... ./internal/refresh/... ./internal/shard/... ./internal/postprocess/... ./internal/transport/... ./internal/wal/... ./internal/segment/... ./internal/persist/... ./internal/resilience/... ./internal/faultinject/...
# Packages whose statement coverage must stay at or above COVER_MIN:
# the concurrent serving layer, where untested paths hide races, plus
# the correctness-critical incremental-rebuild primitives (index
# patching, incremental merge), the multi-process shard transport, and
# the durability layer (WAL framing, the segment codec, crash
# recovery), and the spectral kernel every cold boot derives c with.
COVER_PKGS := repro/internal/spectral repro/internal/server repro/internal/refresh repro/internal/shard repro/internal/index repro/internal/postprocess repro/internal/transport repro/internal/wal repro/internal/segment repro/internal/persist repro/internal/resilience repro/internal/faultinject
COVER_MIN := 75

.PHONY: build test test-slow race vet fmt-check bench-smoke bench-shard bench-e2e-smoke fuzz-smoke cover-check examples test-cluster test-chaos test-chaos-smoke test-migrate-smoke test-shard-compose test-core-count test-mirror test-restart run-cluster check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The tests `make test` leaves out for time (//go:build slow): the
# Lanczos kernel against the shifted power method run to convergence on
# the benchmark's lfr-dense-20k input (15-30k reference iterations per
# seed, ~40 s). The 2k-node legs of the same comparison stay in
# `make test`.
test-slow:
	$(GO) test -tags slow -run ConvergedReference ./internal/spectral

# Race-detector run over the concurrency-bearing packages (OCA's worker
# fan-out, the search state pool, the refresh worker's atomic snapshot
# swap, the HTTP handlers).
race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# One iteration of every benchmark — checks they still compile and run,
# and emits the raw output for trend tooling (BenchmarkMirrorSync's
# full/chain/chain4 legs are the mirror-resync budget line, with wire bytes;
# BenchmarkDeltaApply and BenchmarkPublishStream the per-publish graph
# copy and a K=1 publish, with seeds/publish). Redirect instead of tee so
# a failing benchmark fails the target (sh has no pipefail).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > BENCH_smoke.json; \
		status=$$?; cat BENCH_smoke.json; exit $$status

# Sharded vs unsharded batch-lookup throughput on an LFR graph: the
# router's fan-out overhead must stay small against the K=1 baseline.
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkRouterBatchLookup' -benchtime 2s ./internal/shard

# End-to-end benchmark smoke (benchmark/, declared in BENCHMARK.json):
# every workload briefly against real ocad processes on a 2k-node graph
# — answers checked, metric schema checked, nothing timed.
bench-e2e-smoke:
	$(GO) run ./benchmark -smoke

# Short fuzz runs over the untrusted-input parsers. The checked-in seed
# corpus (internal/graph/testdata/fuzz) always runs under plain `make
# test`; this target additionally mutates for a few seconds per target.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadAuto$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaApply$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionMap$$' -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzSegment$$' -fuzztime $(FUZZTIME) ./internal/segment
	$(GO) test -run '^$$' -fuzz '^FuzzChainExcerpt$$' -fuzztime $(FUZZTIME) ./internal/transport

# Per-package coverage summary, failing if any COVER_PKGS package drops
# below COVER_MIN% of statements. Redirect instead of tee so a test
# failure fails the target (sh has no pipefail).
cover-check:
	@$(GO) test -cover ./... > cover.txt 2>&1; status=$$?; cat cover.txt; \
	if [ $$status -ne 0 ]; then rm -f cover.txt; exit $$status; fi; \
	fail=0; \
	for pkg in $(COVER_PKGS); do \
		pct=$$(awk -v p="$$pkg" '$$1=="ok" && $$2==p { for (i=1;i<=NF;i++) if ($$i ~ /%$$/) { gsub("%","",$$i); print $$i } }' cover.txt); \
		if [ -z "$$pct" ]; then echo "cover-check: no coverage found for $$pkg"; fail=1; \
		elif [ $$(printf '%.0f' "$$pct") -lt $(COVER_MIN) ]; then \
			echo "cover-check: $$pkg coverage $$pct% below $(COVER_MIN)%"; fail=1; \
		else echo "cover-check: $$pkg coverage $$pct% >= $(COVER_MIN)%"; fi; \
	done; \
	rm -f cover.txt; exit $$fail

# Multi-process acceptance gate: boots three real `ocad -serve-shard`
# processes plus a router process over the wire protocol
# (docs/PROTOCOL.md) and proves LFR NMI >= 0.99 vs an unsharded cold
# run, no 5xx during rebuilds, explicit degradation when a shard is
# SIGKILLed, disk recovery of the killed shard — its -in file deleted
# first — at its exact pre-kill generation and identity
# (docs/PERSISTENCE.md), and clean SIGTERM drains.
test-cluster:
	$(GO) test -run 'TestMultiProcessCluster' -count=1 -v ./internal/transport

# Deterministic chaos gate: boots the real replicated multi-process
# cluster with seeded fault plans (internal/faultinject) and drives it
# through scripted fault storms — a blackholed replica must trip the
# breaker and reads must route around it without paying its timeout, a
# stalled primary must shed abandoned writes (deadline_exceeded), and
# a flapping shard must degrade and recover with monotone generations.
test-chaos:
	$(GO) test -run 'TestChaosCluster' -count=1 -v ./internal/transport

# First storm only (breaker trip + routing around the dead member) —
# the cheap PR-gate variant CI runs on every push.
test-chaos-smoke:
	$(GO) test -run 'TestChaosCluster' -short -count=1 -v ./internal/transport

# Live-rebalancing smoke gate: a real multi-process cluster runs one
# mid-traffic partition-map migration (two-generation handoff) with
# zero 5xx, wire-level epoch agreement afterwards, and the NMI >= 0.99
# equivalence gate on the post-flip cover. The crash/abort legs run in
# the full `make test-cluster` gate.
test-migrate-smoke:
	$(GO) test -run 'TestMultiProcessClusterMigration' -short -count=1 -v ./internal/transport

# Rebalance x incremental-publish composition, repeated: the patched
# snapshot assembly and the live migration share the worker's partition
# map, so the suites that cross that seam must be green on every run,
# not most (`make race` runs the same tests once under the detector).
test-shard-compose:
	$(GO) test -count=20 -run 'TestShardPatch|TestMigration' ./internal/shard

# The packages whose results must not depend on the core count —
# recovery reads covers back from the log precisely because OCA's vary
# with GOMAXPROCS — at 1, 3 and 8: what a recovered directory serves,
# what a publish logs, what the WAL parses, the seeding rules of a
# scoped OCA run (whose batch width is the worker count), the graph
# kernels a publish runs, and the one snapshot assembler with the index
# it builds (the shard equivalence and fastpath properties among them).
test-core-count:
	$(GO) test -count=1 -cpu 1,3,8 ./internal/core ./internal/graph ./internal/persist ./internal/refresh ./internal/wal ./internal/shard ./internal/index

# Snapshot mirrors fed chains of publishes, repeated under the race
# detector: the chain-vs-full equivalence property (its -short size),
# the wire compatibility legs both ways, the miss fallback, hostile
# chains, a replica re-serving its primary's chain bytes, the segment
# codec, and the ring and fold they rest on — green on every run, not
# most.
MIRROR_TESTS := 'TestMirrorChainEqualsFull|TestSnapshotWithoutAcceptIsFullStream|TestMirrorReadsFullStreamFromServerIgnoringAccept|TestChainAfterFlushNeverMisses|TestChainMissFallsBackAndCounts|TestHostileChainRejected|TestReplicaReservesPrimaryChain|TestWorkerChainAfterFlush|TestRing|TestFoldStepIsAtomic|TestSegmentEncodeDecode|TestSegmentDecodeRejects'
test-mirror:
	$(GO) test -race -short -count=20 -run $(MIRROR_TESTS) ./internal/persist ./internal/transport ./internal/shard ./internal/segment

# The restart suites, repeated: warm boots of real ocad processes (K=1
# and -serve-shard) over directories a SIGKILL left, the parent-commit
# fallbacks, and the crash/restart round trips of both roles down to the
# recovery property — a durable boot must come back the same on every
# run, not most.
test-restart:
	$(GO) test -count=5 -run 'TestWarmRestart|TestParentCommitDirectoryFallsBack|TestEmptyDataDirStillNeedsInput|TestBootNodes' ./cmd/ocad
	$(GO) test -count=5 -run 'TestShardCrashRestartRoundTrip|TestSingleCrashRestartRoundTrip|TestFoldEqualsLive|TestBootSealMakesOnlyDerivedStateDurable|TestParentCommitWALRecoversThroughTheEngine' ./internal/persist
	$(GO) test -count=5 -run 'TestServerPersistRestartRoundTrip' ./internal/server

# Local dev convenience: spawn SHARDS shard-server processes plus a
# router on this machine (generating a demo LFR graph when GRAPH is
# unset); Ctrl-C tears everything down.
SHARDS ?= 3
run-cluster:
	SHARDS=$(SHARDS) GRAPH=$(GRAPH) sh scripts/run-cluster.sh

# Each example is a main package with no test files except quickstart;
# build them all so they cannot rot invisibly.
examples:
	@for d in examples/*/; do \
		echo "build $$d"; $(GO) build -o /dev/null ./$$d || exit 1; done

check: build vet fmt-check test race cover-check examples

clean:
	rm -f BENCH_smoke.json cover.txt
