# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover loc loc-check reach reach-check bench experiments figures examples fuzz soak soak-digest soak-digest-check obs-demo clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# The second line repeats the tests whose subject is an interleaving (an
# orphaned ship beside the next round, a ship's workers stopped by an abort
# mid-shipment or by a retry's Stage reusing their run list, an RS m = 2 peer
# failing mid-batch beside the other's fold, a stale batch of an aborted attempt
# reaching its keeper after the abort, commits racing folds, handler folds on
# concurrent connections, staged folds racing aborts and parity reads, a
# restore's read slots folding concurrently while a pull fails, a decoder dying
# or refused between its decode and the handoff, with the recovery retried), a
# keeper's or a member's footprint across rounds, or what a respawned member
# allocates: one pass under the detector sees one schedule.
race:
	$(GO) test -race ./internal/runtime/ ./internal/transport/ ./internal/chaos/ ./internal/core/ ./internal/sim/ ./internal/service/ ./internal/parity/ ./internal/wire/ ./internal/cluster/
	$(GO) test -race -count=5 -run 'TestOrphanedShipStopsAtNextBatch|TestAbortMidShipment|TestOrphanedWorkerAfterRetryRestages|TestPeerFailsMidBatchWhileOtherFolds|TestStaleBatchOfAbortedAttemptIsRefused|TestStaleAndDuplicateCommit|TestRoundPoolBalance|TestKeeperFootprint|TestMemberFootprint|TestNewMemberAtCopiesNothing|TestAbortRacesInFlightFolds|TestStagedFoldsAbortsAndReadsInterleave|TestConcurrentGroupFoldRace|TestDuplicateChunkRedeliveryMidFoldRace|TestFailedRestoreAdoptsNothingAndLeaksNothing|TestRecoveryPoolBalance' ./internal/runtime/ ./internal/core/

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

# Non-test Go lines per package: the figure ROADMAP gates simplicity PRs on,
# so PR text and reviewers quote the same number.
loc:
	@$(GO) list -f '{{.Dir}}' ./... | sed 's|^$(CURDIR)|.|' | while read d; do \
		printf '%6d %s\n' "$$(ls $$d/*.go | grep -v _test | xargs -r cat | wc -l)" "$$d"; \
	done

# ROADMAP's rules that internal/runtime's non-test lines do not grow, that
# internal/runtime, internal/core and internal/cluster together do not grow,
# that the telemetry plane (internal/obs, obs/collect, obs/health and
# obs/adapt together) does not grow, and that the fault injector
# (internal/chaos) does not grow, as checks on make loc's figures. A change
# that shrinks them lowers the ceilings to its new counts.
RUNTIME_LOC_CEILING = 4054
RUNTIME_CORE_CLUSTER_LOC_CEILING = 6208
TELEMETRY_LOC_CEILING = 4140
CHAOS_LOC_CEILING = 764
loc-check:
	@loc=$$($(MAKE) -s --no-print-directory loc) && \
	n=$$(echo "$$loc" | awk '$$2 == "./internal/runtime" {print $$1}') && \
	sum=$$(echo "$$loc" | awk '$$2 ~ /^\.\/internal\/(runtime|core|cluster)$$/ {s += $$1} END {print s}') && \
	tel=$$(echo "$$loc" | awk '$$2 ~ /^\.\/internal\/obs(\/(collect|health|adapt))?$$/ {s += $$1} END {print s}') && \
	ch=$$(echo "$$loc" | awk '$$2 == "./internal/chaos" {print $$1}') && \
	echo "internal/runtime: $$n non-test lines, ceiling $(RUNTIME_LOC_CEILING)" && \
	echo "internal/runtime + core + cluster: $$sum non-test lines, ceiling $(RUNTIME_CORE_CLUSTER_LOC_CEILING)" && \
	echo "internal/obs + collect + health + adapt: $$tel non-test lines, ceiling $(TELEMETRY_LOC_CEILING)" && \
	echo "internal/chaos: $$ch non-test lines, ceiling $(CHAOS_LOC_CEILING)" && \
	[ "$$n" -le $(RUNTIME_LOC_CEILING) ] || { echo "internal/runtime grew past $(RUNTIME_LOC_CEILING) non-test lines" >&2; exit 1; }; \
	[ "$$sum" -le $(RUNTIME_CORE_CLUSTER_LOC_CEILING) ] || { echo "internal/runtime + core + cluster grew past $(RUNTIME_CORE_CLUSTER_LOC_CEILING) non-test lines" >&2; exit 1; }; \
	[ "$$tel" -le $(TELEMETRY_LOC_CEILING) ] || { echo "internal/obs + collect + health + adapt grew past $(TELEMETRY_LOC_CEILING) non-test lines" >&2; exit 1; }; \
	[ "$$ch" -le $(CHAOS_LOC_CEILING) ] || { echo "internal/chaos grew past $(CHAOS_LOC_CEILING) non-test lines" >&2; exit 1; }

# Function declarations of the module's non-main packages that no program
# (cmd/*, examples/*, benchmark) links, built with inlining off.
reach:
	@$(GO) run ./tools/reach

# The unreached declarations against their checked-in golden, where each line
# names why the declaration stays (oracle, fake or seam, observation
# accessor, safety code, public facade). Code that only its own tests call
# shows up here as a new line.
REACH_GOLDEN = tools/reach/unreached.golden
reach-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./tools/reach >"$$dir/out" && \
	sed 's/ *#.*//' $(REACH_GOLDEN) | diff -u - "$$dir/out" && echo "unreached declarations match $(REACH_GOLDEN)"

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper artifact (tables + ASCII charts) on stdout.
experiments:
	$(GO) run ./cmd/dvdcbench -exp all

# Same, but also write .txt/.csv/.png files under fig/.
figures:
	$(GO) run ./cmd/dvdcbench -exp all -out fig

# Run every example to completion (CI runs this). The examples that verify
# state exit non-zero on a mismatch, so a broken one fails here.
EXAMPLES = quickstart faultinjection messaging distributed doubletolerance adaptive figure5
examples:
	@for ex in $(EXAMPLES); do \
		echo "== examples/$$ex"; \
		$(GO) run ./examples/$$ex || exit 1; \
	done

# Invariant-checked chaos soak on a live loopback cluster (seeded; any
# failure is replayed exactly with SOAK_SEED=<printed seed>).
SOAK_SEED ?= 424242
soak:
	$(GO) run ./cmd/dvdcsoak -seed $(SOAK_SEED) -rounds 20
	$(GO) run ./cmd/dvdcsoak -seed $(SOAK_SEED) -nodes 8 -rounds 10
	$(GO) run ./cmd/dvdcsoak -seed $(SOAK_SEED) -rounds 10 -chunk-faults 2 -chunk-size 256

# The pinned soak digests: ROADMAP's four dvdcsoak shapes at both pinned
# seeds, probabilistic chaos off so every printed line is a function of the
# seed. The wall-clock figure is cut from the summary line, so comparing two
# commits is one diff of this target's output.
SOAK_DIGEST_SHAPES = "-rounds 20 -kill-mtbf 150" \
	"-nodes 8 -rounds 10 -kill-mtbf 150" \
	"-nodes 16 -group-size 4 -rounds 8 -kill-mtbf 200" \
	"-service -rounds 10 -kill-mtbf 120"
soak-digest:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/dvdcsoak" ./cmd/dvdcsoak && \
	for seed in 424242 31337; do \
		for shape in $(SOAK_DIGEST_SHAPES); do \
			echo "== -seed $$seed $$shape"; \
			"$$dir/dvdcsoak" -seed $$seed $$shape -p-corrupt 0 -p-drop 0 -p-delay 0 -p-partition 0 -v >"$$dir/out" || { cat "$$dir/out"; exit 1; }; \
			sed 's/, [0-9.]*s wall$$//' "$$dir/out"; \
		done; \
	done

# The pinned soak digests against their checked-in golden. A change that
# moves the golden says why (ROADMAP, "Rules carried over").
SOAK_DIGEST_GOLDEN = cmd/dvdcsoak/testdata/soak-digest.golden
soak-digest-check:
	@$(MAKE) -s --no-print-directory soak-digest | diff -u $(SOAK_DIGEST_GOLDEN) - && echo "soak digests match $(SOAK_DIGEST_GOLDEN)"

# Observability demo: soak with a JSONL trace sink, render one round's
# timeline, and dump the Prometheus exposition of a live node.
obs-demo:
	$(GO) run ./cmd/dvdcsoak -seed $(SOAK_SEED) -rounds 4 -trace-jsonl /tmp/dvdc-trace.jsonl
	$(GO) run ./cmd/dvdcctl trace -in /tmp/dvdc-trace.jsonl
	$(GO) run ./cmd/dvdcctl trace -in /tmp/dvdc-trace.jsonl -epoch 2

# Short fuzzing passes over the codecs, the streamed frame reader against
# Decode, the chunk reassembly path, the scatter-gather frame encoder, the
# GF(256) slice kernel's vector and table-walk paths, the XOR slice kernels,
# a keeper's staged folds against its contiguous and whole-delta references,
# a member's pre-images against a full committed copy, a staged capture's
# chunk cursor against a page-by-page planner, and the service journal's
# recovery path. The same ten targets as CI's fuzz job.
fuzz:
	$(GO) test ./internal/wire/ -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/wire/ -fuzz FuzzReadFrame -fuzztime 30s
	$(GO) test ./internal/wire/ -fuzz FuzzChunkReassembly -fuzztime 30s
	$(GO) test ./internal/wire/ -fuzz FuzzScatterGatherFrames -fuzztime 30s
	$(GO) test ./internal/parity/ -fuzz FuzzGfSliceKernels -fuzztime 60s
	$(GO) test ./internal/parity/ -fuzz FuzzXORKernels -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzMKeeperStage -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzMemberPreimages -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzChunkCursor -fuzztime 30s
	$(GO) test ./internal/service/ -fuzz FuzzJournalReplay -fuzztime 30s

clean:
	rm -rf fig cover.out test_output.txt bench_output.txt
