GO ?= go

.PHONY: all build vet test race bench-gate bench-pairs bench-once benchsmoke examples-smoke docs-check chaos fuzz-smoke ci loc

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-gate compares two sets of end-to-end benchmark records (the
# JSONL files `go run ./benchmark ... -out FILE` appends to; see
# benchmark/README.md) and fails on a regressed workload x metric cell.
# The four workloads already smoke inside `go test ./...`.
bench-gate:
	@test -n "$(PARENT)" -a -n "$(CHANGE)" || { echo "usage: make bench-gate PARENT=a.jsonl CHANGE=b.jsonl"; exit 2; }
	$(GO) run ./benchmark -compare $(PARENT) $(CHANGE)

# bench-pairs is the whole paired measurement of a change against a
# parent commit (the choosing-metrics protocol: equal seeds per pair,
# alternating order, the benchmark's own run length), ending in the same
# comparison bench-gate prints. SEED is the first pair's seed: measure on
# seeds not used while writing the change. With a WORKLOADS subset the
# comparison still prints its rows and then exits 1: the gate is green
# only over all four workloads.
WORKLOADS ?= pipeline_steady ingest_saturate query_mix cluster_edge
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	@test -n "$(PARENT)" || { echo 'usage: make bench-pairs PARENT=<git-ref> [WORKLOADS="pipeline_steady ..."] [PAIRS=10] [SEED=1]'; exit 2; }
	bash scripts/bench-pairs.sh "$(PARENT)" "$(WORKLOADS)" "$(PAIRS)" "$(SEED)"

# bench-once runs each of WORKLOADS once from the working tree, at the
# benchmark's own run length, and fails naming the first workload whose
# run exits non-zero (a failed operation or a wrong answer does that):
# the gate refuses a change whose run fails, whatever its numbers, and
# benchsmoke only runs the workloads at smoke length.
bench-once:
	@for w in $(WORKLOADS); do \
		echo "== $$w seed $(SEED)" >&2; \
		out=$$(bash benchmark/run.sh --workload $$w --seed $(SEED) --trace 0 2>&1) || { \
			printf '%s\n' "$$out" | tail -n 20 >&2; \
			echo "bench-once: workload $$w exited non-zero" >&2; exit 1; }; \
		printf '%s\n' "$$out" | tail -n 1; \
	done

# loc prints the sizes ROADMAP.md tracks: tracked Go lines per layer row,
# non-test and test apart, benchmark/ on its own row. REF=<git-ref>
# counts a commit instead of the work tree (a PR's parent -> change).
loc:
	@bash scripts/loc.sh $(REF)

# docs-check keeps the documentation honest: relative markdown links
# must resolve, and every ```sql example in docs/sql-dialect.md must
# execute against the fixture catalog.
docs-check:
	$(GO) run ./cmd/docs-check

# benchsmoke compiles and runs every benchmark once and regenerates the
# paper's evaluation in quick mode, so harness rot is caught on every PR
# without paying for full measurement runs. -cpu 1,4 runs every
# benchmark at GOMAXPROCS 1 and 4, so code whose behaviour depends on
# the processor count runs both ways.
benchsmoke:
	$(GO) test -run xxx -bench . -benchtime 1x -cpu 1,4 ./...
	$(GO) run ./cmd/gsn-bench -experiment all -quick

# examples-smoke runs the self-terminating examples end to end (a
# deterministic composition pipeline and the real-time quickstart), so
# the public API surface they exercise cannot rot silently.
examples-smoke:
	timeout 120 $(GO) run ./examples/layered
	timeout 120 $(GO) run ./examples/quickstart

# chaos runs the fault-injection storms twice under the race detector:
# a three-tier pipeline with randomized disk faults (TestChaos), the
# WAL fault matrix and self-healing recovery paths, the two-node
# replication pipeline under network chaos (TestNetChaos: partitions,
# torn/corrupted responses, peer restarts — exactly-once must hold;
# truncated query and results answers never decode),
# and the 4-node federation under the same storms (TestClusterChaos:
# cross-node composition, partitioned-coordinator query semantics,
# routed registrations surviving peer restarts), beside the peer long
# polls' wake-up contract (TestLongPoll*), the shared routed-results
# loop (TestRoutedResultsShareOnePoll), a maintained time-window
# source read by triggers while it is written (TestTimeWindowMaintainer*),
# filtered registered queries joining and leaving the maintained tier
# while their window is written (TestFilteredMaintainerRace),
# and the run-to-completion contracts: concurrent arrivals on one stream
# evaluate one at a time, a redeploy waits for the evaluation in flight,
# no subscriber call after Unsubscribe returns; registered queries are
# answered on the producer (TestSweepRunsOnTheProducer), no callback runs
# after Undeploy returns (TestUndeployWaitsForRegisteredQuerySweep), and
# two input streams of one sensor sweep at once without a race or a
# wrong answer (TestConcurrentStreamsSweep); and a redeploy builds its
# replacement beside the running sensor: 50 redeploys, valid and
# refused in turn, under a pulsing goroutine, where a refused one leaves
# the runtime and its windows as they were (TestRedeployBesideRunningSensor);
# and a TIMED-range statement over a history tier a page-write fault
# disabled fails with the tier's error on the compiled path and the
# interpreter alike, never answering from the hot window alone
# (TestHistoryBrokenTierFailsRangeStatements).
# See docs/operations.md for the contract these tests enforce.
chaos:
	$(GO) test -race -count=2 -timeout 600s \
		-run 'TestChaos|TestNetChaos|TestClusterChaos|TestLongPoll|TestRoutedResults|TestTimeWindowMaintainer|TestWALFaultMatrix|TestBackgroundFlush|TestSupervision|TestCheckpointMetaFault|TestHistoryPageWriteFault|TestConcurrentArrivals|TestRedeployWaitsFor|TestUnsubscribeRacingPublish|TestFilteredMaintainerRace|TestUndeployWaitsForRegisteredQuerySweep|TestSweepRunsOnTheProducer|TestConcurrentStreamsSweep|TestRedeployBesideRunningSensor|TestHistoryBrokenTier' \
		./internal/core ./internal/storage ./internal/p2p ./internal/notify

# fuzz-smoke runs three fuzzers for a few seconds each: the maintained
# tier against the bound scan (random WHEREs over int, float and string
# columns, with or without a `now()`-relative lower bound on timed, read
# at random points among inserts, evictions, truncates, resets and clock
# moves, backwards included),
# the peer-answer decoders on arbitrary bytes (no panic, allocation
# bounded by the input, an answer that decodes re-encodes to the same
# bytes), and the history index against a sorted reference (ascending,
# equal-timestamp and out-of-order key runs between checkpoints, TIMED
# ranges on and beside its separators). Their seed corpora run in every
# `go test`. A failing input
# lands in the package's testdata/fuzz, where `go test` replays it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzMaintainedMatchesScan$$' -fuzztime=10s -parallel 2 ./internal/sqlengine
	$(GO) test -run '^$$' -fuzz '^FuzzPeerAnswerDecode$$' -fuzztime=10s -parallel 2 ./internal/p2p
	$(GO) test -run '^$$' -fuzz '^FuzzHistoryIndex$$' -fuzztime=10s -parallel 2 ./internal/storage

# ci is the tier-1 gate: everything a fresh clone must pass.
ci: vet build race benchsmoke examples-smoke docs-check chaos fuzz-smoke
