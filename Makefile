GO ?= go

.PHONY: all build vet test race bench-gate bench-pairs benchsmoke examples-smoke docs-check chaos ci loc

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
# without paying for full measurement runs. -cpu 1,4 exercises the
# worker-pool multi-core paths alongside the single-core ones.
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
# torn/corrupted responses, peer restarts — exactly-once must hold),
# and the 4-node federation under the same storms (TestClusterChaos:
# cross-node composition, partitioned-coordinator query semantics,
# routed registrations surviving peer restarts), beside the peer long
# polls' wake-up contract (TestLongPoll*), the shared routed-results
# loop (TestRoutedResultsShareOnePoll), a maintained time-window
# source read by triggers while it is written (TestTimeWindowMaintainer*),
# and the run-to-completion contracts: concurrent arrivals on one stream
# evaluate one at a time, a redeploy waits for the evaluation in flight,
# no subscriber call after Unsubscribe returns.
# See docs/operations.md for the contract these tests enforce.
chaos:
	$(GO) test -race -count=2 -timeout 600s \
		-run 'TestChaos|TestNetChaos|TestClusterChaos|TestLongPoll|TestRoutedResults|TestTimeWindowMaintainer|TestWALFaultMatrix|TestBackgroundFlush|TestSupervision|TestCheckpointMetaFault|TestHistoryPageWriteFault|TestConcurrentArrivals|TestRedeployWaitsFor|TestUnsubscribeRacingPublish' \
		./internal/core ./internal/storage ./internal/p2p ./internal/notify

# ci is the tier-1 gate: everything a fresh clone must pass.
ci: vet build race benchsmoke examples-smoke docs-check chaos
