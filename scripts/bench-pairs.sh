#!/usr/bin/env bash
# The ten-pair protocol as one command: build a parent commit beside the
# working tree, run the end-to-end benchmark from both trees with the same
# seed per pair and alternating which side runs first, then compare.
#
#   scripts/bench-pairs.sh <parent-git-ref> "<workload> ..." <pairs> <first-seed>
#
# The parent is a detached `git worktree` at .bench_build/parent, removed on
# exit; each side builds from its own source with its own benchmark/run.sh,
# at the run length the benchmark fixes. Records land in
# .bench_build/pairs/{parent,change}.jsonl (kept, for CHANGES.md) and go
# through `go run ./benchmark -compare`, the same gate as `make bench-gate`.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 <parent-git-ref> \"<workload> ...\" <pairs> <first-seed>" >&2
	exit 2
fi
parent_ref=$1 workloads=$2 pairs=$3 first_seed=$4

root=$(git rev-parse --show-toplevel)
cd "$root"
tree="$root/.bench_build/parent"
out="$root/.bench_build/pairs"
mkdir -p "$out"
rm -f "$out/parent.jsonl" "$out/change.jsonl"
git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --detach "$tree" "$parent_ref" >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

run_side() { # side workload seed
	local dir=$root
	[ "$1" = parent ] && dir=$tree
	echo "== $2 seed $3: $1" >&2
	(cd "$dir" && bash benchmark/run.sh --workload "$2" --seed "$3" --trace 0 -out "$out/$1.jsonl") | tail -n 1
}

for w in $workloads; do
	for ((i = 0; i < pairs; i++)); do
		seed=$((first_seed + i))
		if ((i % 2 == 0)); then
			run_side parent "$w" "$seed"
			run_side change "$w" "$seed"
		else
			run_side change "$w" "$seed"
			run_side parent "$w" "$seed"
		fi
	done
done
go run ./benchmark -compare "$out/parent.jsonl" "$out/change.jsonl"
