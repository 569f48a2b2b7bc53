#!/usr/bin/env bash
# The sizes ROADMAP.md tracks, as one command: lines of tracked Go per
# layer row of its "Architecture today" table, non-test and test apart,
# the frozen benchmark/ on a row of its own, and the number every PR
# quotes — non-test lines outside benchmark/.
#
#   scripts/loc.sh [git-ref]     (default: the tracked files of the work tree)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
ref=${1:-}

# `git grep -c ''` prints [ref:]file:lines for every tracked file.
git grep -c '' ${ref:+"$ref"} -- '*.go' | sed "s|^${ref:+$ref:}||" | awk -F: '
BEGIN {
	n = split("internal/storage|^internal/storage/;" \
		"internal/sqlengine + sqlparser|^internal/sql(engine|parser)/;" \
		"  internal/sqlengine|^internal/sqlengine/;" \
		"internal/core|^internal/core/;" \
		"internal/p2p|^internal/p2p/;" \
		"wrappers ... metrics (11 packages)|^internal/(wrappers|stream|quality|notify|web|vsensor|directory|resilience|integrity|access|metrics)/;" \
		"internal/bench, cmd, examples, root|^(internal/bench/|cmd/|examples/|[^/]+$);" \
		"outside benchmark/|^(internal/|cmd/|examples/|[^/]+$);" \
		"benchmark/|^benchmark/", rows, ";")
}
{
	test = $1 ~ /_test\.go$/
	for (i = 1; i <= n; i++) {
		split(rows[i], r, "|")
		re = substr(rows[i], length(r[1]) + 2)
		if ($1 ~ re) { sum[i, test] += $2; hit = 1 }
	}
	if (!hit) { print "loc.sh: " $1 " is in no row" > "/dev/stderr"; bad = 1 }
	hit = 0
}
END {
	printf "%-42s %8s %8s\n", "layer", "non-test", "test"
	for (i = 1; i <= n; i++) {
		split(rows[i], r, "|")
		printf "%-42s %8d %8d\n", r[1], sum[i, 0], sum[i, 1]
	}
	exit bad
}'
