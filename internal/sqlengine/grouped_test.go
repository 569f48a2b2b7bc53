package sqlengine

import (
	"testing"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// compilePlan parses and compiles one statement against the shared
// plan-test schema.
func compilePlan(t *testing.T, q string) *Plan {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatalf("%s: parse: %v", q, err)
	}
	plan, err := Compile(stmt, ColumnsOfSchema(planSchema), "w")
	if err != nil {
		t.Fatalf("%s: compile: %v", q, err)
	}
	return plan
}

// TestCompiledGroupedMatchesExecute pins the grouped bound-program
// tier: hash-grouped aggregation, compiled GROUP BY keys (plain and
// expression), HAVING as a post-aggregation predicate, grouped ORDER
// BY — all byte-identical to the interpreted path, including the
// empty-input and HAVING-filters-all-groups edges.
func TestCompiledGroupedMatchesExecute(t *testing.T) {
	for _, nrows := range []int{0, 1, 60} {
		pt := makePlanTable(t, nrows)
		view := RelationOfSource(pt)
		cat := MapCatalog{stream.CanonicalName("w"): view}
		for _, q := range groupedShapes {
			plan := compilePlan(t, q)
			stmt, _ := sqlparser.Parse(q)
			want, err := Execute(stmt, cat, Options{})
			if err != nil {
				t.Fatalf("%s: execute: %v", q, err)
			}
			got, err := plan.Execute(RowsOfSource(pt), Options{})
			if err != nil {
				t.Fatalf("%s: plan execute: %v", q, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s (rows=%d):\ncompiled:\n%s\nexecute:\n%s", q, nrows, got, want)
			}
		}
	}
}

// groupedShapes are the grouped statements of the bound-program tier.
var groupedShapes = []string{
	"select v, count(*) as n from w group by v",
	"select v, count(*) as n, sum(f) as s, avg(f) as a from w group by v",
	"select v, min(f) as mn, max(f) as mx, last(f) as l from w group by v",
	"select v % 7 as bucket, count(*) as n from w group by v % 7",
	"select v, f, count(*) as n from w group by v, f",
	"select v, count(*) as n from w where f > 5 group by v",
	"select v, count(*) as n from w group by v having count(*) > 1",
	"select v, count(*) as n from w group by v having count(*) > 10000", // filters all groups
	"select v, avg(f) as a from w group by v having avg(f) > 9 and v is not null",
	"select v, count(*) as n from w group by v order by n desc, v",
	"select v, count(*) as n from w group by v order by count(*) desc limit 3",
	"select v, count(*) as n from w where v > 100000 group by v", // empty input, GROUP BY: no rows
	"select count(*) as n from w where v > 100000",               // empty input, no GROUP BY: one row
	"select v + 0 as k, sum(v) as s from w group by v + 0",
	"select v, f, count(*) as n from w group by v having f is not null", // rep row read by projection and HAVING
}
