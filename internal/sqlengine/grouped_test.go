package sqlengine

import (
	"math/rand"
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

func TestGroupedIncrementalProgramDetection(t *testing.T) {
	eligible := []string{
		"select v, count(*) as n from w group by v",
		"select v, count(f) as n, sum(f) as s, avg(f) as a from w group by v",
		"select v, f, min(timed) as oldest from w group by v, f",
		"select count(*) as n, v from w group by v", // key after aggregate
		"select v from w group by v",                // no aggregates: live-group tracking
		"select w.v, max(f) as mx from w group by w.v",
	}
	for _, q := range eligible {
		plan := compilePlan(t, q)
		if plan.IncrementalGrouped() == nil {
			t.Errorf("%s: should be incrementally maintainable (grouped)", q)
		}
		if plan.Incremental() != nil {
			t.Errorf("%s: grouped shape must not qualify for the ungrouped program", q)
		}
	}
	ineligible := []string{
		"select count(*) as n from w",                                   // ungrouped: AggMaintainer's job
		"select v, count(*) as n from w where f > 0 group by v",         // WHERE needs rescan
		"select v, count(*) as n from w group by v having count(*) > 1", // HAVING
		"select v % 7 as b, count(*) as n from w group by v % 7",        // expression key
		"select v, f from w group by v",                                 // projects a non-key column
		"select v, count(distinct f) as n from w group by v",            // distinct
		"select v, stddev(f) as sd from w group by v",                   // not in the inc set
		"select v, first(f) as ff from w group by v",                    // FIRST needs the head
		"select v, sum(f + 1) as s from w group by v",                   // non-column argument
		"select v, count(*) as n from w group by v order by n",          // ORDER BY
		"select v, count(*) as n from w group by v limit 2",             // LIMIT
		"select distinct v, count(*) as n from w group by v",            // DISTINCT
	}
	for _, q := range ineligible {
		if plan := compilePlan(t, q); plan.IncrementalGrouped() != nil {
			t.Errorf("%s: should NOT be incrementally maintainable (grouped)", q)
		}
	}
}

// groupedRelsEqual compares relations cell by cell, tolerating float
// rounding differences between running-sum and rescanned aggregates.
func groupedRelsEqual(a, b *Relation) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for r := range a.Rows {
		if len(a.Rows[r]) != len(b.Rows[r]) {
			return false
		}
		for i := range a.Rows[r] {
			av, bv := a.Rows[r][i], b.Rows[r][i]
			af, aok := av.(float64)
			bf, bok := bv.(float64)
			if aok && bok {
				d := af - bf
				if d < -1e-9 || d > 1e-9 {
					return false
				}
				continue
			}
			if av != bv {
				return false
			}
		}
	}
	return true
}

// TestGroupedAggMaintainerMatchesExecute simulates a sliding count
// window with random inserts (NULLs, floats, truncates) and checks
// after every step that the maintained grouped result — including the
// first-seen group order eviction reshuffles — equals full
// re-execution over the live window.
func TestGroupedAggMaintainerMatchesExecute(t *testing.T) {
	const query = "select v, count(*) as n, count(f) as nf, sum(f) as s, " +
		"avg(f) as a, min(f) as mn, max(f) as mx, last(f) as l from w group by v"
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, ColumnsOfSchema(planSchema), "w")
	if err != nil {
		t.Fatal(err)
	}
	prog := plan.IncrementalGrouped()
	if prog == nil {
		t.Fatal("query should be incrementally maintainable (grouped)")
	}
	m := NewGroupedAggMaintainer(prog)

	const windowSize = 24
	rng := rand.New(rand.NewSource(43))
	var live []stream.Element
	for step := 0; step < 500; step++ {
		// Few distinct keys so groups churn: appear, evict empty,
		// reappear with a later first-live row (the order-reshuffle
		// case).
		var v stream.Value = int64(rng.Intn(5))
		if rng.Intn(9) == 0 {
			v = nil // NULL keys group together
		}
		var f stream.Value = rng.Float64()*10 - 5
		if rng.Intn(7) == 0 {
			f = nil
		}
		e, err := stream.NewElement(planSchema, stream.Timestamp(step+1), v, f)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
		m.OnInsert(e)
		for len(live) > windowSize {
			m.OnEvict(live[0])
			live = live[1:]
		}
		if step > 0 && rng.Intn(60) == 0 {
			m.OnTruncate()
			live = nil
		}

		got := m.Result()
		if got == nil {
			t.Fatalf("step %d: maintainer poisoned unexpectedly", step)
		}
		pt := &planTable{schema: planSchema, elems: live}
		want, err := Execute(stmt, MapCatalog{stream.CanonicalName("w"): RelationOfSource(pt)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !groupedRelsEqual(got, want) {
			t.Fatalf("step %d (live=%d):\nincremental:\n%s\nexecute:\n%s",
				step, len(live), got.String(), want.String())
		}
	}
}

// TestGroupedAggMaintainerPoisoned: indigestible inputs and
// attach-without-replay evictions must poison the maintainer (callers
// fall back to full execution), and truncate must reset it.
func TestGroupedAggMaintainerPoisoned(t *testing.T) {
	strSchema := stream.MustSchema(
		stream.Field{Name: "k", Type: stream.TypeString},
		stream.Field{Name: "s", Type: stream.TypeString},
	)
	stmt, err := sqlparser.Parse("select k, sum(s) as x from w group by k")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, ColumnsOfSchema(strSchema), "w")
	if err != nil {
		t.Fatal(err)
	}
	m := NewGroupedAggMaintainer(plan.IncrementalGrouped())
	e, err := stream.NewElement(strSchema, 1, "room-a", "not-a-number")
	if err != nil {
		t.Fatal(err)
	}
	m.OnInsert(e)
	if m.Result() != nil {
		t.Error("maintainer should be poisoned by SUM over a string")
	}
	m.OnTruncate()
	if m.Result() == nil {
		t.Error("truncate should reset the poisoned state")
	}
	// Evicting an element that was never inserted (observer attached
	// mid-window without replay) must poison, not drift.
	m.OnEvict(e)
	if m.Result() != nil {
		t.Error("eviction of an unseen element should poison the maintainer")
	}
}

// TestGroupedAggMaintainerFloatResync mirrors the ungrouped drift
// bound: enough evicted float inputs request a rebuild; truncate +
// replay clears it.
func TestGroupedAggMaintainerFloatResync(t *testing.T) {
	plan := compilePlan(t, "select v, sum(f) as s from w group by v")
	m := NewGroupedAggMaintainer(plan.IncrementalGrouped())
	e, err := stream.NewElement(planSchema, 1, int64(3), 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < resyncFloatEvery+10; i++ {
		m.OnInsert(e)
		m.OnEvict(e)
	}
	if !m.NeedsResync() {
		t.Fatalf("resync not requested after %d float evictions", resyncFloatEvery+10)
	}
	m.OnTruncate()
	m.OnInsert(e)
	if m.NeedsResync() {
		t.Error("rebuild should clear the resync request")
	}
	got := m.Result()
	if got == nil || len(got.Rows) != 1 || got.Rows[0][1] != 2.5 {
		t.Errorf("grouped sum after rebuild = %v, want one row with 2.5", got)
	}
}
