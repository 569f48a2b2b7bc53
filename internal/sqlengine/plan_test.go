package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

var planSchema = stream.MustSchema(
	stream.Field{Name: "v", Type: stream.TypeInt},
	stream.Field{Name: "f", Type: stream.TypeFloat},
)

// planTable is a minimal TieredSource for tests (the real one is
// *storage.Table, which lives above this package): a window with no
// history, whose TIMED intervals it filters from the window.
type planTable struct {
	schema *stream.Schema
	elems  []stream.Element
}

func (p *planTable) Schema() *stream.Schema { return p.schema }
func (p *planTable) ReadWindow(fn func(uint64, []stream.Element)) {
	fn(0, p.elems)
}
func (p *planTable) FoldTimed(lo, hi stream.Timestamp, _ []int, _ func(int64, []int64), fn func(stream.Element) bool) error {
	for _, e := range p.elems {
		if ts := e.Timestamp(); ts >= lo && ts <= hi && !fn(e) {
			break
		}
	}
	return nil
}

func makePlanTable(t *testing.T, n int) *planTable {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pt := &planTable{schema: planSchema}
	for i := 0; i < n; i++ {
		var v stream.Value = int64(rng.Intn(100) - 50)
		if i%11 == 10 {
			v = nil // exercise NULL handling
		}
		e, err := stream.NewElement(planSchema, stream.Timestamp(i+1), v, float64(i)/3)
		if err != nil {
			t.Fatalf("NewElement: %v", err)
		}
		pt.elems = append(pt.elems, e)
	}
	return pt
}

// TestCompiledPlanMatchesExecute locks in that the deploy-time compiled
// path computes exactly what the per-trigger Execute path computes, for
// the statement shapes sensors use.
func TestCompiledPlanMatchesExecute(t *testing.T) {
	pt := makePlanTable(t, 60)
	queries := []string{
		"select * from w",
		"select v, f from w",
		"select w.v from w",
		"select v + 1 as inc, f * 2 as dbl from w where v > 0",
		"select count(*) as n, sum(v) as s, avg(v) as a, min(v) as mn, max(v) as mx from w",
		"select last(v) as l, first(v) as fi from w",
		"select v from w order by v desc limit 5",
		"select distinct v from w order by v",
		"select v, count(*) as n from w group by v having count(*) > 1",
		"select v from w as x where x.v < 0",
		"select stddev(v) as sd from w",
	}
	for _, q := range queries {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		plan, err := Compile(stmt, ColumnsOfSchema(planSchema), "w")
		if err != nil {
			t.Fatalf("%s: compile: %v", q, err)
		}
		view := RelationOfSource(pt)
		cat := MapCatalog{stream.CanonicalName("w"): view}
		want, err := Execute(stmt, cat, Options{})
		if err != nil {
			t.Fatalf("%s: execute: %v", q, err)
		}
		got, err := plan.Execute(RowsOfSource(pt), Options{})
		if err != nil {
			t.Fatalf("%s: plan execute: %v", q, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s:\ncompiled:\n%s\nexecute:\n%s", q, got, want)
		}
		direct, err := plan.ExecuteTiered(pt, Options{})
		if err != nil {
			t.Fatalf("%s: plan execute tiered: %v", q, err)
		}
		if direct.String() != want.String() {
			t.Errorf("%s:\ncompiled source:\n%s\nexecute:\n%s", q, direct, want)
		}
	}

	// Stream queries: a plan over the product of several inputs (a
	// sensor's source results) answers as the interpreter's cross join
	// over a catalog of the same relations, row order included.
	inputs, rels, cat := productInputs(pt)
	for _, c := range []struct {
		q       string
		maxRows int
	}{
		{q: "select * from a, b"},
		{q: "select a.v, b.f from a, b where a.v > b.v"},
		{q: "select b.v, c.f as cf, a.v as av from b, c, a where a.v < 0"},
		{q: "select x.v, y.f from c x, b y"},
		{q: "select * from a, e"},
		{q: "select count(*) as n from b, e"},
		{q: "select count(*) as n, sum(a.v * b.v) as s, avg(c.f) as m, max(b.f) as mx from a, b, c"},
		{q: "select b.v, count(*) as n from a, b where a.v > 0 group by b.v having count(*) > 2"},
		{q: "select a.v + b.v as s, c.v from a, b, c order by s desc, c.v limit 7"},
		{q: "select * from a, b", maxRows: 100},
	} {
		stmt, err := sqlparser.Parse(c.q)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.q, err)
		}
		plan, err := CompileProduct(stmt, inputs...)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.q, err)
		}
		if plan.Incremental() != nil {
			t.Errorf("%s: a product plan is not maintainable", c.q)
		}
		opts := Options{MaxRows: c.maxRows}
		want, wantErr := Execute(stmt, cat, opts)
		got, err := plan.ExecuteProduct(rels, opts)
		if c.maxRows > 0 && wantErr == nil {
			t.Errorf("%s: a product past MaxRows ran", c.q)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, interpreter %v", c.q, err, wantErr)
			continue
		}
		if wantErr == nil && got.String() != want.String() {
			t.Errorf("%s:\ncompiled:\n%s\nexecute:\n%s", c.q, got, want)
		}
	}
}

// productInputs names four relations over planSchema: a (all of pt's
// rows), b (seven), c (three) and e (empty), as plan inputs, as the
// relations in that order and as a catalog.
func productInputs(pt *planTable) ([]Input, []*Relation, MapCatalog) {
	cat := MapCatalog{}
	var inputs []Input
	var rels []*Relation
	for i, elems := range [][]stream.Element{pt.elems, pt.elems[10:17], pt.elems[40:43], nil} {
		name := []string{"A", "B", "C", "E"}[i]
		rel := RelationOfSource(&planTable{schema: planSchema, elems: elems})
		inputs = append(inputs, Input{Cols: ColumnsOfSchema(planSchema), Names: []string{name}})
		rels = append(rels, rel)
		cat[name] = rel
	}
	return inputs, rels, cat
}

// TestCompileRejectsUnsupportedShapes: statements the compiler cannot
// bind must be refused so the container falls back to Execute — a Plan
// never runs the interpreter on the caller's behalf.
func TestCompileRejectsUnsupportedShapes(t *testing.T) {
	bad := []string{
		"select * from w a, w b",
		"select * from w union select * from w",
		"select * from (select v from w) d",
		"select a.v from w a join w b on a.v = b.v",
		"select * from other",
		"select v from w where v > (select avg(v) from w)",
		"select v, (select max(f) from w) as top from w",
		"select v from w where exists (select 1 from w x where x.v > 0)",
		"select v from w where v in (select v from w where f > 1)",
		"select v, count(*) as n from w group by v having count(*) > (select 1)",
		"select frobnicate(v) as x from w",
		"select nosuch from w",
		"select sum(count(v)) as s from w",
	}
	for _, q := range bad {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		if _, err := Compile(stmt, ColumnsOfSchema(planSchema), "w"); err == nil {
			t.Errorf("%s: compile should have been rejected", q)
		}
	}

	// Over several inputs, a FROM item must name a distinct input and a
	// bare column one input only.
	inputs, _, _ := productInputs(makePlanTable(t, 60))
	for _, q := range []string{
		"select v from a, b",
		"select a.v from a, b where f > 0",
		"select * from a, b, a",
		"select * from a x, a y",
		"select a.v from a join b on a.v = b.v",
		"select * from a, other",
		"select 1 as one",
	} {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		if _, err := CompileProduct(stmt, inputs...); err == nil {
			t.Errorf("%s: compile should have been rejected", q)
		}
	}
}

// TestScanBuildsOnlyReadColumns pins which input columns a scan builds
// rows from: exactly those the statement references (v, f, TIMED are
// columns 0, 1, 2), so an aggregate over one field copies that field and
// never boxes TIMED. That the rows so built answer like whole rows is
// TestBatchFedRunMatchesExecute's.
func TestScanBuildsOnlyReadColumns(t *testing.T) {
	for sql, want := range map[string][]int{
		"select count(*) from w":                                      nil,
		"select avg(f) from w":                                        {1},
		"select max(timed) from w":                                    {2},
		"select * from w where v > 0":                                 {0, 1, 2},
		"select v from w order by f":                                  {0, 1},
		"select v, count(*) from w group by v having max(f) > 1":      {0, 1},
		"select count(*) from w where timed >= now() - 10 group by f": {1, 2},
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		plan, err := Compile(stmt, ColumnsOfSchema(planSchema), "w")
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := plan.prog.reads; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: scan reads columns %v, want %v", sql, got, want)
		}
	}
}

// BenchmarkExecuteTieredAggregate is the trigger of an aggregate-only
// source whose maintainer is poisoned: one scan of the window through
// ExecuteTiered.
func BenchmarkExecuteTieredAggregate(b *testing.B) {
	stmt, err := sqlparser.Parse("select count(*) as n, sum(v) as s, avg(f) as a, max(v) as mx from w")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Compile(stmt, ColumnsOfSchema(planSchema), "w")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 1000} {
		pt := &planTable{schema: planSchema}
		for i := 0; i < n; i++ {
			e, err := stream.NewElement(planSchema, stream.Timestamp(i+1), int64(i%97), float64(i)/3)
			if err != nil {
				b.Fatal(err)
			}
			pt.elems = append(pt.elems, e)
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.ExecuteTiered(pt, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
