package sqlengine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// tickingClock advances on every reading and counts them, so a second
// reading inside one execution shows both in the count and in the rows.
type tickingClock struct {
	t     stream.Timestamp
	reads int
}

func (c *tickingClock) Now() stream.Timestamp {
	c.reads++
	c.t += 1000
	return c.t
}

// tieredPlanTable gives planTable the FoldTimed half of TieredSource,
// as a tier without page summaries, recording the intervals it was
// asked for and the columns of each fold it was offered. failAfter > 0
// makes the tier fail once it has yielded that many elements.
type tieredPlanTable struct {
	*planTable
	ranges    []string
	folds     []string
	failAfter int
}

func (p *tieredPlanTable) FoldTimed(lo, hi stream.Timestamp, cols []int, page func(int64, []int64), fn func(stream.Element) bool) error {
	p.ranges = append(p.ranges, fmt.Sprintf("[%d,%d]", lo, hi))
	if page != nil {
		p.folds = append(p.folds, fmt.Sprint(cols))
	}
	n := 0
	for _, e := range p.elems {
		if ts := e.Timestamp(); ts >= lo && ts <= hi {
			if p.failAfter > 0 && n == p.failAfter {
				return fmt.Errorf("tier failed")
			}
			n++
			if !fn(e) {
				return nil
			}
		}
	}
	return nil
}

func mustParse(t *testing.T, q string) *sqlparser.SelectStatement {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatalf("%s: parse: %v", q, err)
	}
	return stmt
}

// TestOneClockReadingPerExecution runs NOW()-bearing statements through
// every driver on a clock that ticks at each reading: the clock must be
// read exactly once per execution, and every row and every clause —
// WHERE, projection, GROUP BY, HAVING, ORDER BY, a NOW() subquery — must
// see that one instant. Columns named T… hold NOW()-derived values that
// must equal the instant; the WHERE/HAVING clauses compare against it so
// a second reading would also change which rows survive.
func TestOneClockReadingPerExecution(t *testing.T) {
	const start, instant = 500_000, 501_000
	pt := makePlanTable(t, 40)
	cat := MapCatalog{"W": RelationOfSource(pt)}

	drivers := []struct {
		name string
		run  func(t *testing.T, q string, opts Options) (*Relation, error)
	}{
		{"interpreter", func(t *testing.T, q string, opts Options) (*Relation, error) {
			return Execute(mustParse(t, q), cat, opts)
		}},
		{"plan.Execute", func(t *testing.T, q string, opts Options) (*Relation, error) {
			return compilePlan(t, q).Execute(RowsOfSource(pt), opts)
		}},
		{"plan.ExecuteSource", func(t *testing.T, q string, opts Options) (*Relation, error) {
			return compilePlan(t, q).ExecuteSource(pt, opts)
		}},
	}
	statements := []struct {
		sql   string
		bound bool // compiles; the others run on the interpreter alone
		rows  int
	}{
		{"select now() as t1, now() + 0 as t2, v from w where timed < now() and now() = now() order by now() - timed", true, 40},
		{"select now() as t1, v from w where timed between now() - 501000 and now() - 500980", true, 20},
		{"select v, now() as t1, count(*) as n from w group by v, now() having now() = " + fmt.Sprint(instant), true, -1},
		{"select case when now() > 0 then now() else 0 end as t1, coalesce(null, now()) as t2 from w limit 3", true, 3},
		{"select now() as t1, (select now()) as t2, (select max(now()) from w) as t3 from w where timed < (select now())", false, 40},
	}
	for _, d := range drivers {
		for _, st := range statements {
			t.Run(d.name+"/"+st.sql, func(t *testing.T) {
				if _, err := Compile(mustParse(t, st.sql), ColumnsOfSchema(planSchema), "w"); (err == nil) != st.bound {
					t.Fatalf("Compile error = %v, want a plan: %v", err, st.bound)
				}
				if !st.bound && d.name != "interpreter" {
					return
				}
				clock := &tickingClock{t: start}
				rel, err := d.run(t, st.sql, Options{Clock: clock})
				if err != nil {
					t.Fatal(err)
				}
				if clock.reads != 1 {
					t.Errorf("clock read %d times in one execution, want 1", clock.reads)
				}
				if st.rows >= 0 && len(rel.Rows) != st.rows {
					t.Errorf("%d rows, want %d", len(rel.Rows), st.rows)
				}
				if len(rel.Rows) == 0 {
					t.Fatal("no rows: the instant was not the one the clauses compared against")
				}
				for i, c := range rel.Cols {
					if c.Name[0] != 'T' {
						continue
					}
					for r, row := range rel.Rows {
						if row[i] != int64(instant) {
							t.Fatalf("row %d column %s = %v, want the execution's instant %d", r, c.Name, row[i], instant)
						}
					}
				}
			})
		}
	}

	t.Run("ExecutePartial+MergePartials", func(t *testing.T) {
		plan := compilePlan(t,
			"select v, count(*) as n, now() as t1 from w where timed < now() group by v having now() > 0")
		clock := &tickingClock{t: start}
		part, err := plan.ExecutePartial(RowsOfSource(pt), Options{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		if clock.reads != 1 || part.Rows != 40 {
			t.Fatalf("ExecutePartial: %d clock reads, %d rows kept; want 1 and 40", clock.reads, part.Rows)
		}
		rel, err := plan.MergePartials([]*PartialRollup{part}, Options{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		if clock.reads != 2 {
			t.Fatalf("MergePartials read the clock %d times, want 1", clock.reads-1)
		}
		for _, row := range rel.Rows {
			if row[2] != int64(instant+1000) {
				t.Fatalf("merged row %v: t1 is not the merge's one instant", row)
			}
		}
	})

	t.Run("ExecuteTiered", func(t *testing.T) {
		plan := compilePlan(t,
			"select now() as t1, v from w where timed >= now() - 500990 and timed <= now()")
		src := &tieredPlanTable{planTable: pt}
		clock := &tickingClock{t: start}
		rel, err := plan.ExecuteTiered(src, Options{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		// The pushed-down interval, the re-applied WHERE and the
		// projection all come from the one reading.
		if clock.reads != 1 || len(src.ranges) != 1 || src.ranges[0] != "[10,501000]" {
			t.Fatalf("clock reads %d, ranges %v", clock.reads, src.ranges)
		}
		if len(rel.Rows) != 31 || rel.Rows[0][0] != int64(instant) {
			t.Fatalf("tiered rows = %d, first %v", len(rel.Rows), rel.Rows[0])
		}
	})

	t.Run("no NOW, no reading", func(t *testing.T) {
		clock := &tickingClock{t: start}
		if _, err := compilePlan(t, "select v from w where v > 0").Execute(RowsOfSource(pt), Options{Clock: clock}); err != nil {
			t.Fatal(err)
		}
		if clock.reads != 0 {
			t.Errorf("clock read %d times by a statement without NOW()", clock.reads)
		}
	})
}

// TestRowIndependentSubtreesFoldLazily pins that hoisting a
// row-independent subtree out of the scan changes neither results nor
// errors: the bound program must raise a constant subtree's error
// exactly when the interpreter's per-row evaluation reaches it — not at
// all over an empty input or behind a short-circuit — and with the same
// text. An eager fold (evaluating the subtree at bind time or before
// the scan) fails the empty-input and short-circuit cases.
func TestRowIndependentSubtreesFoldLazily(t *testing.T) {
	statements := []string{
		"select v from w where 1/0 = 1",
		"select v from w where v > -1000 or 1/0 = 1",
		"select v from w where now() - 'x' > 0",
		"select v from w where v > -1000 or now() - 'x' > 0",
		"select v from w where v is null and sqrt(-1) > 0",
		"select v from w where v < -1000 and abs('x') = 1",
		"select count(*) as n from w having now() - 'x' > 0",
		"select v, count(*) as n from w group by v having now() - 'x' > 0",
		"select v, count(*) as n from w where v > 1000 group by v having sqrt(-1) > 0",
		"select case when v > -1000 then 1 else abs('x') end as c from w",
		"select coalesce(v, -1) as c from w order by now() - 'x'",
		"select v from w limit 2 - 'x'",
	}
	sawError, sawRows := false, false
	for _, nrows := range []int{0, 1, 30} {
		pt := makePlanTable(t, nrows)
		cat := MapCatalog{"W": RelationOfSource(pt)}
		for _, q := range statements {
			stmt, plan := mustParse(t, q), compilePlan(t, q)
			want, wantErr := Execute(stmt, cat, Options{})
			got, gotErr := plan.Execute(RowsOfSource(pt), Options{})
			if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
				t.Errorf("%s (rows=%d):\ninterpreted error: %v\nbound error:       %v", q, nrows, wantErr, gotErr)
				continue
			}
			if wantErr != nil {
				sawError = true
				continue
			}
			if got.String() != want.String() {
				t.Errorf("%s (rows=%d):\nbound:\n%s\ninterpreted:\n%s", q, nrows, got, want)
			}
			sawRows = sawRows || len(want.Rows) > 0
		}
	}
	if !sawError || !sawRows {
		t.Fatalf("matrix is vacuous: saw an error %v, saw rows %v", sawError, sawRows)
	}
}

// TestHoistedSubtreesMatchExecute extends the tier equivalence to
// row-independent subtrees in every clause that binds expressions:
// WHERE, projection, GROUP BY key, HAVING, ORDER BY and CASE arms, over
// a frozen clock so the statements are comparable across executions.
func TestHoistedSubtreesMatchExecute(t *testing.T) {
	opts := Options{Clock: stream.NewManualClock(1_000_000)}
	for _, nrows := range []int{0, 1, 60} {
		pt := makePlanTable(t, nrows)
		cat := MapCatalog{"W": RelationOfSource(pt)}
		for _, q := range hoistedShapes {
			stmt, plan := mustParse(t, q), compilePlan(t, q)
			want, err := Execute(stmt, cat, opts)
			if err != nil {
				t.Fatalf("%s: execute: %v", q, err)
			}
			for name, run := range map[string]func() (*Relation, error){
				"Execute":       func() (*Relation, error) { return plan.Execute(RowsOfSource(pt), opts) },
				"ExecuteSource": func() (*Relation, error) { return plan.ExecuteSource(pt, opts) },
				"ExecuteTiered": func() (*Relation, error) {
					return plan.ExecuteTiered(&tieredPlanTable{planTable: pt}, opts)
				},
			} {
				got, err := run()
				if err != nil {
					t.Fatalf("%s: plan.%s: %v", q, name, err)
				}
				if got.String() != want.String() {
					t.Errorf("%s (rows=%d) plan.%s:\n%s\ninterpreted:\n%s", q, nrows, name, got, want)
				}
			}
		}
	}
}

// hoistedShapes carry row-independent subtrees in every clause that
// binds expressions.
var hoistedShapes = []string{
	"select v from w where timed >= now() - 1000000 and v > 2 * 3 - 10",
	"select v + (10 - 3) as a, now() - timed as age, upper('x' || 'y') as s from w",
	"select v, abs(-2) * f as g from w where f between 1 + 1 and 100 / 4",
	"select v % (1 + 2) as k, 7 * 6 as c, count(*) as n from w group by v % (1 + 2), 7 * 6",
	"select v, count(*) as n from w group by v having count(*) >= 3 - 2 and now() > 0",
	"select v from w order by v * (2 - 3), now()",
	"select case when v > 5 + 5 then 'hi' || '!' when v < -(5 + 5) then lower('LO') else cast(1 + 1 as varchar) end as c from w",
	"select case 1 + 1 when 2 then v else 0 end as c from w",
	"select v from w where v in (1 + 1, 2 * 5, -7) and 'abc' like 'a' || '%'",
	"select now() as t, 1 + 1 as two from w limit 1 + 1",
	"select sum(v + (2 - 1)) as s, max(now() - timed) as oldest from w where v is not null",
}

// tieredShapes pin TIMED to an interval and keep something across
// batches: group representatives, sort keys, DISTINCT, a LIMIT.
var tieredShapes = []string{
	"select count(*) as n, sum(v) as s, min(f) as lo from w where timed between 1 and 5000",
	"select v, count(*) as n, max(timed) as t from w where timed between 1 and 5000 group by v having count(*) > 1",
	"select v, f from w where timed >= 2 and timed <= 4999 and v > 40 order by f desc limit 7",
	"select distinct v from w where timed between 100 and 4000 order by v",
	"select timed, v from w where timed between 1 and 5000 and v is null",
	"select v, f, timed, count(*) as n from w where timed between 1 and 5000 group by v order by max(f), v",
}

// TestBatchFedRunMatchesExecute is the feed contract: a bound run keeps
// nothing of a batch it was fed, so a scan may carve every batch from
// one buffer. For every shape that carries something from one batch to
// the next — group representatives read by non-key projections and
// HAVING, DISTINCT, sort keys on a column that is not projected, memo
// cells of hoisted subtrees, a LIMIT — the rows fed in random splits
// through one buffer that is scribbled over after each feed give what
// Execute(rows) gives in one piece and what the interpreter gives. The
// two scans built on that contract, ExecuteSource and ExecuteTiered, are
// held to the same answer; a tier that fails part-way fails the
// statement with the tier's error, never answering from the live window.
func TestBatchFedRunMatchesExecute(t *testing.T) {
	pt := makePlanTable(t, 5000)
	all := RowsOfSource(pt)
	cat := MapCatalog{"W": &Relation{Cols: ColumnsOfSchema(planSchema), Rows: all}}
	opts := Options{Clock: stream.NewManualClock(1_000_000)}
	rng := rand.New(rand.NewSource(20))
	junk := []stream.Value{"scribbled", -1.5, int64(-99)}

	shapes := map[string]bool{} // statement → pins TIMED
	for _, q := range groupedShapes {
		shapes[q] = false
	}
	for _, q := range hoistedShapes {
		shapes[q] = false
	}
	for _, q := range tieredShapes {
		shapes[q] = true
	}
	for q, tiered := range shapes {
		plan := compilePlan(t, q)
		want, err := Execute(mustParse(t, q), cat, opts)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", q, err)
		}
		check := func(name string, got *Relation, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", q, name, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s: %s:\n%s\ninterpreter:\n%s", q, name, got, want)
			}
		}
		got, err := plan.Execute(all, opts)
		check("Execute in one piece", got, err)

		for trial := 0; trial < 4; trial++ {
			r := plan.prog.start(plan, newEvaluator(nil, opts))
			buf := make([][]stream.Value, 1+rng.Intn(700))
			for i := range buf {
				buf[i] = make([]stream.Value, len(planSchema.Fields())+1)
			}
			for at := 0; at < len(all); {
				n := min(1+rng.Intn(len(buf)), len(all)-at)
				for i := 0; i < n; i++ {
					copy(buf[i], all[at+i])
				}
				if err := r.feed(buf[:n]); err != nil {
					t.Fatalf("%s: feed: %v", q, err)
				}
				for i := 0; i < n; i++ {
					copy(buf[i], junk)
				}
				at += n
			}
			got, err := r.finish()
			check("random batches from one buffer", got, err)
		}

		got, err = plan.ExecuteSource(pt, opts)
		check("ExecuteSource", got, err)
		for _, failAfter := range []int{0, 700} {
			src := &tieredPlanTable{planTable: pt, failAfter: failAfter}
			got, err := plan.ExecuteTiered(src, opts)
			switch failed := err != nil && err.Error() == "tier failed"; {
			case failed && len(src.ranges) == 1: // the failing tier was read
			case tiered && failAfter > 0:
				t.Errorf("%s: ExecuteTiered over a failing tier = %v, %v; want the tier's error", q, got, err)
			default:
				check(fmt.Sprintf("ExecuteTiered (tier fails after %d)", failAfter), got, err)
			}
			if tiered && len(src.ranges) != 1 {
				t.Errorf("%s: the interval was not pushed down: %v", q, src.ranges)
			}
		}
	}
}

// TestExecuteTieredFoldsQualifyingPlans: ExecuteTiered offers the tier
// a fold exactly when the plan qualifies — aggregates
// COUNT(*) or COUNT, SUM, AVG, MIN, MAX of a plain column, nothing else
// read after grouping, no GROUP BY or DISTINCT — and the WHERE is
// exactly its TIMED interval at the execution's clock reading; every
// statement answers what the interpreter does.
func TestExecuteTieredFoldsQualifyingPlans(t *testing.T) {
	pt := makePlanTable(t, 300)
	cat := MapCatalog{"W": &Relation{Cols: ColumnsOfSchema(planSchema), Rows: RowsOfSource(pt)}}
	opts := Options{Clock: stream.NewManualClock(200)}
	for q, want := range map[string]string{ // statement → columns folded; "" for none
		"select count(*) as n from w where timed between 10 and 250":                                  "[]",
		"select count(*), sum(v), avg(v), min(v), max(v), count(v) from w where timed >= now() - 100": "[0]",
		"select sum(f), max(v), sum(v) + 1 as s from w where 5 <= timed and timed < 90":               "[1 0]",
		"select sum(v) from w where timed = 33":                                                       "[0]",
		"select sum(v) from w where timed between 10 and 250 and v > 0":                               "",
		"select sum(v) from w where timed between 10 and 250 or timed = 3":                            "",
		"select sum(v) from w where timed between 10 and 250 and timed > now() - 1.5":                 "",
		"select v, count(*) from w where timed between 10 and 250 group by v":                         "",
		"select count(distinct v) from w where timed between 10 and 250":                              "",
		"select stddev(v), last(v) from w where timed between 10 and 250":                             "",
		"select max(timed) from w where timed between 10 and 250":                                     "",
		"select sum(v * 2) from w where timed between 10 and 250":                                     "",
		"select sum(v) as s, v from w where timed between 10 and 250":                                 "",
		"select distinct count(*) from w where timed between 10 and 250":                              "",
	} {
		src := &tieredPlanTable{planTable: pt}
		got, err := compilePlan(t, q).ExecuteTiered(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if folds := strings.Join(src.folds, ""); folds != want {
			t.Errorf("%s: folded %q, want %q", q, folds, want)
		}
		if ref, err := Execute(mustParse(t, q), cat, opts); err != nil || got.String() != ref.String() {
			t.Errorf("%s:\n%s\ninterpreter (%v):\n%s", q, got, err, ref)
		}
	}
}
