package core

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

func adhocCounters(c *Container) (compiled, general uint64) {
	return c.Metrics().Counter("adhoc_query_compiled").Value(),
		c.Metrics().Counter("adhoc_query_general").Value()
}

// fillTable creates a count-window table and inserts rows stamped
// 1000, 2000, ….
func fillTable(t *testing.T, c *Container, name string, schema *stream.Schema, rows [][]stream.Value) *storage.Table {
	t.Helper()
	table, err := c.Store().CreateTable(name, schema, storage.TableOptions{
		Window: stream.Window{Kind: stream.CountWindow, Count: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		e, err := stream.NewElement(schema, stream.Timestamp(1000*(i+1)), r...)
		if err != nil {
			t.Fatal(err)
		}
		if err := table.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	return table
}

// dialectExamples extracts the statements of every ```sql block of
// docs/sql-dialect.md, as cmd/docs-check does.
func dialectExamples(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../docs/sql-dialect.md")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, b := range regexp.MustCompile("(?s)```sql\n(.*?)```").FindAllStringSubmatch(string(data), -1) {
		var kept []string
		for _, line := range strings.Split(b[1], "\n") {
			if !strings.HasPrefix(strings.TrimSpace(line), "--") {
				kept = append(kept, line)
			}
		}
		for _, stmt := range strings.Split(strings.Join(kept, "\n"), ";") {
			if stmt = strings.TrimSpace(stmt); stmt != "" {
				out = append(out, stmt)
			}
		}
	}
	if len(out) < 20 {
		t.Fatalf("only %d dialect examples found", len(out))
	}
	return out
}

// queryMixShapes are the statement shapes of the benchmark's query_mix
// and pipeline_steady workloads over one table (registered texts asked
// ad hoc, the paced client's statements, the history ranges).
var queryMixShapes = []string{
	"select count(*) as c, max(hi) as hi, avg(v) as a from q0",
	"select count(*) as c, max(hi) as hi, min(v) as lo, max(v) as up from q0",
	"select count(*) as c, max(hi) as hi, avg(v) as a from q0 where v > 400",
	"select hi, v from q0 where v > 950",
	"select max(hi) as hi, avg(v) as a from q0 where v <= 500",
	"select count(*) as c, max(hi) as hi from q0 where v between 200 and 600",
	"select hi, v, timed from q0 where v > 900 order by v desc limit 5",
	"select room, count(*) as c, max(hi) as hi, sum(v) as s from q0 group by room",
	"select count(*) as c, max(hi) as hi, avg(v) as a from q0 where v > 100 and v <= 700",
	"select count(*) as c, max(hi) as hi, sum(v) as s from q0 where v >= 0",
	"select count(*) as c, max(hi) as hi, sum(v) as s from q0 where v >= (select min(v) from q0)",
	"select count(*) as c, max(hi) as hi, sum(v) as s from q0 where v >= 100 and v < 800",
	"select room, count(*) as c, max(hi) as hi, sum(v) as s from q0 where v < 800 group by room order by room",
	"select count(*) as c, max(hi) as hi from q0 where timed between 3000 and 20000",
	"select count(*) as c, avg(v) as a from q0 where timed >= now() - 985000 and hi % 3 = 1 and v > 2",
}

// TestAdhocCompiledMatchesExecute: every documented dialect example and
// every benchmark statement shape returns the same column header and
// the same rows through resultCache.Query — compiled where the shape
// binds, interpreted where it does not, and once more from the cache —
// as through sqlengine.Execute over the container's catalog.
func TestAdhocCompiledMatchesExecute(t *testing.T) {
	c := testContainer(t)
	fillTable(t, c, "readings", stream.MustSchema(
		stream.Field{Name: "room", Type: stream.TypeString},
		stream.Field{Name: "value", Type: stream.TypeFloat},
	), [][]stream.Value{{"kitchen", 21.5}, {"kitchen", 23.0}, {"lab", 19.0}, {"lab", nil}, {"office", 27.5}})
	fillTable(t, c, "alarms", stream.MustSchema(
		stream.Field{Name: "room", Type: stream.TypeString},
		stream.Field{Name: "level", Type: stream.TypeInt},
	), [][]stream.Value{{"lab", int64(2)}, {"office", int64(1)}})
	var mix [][]stream.Value
	for i := 0; i < 40; i++ {
		mix = append(mix, []stream.Value{int64(i), fmt.Sprintf("r%d", i%4), int64((i * 173) % 1000)})
	}
	fillTable(t, c, "q0", stream.MustSchema(
		stream.Field{Name: "hi", Type: stream.TypeInt},
		stream.Field{Name: "room", Type: stream.TypeString},
		stream.Field{Name: "v", Type: stream.TypeInt},
	), mix)

	opts := sqlengine.Options{Clock: c.Clock()}
	statements := append(dialectExamples(t), queryMixShapes...)
	for _, sql := range statements {
		want, err := sqlengine.ExecuteSQL(sql, c.Catalog(), opts)
		if err != nil {
			t.Fatalf("%q: interpreter: %v", sql, err)
		}
		for _, pass := range []string{"miss", "repeat"} {
			got, err := c.LocalQuery(sql)
			if err != nil {
				t.Fatalf("%q (%s): %v", sql, pass, err)
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) {
				t.Errorf("%q (%s): columns %v, interpreter %v", sql, pass, got.Cols, want.Cols)
			}
			if got.String() != want.String() {
				t.Errorf("%q (%s):\n%s\ninterpreter:\n%s", sql, pass, got, want)
			}
		}
	}

	compiled, general := adhocCounters(c)
	hits, misses := cacheCounters(c)
	if compiled+general != misses {
		t.Errorf("adhoc_query_compiled %d + adhoc_query_general %d != result_cache_misses %d", compiled, general, misses)
	}
	if hits == 0 || compiled < uint64(len(statements))/2 || general < 4 {
		t.Errorf("hits %d, compiled %d, general %d over %d statements: both evaluators and the cache must be exercised",
			hits, compiled, general, len(statements))
	}
}

// TestAdhocPlanLifecycle pins what the result cache keeps of a plan:
// a volatile statement is never served from cache but reuses its plan;
// recreating the table under the same name with another schema
// recompiles instead of running the stale plan; and every miss that
// parsed is counted on exactly one of the two evaluator counters.
func TestAdhocPlanLifecycle(t *testing.T) {
	c := testContainer(t)
	intSchema := stream.MustSchema(stream.Field{Name: "v", Type: stream.TypeInt})
	fillTable(t, c, "t", intSchema, [][]stream.Value{{int64(1)}, {int64(2)}, {int64(3)}})

	const volatile = "select count(*) as n from t where timed >= now() - 998500"
	var plan *sqlengine.Plan
	for i, want := range []int64{2, 2, 1} {
		rel, err := c.Query(volatile)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Rows[0][0] != want {
			t.Fatalf("execution %d: n = %v, want %d", i, rel.Rows[0][0], want)
		}
		entry := c.results.entries[volatile]
		if entry == nil || entry.plan == nil || entry.rel != nil {
			t.Fatalf("execution %d: entry %+v: want a plan and no cached relation", i, entry)
		}
		if plan != nil && entry.plan != plan {
			t.Fatalf("execution %d recompiled a statement whose table did not change", i)
		}
		plan = entry.plan
		if i == 1 {
			c.Clock().(*stream.ManualClock).Advance(time.Second) // row 2 ages out
		}
	}
	if hits, _ := cacheCounters(c); hits != 0 {
		t.Fatalf("volatile statement served from cache %d times", hits)
	}
	if compiled, general := adhocCounters(c); compiled != 3 || general != 0 {
		t.Fatalf("compiled %d general %d, want 3 and 0", compiled, general)
	}

	// A stale plan would read column 0 — now the label — as v.
	const shaped = "select v + 1 as x from t order by x"
	if rel, err := c.Query(shaped); err != nil || fmt.Sprint(rel.Rows) != "[[2] [3] [4]]" {
		t.Fatalf("before recreate: %v, %v", rel, err)
	}
	if err := c.Store().DropTable("t"); err != nil {
		t.Fatal(err)
	}
	fillTable(t, c, "t", stream.MustSchema(
		stream.Field{Name: "label", Type: stream.TypeString},
		stream.Field{Name: "v", Type: stream.TypeInt},
	), [][]stream.Value{{"a", int64(10)}, {"b", int64(20)}})
	rel, err := c.Query(shaped)
	if err != nil || fmt.Sprint(rel.Rows) != "[[11] [21]]" {
		t.Fatalf("after recreate with another schema: %v, %v", rel, err)
	}
	if got := c.results.entries[volatile]; got == nil || got.plan != plan {
		t.Fatal("test premise: the volatile statement's entry should still hold the old plan")
	}
	if rel, err = c.Query(volatile); err != nil || rel.Rows[0][0] != int64(0) {
		t.Fatalf("volatile statement after recreate: %v, %v", rel, err)
	}
	if c.results.entries[volatile].plan == plan {
		t.Fatal("plan survived its table being recreated")
	}

	// The accounting identity, over every kind of miss: compiled,
	// interpreted shapes, execution errors on either evaluator, unknown
	// tables — and parse failures, which reach neither.
	parseFailures := uint64(0)
	for _, sql := range []string{
		"select a.v from t a join t b on a.v = b.v",
		"select v from t union select v from t",
		"select v from t where v > (select min(v) from t)",
		"select v from t where label - 1 > 0",
		"select nonexistent from t",
		"select v from nowhere",
		"selec v from t",
		"select count(*) as n from t",
		"select count(*) as n from t",
	} {
		if _, err := sqlengine.ParseCached(sql); err != nil {
			parseFailures++
		}
		c.Query(sql)
	}
	compiled, general := adhocCounters(c)
	_, misses := cacheCounters(c)
	if parseFailures != 1 || compiled+general != misses-parseFailures {
		t.Fatalf("compiled %d + general %d != misses %d - parse failures %d", compiled, general, misses, parseFailures)
	}
}

// TestAdhocHistoryBoundSpellings: the reach of a query must not depend
// on how its TIMED bound is spelled. Over a history="disk" sensor whose
// 5-row window evicted most rows, the paper's history-size predicate
// `timed >= now() - N` returns exactly the rows its literal spelling
// does — on the compiled ad-hoc path, on the interpreted one, and
// through the engine over the container's catalog — and those rows
// include the evicted ones.
func TestAdhocHistoryBoundSpellings(t *testing.T) {
	c, clock := historyContainer(t, t.TempDir())
	deploy(t, c, historySensorXML)
	pulseTicking(c, clock, 40)
	now := int64(clock.Now()) // 1000040; rows carry timed 1000001..1000040

	// interpretedOnly keeps a statement off the compiled path without
	// touching its TIMED conjuncts.
	const interpretedOnly = " and 1 = (select 1)"
	cases := []struct {
		relative, literal string
		rows              int
	}{
		{"timed >= now() - 30", fmt.Sprintf("timed >= %d", now-30), 31},
		{"now() - 12 < timed", fmt.Sprintf("%d < timed", now-12), 12},
		{"timed between now() - 30 and now() - 10", fmt.Sprintf("timed between %d and %d", now-30, now-10), 21},
		{"timed >= now() - 20 and timed < now() - 2 * 4", fmt.Sprintf("timed >= %d and timed < %d", now-20, now-8), 12},
	}
	for _, tc := range cases {
		var want string
		for _, where := range []string{tc.literal, tc.relative} {
			for _, suffix := range []string{"", interpretedOnly} {
				sql := `select timed, temperature from "hist-temp" where ` + where + suffix
				compiled0, general0 := adhocCounters(c)
				rel, err := c.Query(sql)
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				compiled1, general1 := adhocCounters(c)
				if wantCompiled := suffix == ""; (compiled1 > compiled0) != wantCompiled || (general1 > general0) == wantCompiled {
					t.Errorf("%q: compiled %d→%d general %d→%d", sql, compiled0, compiled1, general0, general1)
				}
				if len(rel.Rows) != tc.rows {
					t.Errorf("%q: %d rows, want %d (the 5-row window alone cannot answer)", sql, len(rel.Rows), tc.rows)
				}
				direct, err := sqlengine.ExecuteSQL(sql, c.Catalog(), sqlengine.Options{Clock: clock})
				if err != nil {
					t.Fatalf("%q: engine: %v", sql, err)
				}
				for _, got := range []string{rel.String(), direct.String()} {
					if want == "" {
						want = got
					}
					if got != want {
						t.Errorf("%q:\n%s\nwant, as every other spelling and path:\n%s", sql, got, want)
					}
				}
			}
		}
	}
}
