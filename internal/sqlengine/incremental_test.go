package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gsn/internal/stream"
)

// TestIncrementalProgramDetection pins the one eligibility rule of the
// maintainer on ungrouped statements: a WHERE whose only NOW() is a
// frontier (TestIncrementalFrontierShapes), maintainable aggregates
// over plain columns, and nothing reading a column outside an
// aggregate. Everything after aggregation is the bound run's, so
// HAVING, ORDER BY, LIMIT and expressions over aggregates qualify.
func TestIncrementalProgramDetection(t *testing.T) {
	checkDetection(t, map[string]bool{
		"select count(*) as n from w":                                          true,
		"select count(v) as n, sum(v) as s, avg(v) as a from w":                true,
		"select min(v) as mn, max(v) as mx, last(v) as l from w":               true,
		"select min(timed) as oldest from w":                                   true,
		"select count(*) as n from w order by n limit 1":                       true,
		"select sum(v) / count(*) as m, now() as t from w having count(*) > 2": true,
		"select count(*) as n from w where v > 0":                              true,
		"select sum(v) as s from w where f is null or timed % 2 = 0":           true,
		"select v from w":                                      false, // neither aggregate nor GROUP BY
		"select v, count(*) as n from w":                       false, // reads a non-key column
		"select count(*) as n from w where timed <= now() - 5": false, // an upper bound on the clock
		"select first(v) as f from w":                          false, // not a maintained kind
		"select count(distinct v) as n from w":                 false, // needs the set
	})
}

// TestGroupedIncrementalProgramDetection pins the same rule on grouped
// statements: plain-column keys, and nothing after grouping reading a
// non-key column. A WHERE whose only NOW() is a frontier, HAVING, ORDER
// BY, LIMIT, DISTINCT and expressions over keys and aggregates qualify.
func TestGroupedIncrementalProgramDetection(t *testing.T) {
	checkDetection(t, map[string]bool{
		"select v, count(*) as n from w group by v":                                     true,
		"select v, count(f) as n, sum(f) as s, avg(f) as a from w group by v":           true,
		"select v, f, min(timed) as oldest from w group by v, f":                        true,
		"select count(*) as n, v from w group by v":                                     true, // key after aggregate
		"select v from w group by v":                                                    true, // no aggregates
		"select w.v, max(f) as mx from w group by w.v":                                  true,
		"select v + 1 as k, count(*) as n from w group by v having count(*) > 1":        true,
		"select distinct v, count(*) as n from w group by v order by n desc, v limit 2": true,
		"select v, count(*) as n from w where f > 0 group by v":                         true,
		"select v, count(*) as n from w where timed >= now() - 5 group by v":            true,  // a frontier
		"select v, count(*) as n from w where timed < now() group by v":                 false, // an upper bound
		"select v, stddev(f) as sd from w group by v":                                   false, // not a maintained kind
		"select v, sum(f + 1) as s from w group by v":                                   false, // non-column argument
		"select v % 7 as b, count(*) as n from w group by v % 7":                        false, // expression key
		"select v, f from w group by v":                                                 false, // projects a non-key column
		"select v, count(*) as n from w group by v having max(f) > f":                   false,
		"select v, count(*) as n from w group by v order by f":                          false,
	})
}

// TestIncrementalFrontierShapes is the table of where NOW() may stand
// in a maintained statement. The one place is a frontier: a top-level
// AND conjunct bounding TIMED from below by a row-independent
// expression, in any of its spellings, beside NOW()-free conjuncts.
// Every other NOW() in the WHERE is refused: an upper bound, an
// equality, a second lower bound, one under OR or NOT, one comparing a
// column that is not TIMED, one whose bound reads the row, and BETWEEN.
// A NOW() in a GROUP BY key is refused with every expression key. After
// grouping — HAVING, the projection, ORDER BY, LIMIT — NOW() is
// evaluated once per read at the read's clock reading, as in a plan
// execution, and qualifies.
func TestIncrementalFrontierShapes(t *testing.T) {
	checkDetection(t, map[string]bool{
		// frontiers
		"select count(*) as n from w where timed >= now() - 5":                                      true,
		"select count(*) as n from w where timed > now() - 5":                                       true,
		"select count(*) as n from w where now() - 5 <= timed":                                      true,
		"select count(*) as n from w where now() - 5 < timed":                                       true,
		"select count(*) as n from w where w.timed >= now()":                                        true,
		"select count(*) as n, avg(v) as a from w where timed >= now() - 5 and v % 3 = 1 and f > 2": true,
		"select count(*) as n from w where v > 0 and (f < 1 and now() - 5 <= timed)":                true,
		"select count(*) as n from w where timed >= now() - 5 and timed >= 7":                       true, // the literal bound is a WHERE
		"select count(*) as n from w where timed >= now() - abs(-5) * 2":                            true,
		// refused in the WHERE
		"select count(*) as n from w where timed <= now()":                           false, // upper bound
		"select count(*) as n from w where now() > timed":                            false, // upper bound, flipped
		"select count(*) as n from w where timed = now()":                            false, // equality
		"select count(*) as n from w where timed between now() - 5 and now()":        false, // BETWEEN
		"select count(*) as n from w where timed >= now() - 5 and timed <= now()":    false, // with an upper bound
		"select count(*) as n from w where timed >= now() - 5 and timed > now() - 9": false, // two frontiers
		"select count(*) as n from w where timed >= now() - 5 or v > 0":              false, // under OR
		"select count(*) as n from w where not (timed < now() - 5)":                  false, // under NOT
		"select count(*) as n from w where v >= now() - 5":                           false, // not TIMED
		"select count(*) as n from w where timed >= now() - v":                       false, // bound reads the row
		"select count(*) as n from w where timed + 0 >= now() - 5":                   false, // TIMED in an expression
		"select count(*) as n from w where timed >= now() - 5 and f < now()":         false, // a second NOW()
		"select v % now() as k, count(*) as n from w group by v % now()":             false, // GROUP BY
		// after grouping
		"select count(*) as n, now() as t from w":                                  true, // projection
		"select count(*) as n from w having max(timed) > now() - 5":                true, // HAVING
		"select v, count(*) as n from w group by v order by now() - max(timed), v": true, // ORDER BY
	})
}

func checkDetection(t *testing.T, cases map[string]bool) {
	t.Helper()
	for q, want := range cases {
		if got := compilePlan(t, q).Incremental() != nil; got != want {
			t.Errorf("%s: maintainable = %v, want %v", q, got, want)
		}
	}
}

// incShapes and groupedIncShapes are the maintained statements the
// property tests drive.
var incShapes = []string{
	"select count(*) as n, count(v) as nv, sum(v) as s, avg(v) as a, min(v) as mn, " +
		"max(v) as mx, last(v) as l, sum(f) as sf, avg(f) as af from w",
	"select sum(v) * 2 as s2, max(f) as mx from w having count(*) > 3",
}

var groupedIncShapes = []string{
	"select v, count(*) as n, count(f) as nf, sum(f) as s, avg(f) as a, min(f) as mn, " +
		"max(f) as mx, last(f) as l from w group by v",
	"select v, max(timed) - min(timed) as span from w group by v having count(*) > 1 order by span desc, v limit 3",
	"select distinct count(*) % 2 as odd from w group by v",
}

// filteredIncShapes are maintained statements with a WHERE: predicates
// that come out NULL or unknown (a NULL f, a NULL v, an IN list holding
// NULL), a WHERE on TIMED, one reading a column nothing else reads, a
// WHERE beside GROUP BY and HAVING, and one that admits nothing (its
// answer is still the one row, COUNT 0 and NULL elsewhere).
var filteredIncShapes = []string{
	"select count(*) as n, sum(v) as s, min(f) as mn, max(f) as mx, last(v) as l from w where f > v - 3",
	"select count(*) as n, avg(v) as a, max(timed) as t from w where v in (1, 3, null) or f is null",
	"select count(*) as n, min(timed) as lo, max(timed) as hi, sum(v) as s from w where timed % 3 <> 0",
	"select count(*) as n, sum(v) as s, last(v) as l from w where f between -4 and 6",
	"select v, count(*) as n, sum(f) as s, min(f) as mn from w where f >= 0 or v = 2 " +
		"group by v having count(*) > 1 order by n desc, v",
	"select count(*) as n, sum(v) as s, max(f) as mx from w where v > 100",
}

// TestAggMaintainerMatchesExecute drives each shape through random
// inserts (NULLs, few keys so groups appear, empty and reappear) and
// the evictions every window kind makes — one per insert past a count,
// a burst when a time window's clock jumps, the whole window — truncates
// and resets, reading the window after every step and checking that the
// maintained result is cell for cell the window scan's and the
// interpreter's. The float inputs are dyadic, so every sum is exact in
// any order.
func TestAggMaintainerMatchesExecute(t *testing.T) {
	checkMaintainerMatchesExecute(t, incShapes, 42)
}

// TestGroupedAggMaintainerMatchesExecute is the same property on the
// grouped shapes, where the few keys make groups appear, empty and
// reappear with a later first-live row.
func TestGroupedAggMaintainerMatchesExecute(t *testing.T) {
	checkMaintainerMatchesExecute(t, groupedIncShapes, 43)
}

// TestFilteredAggMaintainerMatchesExecute is the same property on the
// filtered shapes: the maintainer folds in and takes out exactly the
// rows a scan keeps, and never one its WHERE leaves NULL or unknown.
func TestFilteredAggMaintainerMatchesExecute(t *testing.T) {
	checkMaintainerMatchesExecute(t, filteredIncShapes, 44)
}

func checkMaintainerMatchesExecute(t *testing.T, shapes []string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, q := range shapes {
		plan := compilePlan(t, q)
		m := NewAggMaintainer(plan.Incremental())
		var live []stream.Element
		var first uint64 // the arrival ordinal of live[0]
		for step := 0; step < 600; step++ {
			var v, f stream.Value = int64(rng.Intn(5)), float64(rng.Intn(80)-40) / 4
			if rng.Intn(9) == 0 {
				v = nil
			}
			if rng.Intn(7) == 0 {
				f = nil
			}
			e, err := stream.NewElement(planSchema, stream.Timestamp(step+1), v, f)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, e)
			evict := len(live) - 16
			switch rng.Intn(40) {
			case 0:
				evict = len(live)
			case 1, 2, 3:
				evict = rng.Intn(len(live) + 1)
			}
			if evict > 0 {
				first, live = first+uint64(evict), live[evict:]
			}
			switch rng.Intn(80) {
			case 0: // a truncate: a gap in ordinals
				first, live = first+uint64(len(live))+1, nil
			case 1: // a float-drift resync: the next read admits the window
				m.Reset()
			}

			pt := &planTable{schema: planSchema, elems: live}
			want, err := Execute(plan.sp.stmt, MapCatalog{"W": RelationOfSource(pt)}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			scan, err := plan.ExecuteSource(pt, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := m.Read(first, live, Options{})
			if got == nil || got.String() != want.String() || scan.String() != want.String() {
				t.Fatalf("%s, step %d (live=%d):\nmaintained:\n%v\nscan:\n%v\nexecute:\n%v", q, step, len(live), got, scan, want)
			}
		}
	}
}

// TestFilteredAggMaintainerPoisonedByWhereError: a WHERE that fails on
// some rows (a LIKE reached only when v >= 4, over a float) poisons the
// maintainer at the first such arrival, and the plan's own execution
// reports the error in the interpreter's words. Until then the rows it
// admits are maintained as usual; once the failing row has left the
// window the next read rebuilds.
func TestFilteredAggMaintainerPoisonedByWhereError(t *testing.T) {
	const q = "select count(*) as n, sum(v) as s from w where v < 4 or f like '1%'"
	plan := compilePlan(t, q)
	m := NewAggMaintainer(plan.Incremental())
	elem := func(ts int, v int64) stream.Element {
		e, err := stream.NewElement(planSchema, stream.Timestamp(ts), v, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	live := []stream.Element{elem(1, 1), elem(2, 3)}
	var first uint64
	check := func(stage string) {
		t.Helper()
		pt := &planTable{schema: planSchema, elems: live}
		scan, err := plan.ExecuteSource(pt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Read(first, live, Options{}); got == nil || got.String() != scan.String() {
			t.Fatalf("%s: maintained %v, scan %v", stage, got, scan)
		}
	}
	check("before the failing row")

	live = append(live, elem(3, 7))
	if got := m.Read(first, live, Options{}); got != nil {
		t.Fatalf("a failing WHERE should poison the maintainer, got %v", got)
	}
	pt := &planTable{schema: planSchema, elems: live}
	_, planErr := plan.Execute(RowsOfSource(pt), Options{})
	_, interpErr := Execute(plan.sp.stmt, MapCatalog{"W": RelationOfSource(pt)}, Options{})
	if planErr == nil || interpErr == nil || planErr.Error() != interpErr.Error() {
		t.Fatalf("plan error %v, interpreter error %v: want the same error", planErr, interpErr)
	}

	live = append(live, elem(4, 2))
	first, live = 1, live[1:]
	if got := m.Read(first, live, Options{}); got != nil {
		t.Fatalf("a read with the failing row still live answered %v", got)
	}
	first, live = 3, live[2:]
	check("after the failing row left")
}

// TestMaintainedMinMaxKeepsOldestOfEqualValues: MIN and MAX over values
// that compare equal but print apart (-0 and +0) answer the oldest live
// one, the one a scan's fold keeps, as rows arrive and as the oldest
// are evicted. A run of identical values keeps one deque entry.
func TestMaintainedMinMaxKeepsOldestOfEqualValues(t *testing.T) {
	plan := compilePlan(t, "select min(f) as mn, max(f) as mx from w")
	m := NewAggMaintainer(plan.Incremental())
	var live []stream.Element
	var first uint64
	check := func(stage string) {
		t.Helper()
		pt := &planTable{schema: planSchema, elems: live}
		scan, err := plan.ExecuteSource(pt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		interp, err := Execute(plan.sp.stmt, MapCatalog{"W": RelationOfSource(pt)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Read(first, live, Options{}); got == nil || got.String() != scan.String() || scan.String() != interp.String() {
			t.Fatalf("%s (live=%d): maintained %q, scan %q, interpreter %q", stage, len(live), got, scan, interp)
		}
	}
	negZero := math.Copysign(0, -1)
	for i, f := range []float64{negZero, 0, negZero, 0, 0, 0, negZero, negZero, 0} {
		e, err := stream.NewElement(planSchema, stream.Timestamp(i+1), int64(i), f)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
		check("insert")
		if len(live) > 4 {
			first, live = first+1, live[1:]
			check("evict")
		}
	}
	for len(live) > 0 {
		first, live = first+1, live[1:]
		check("evict")
	}

	for i := 0; i < 50; i++ {
		e, err := stream.NewElement(planSchema, stream.Timestamp(100+i), int64(i), 2.5)
		if err != nil {
			t.Fatal(err)
		}
		if live = append(live, e); len(live) > 10 {
			first, live = first+1, live[1:]
		}
		check("identical run")
	}
	for i, st := range m.single.states {
		if n := len(st.live); n != 1 {
			t.Errorf("state %d keeps %d deque entries for a run of identical values, want 1", i, n)
		}
	}
}

// TestAggMaintainerPoisoned: an input a state cannot digest poisons the
// maintainer, so callers fall back to executing the plan, which reports
// the error, until the row has left the window: a read rebuilds from the
// window then.
func TestAggMaintainerPoisoned(t *testing.T) {
	checkPoisoned(t, "select sum(s) as x from w")
}

// TestGroupedAggMaintainerPoisoned is the same on a grouped statement.
func TestGroupedAggMaintainerPoisoned(t *testing.T) {
	checkPoisoned(t, "select k, sum(s) as x from w group by k")
}

func checkPoisoned(t *testing.T, q string) {
	t.Helper()
	strSchema := stream.MustSchema(
		stream.Field{Name: "k", Type: stream.TypeString},
		stream.Field{Name: "s", Type: stream.TypeString},
	)
	e, err := stream.NewElement(strSchema, 1, "room-a", "not-a-number")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(mustParse(t, q), ColumnsOfSchema(strSchema), "w")
	if err != nil {
		t.Fatal(err)
	}
	m := NewAggMaintainer(plan.Incremental())
	if got := m.Read(0, []stream.Element{e}, Options{}); got != nil {
		t.Errorf("%s: SUM over a string should poison the maintainer, read answered %v", q, got)
	}
	if got := m.Read(0, []stream.Element{e}, Options{}); got != nil {
		t.Errorf("%s: a read with the failing row still live answered %v", q, got)
	}
	if got := m.Read(1, nil, Options{}); got == nil {
		t.Errorf("%s: a read after the failing row left should rebuild", q)
	}
}

// TestAggMaintainerFloatResync: once enough evictions have been
// subtracted from a float sum the maintainer asks for a rebuild, and
// Reset followed by a read of the window clears the request and the
// accumulated rounding error. The evictions are fed through OnInsert and
// OnEvict, the per-row steps a read is built from.
func TestAggMaintainerFloatResync(t *testing.T) {
	checkFloatResync(t, "select sum(f) as s from w")
}

// TestGroupedAggMaintainerFloatResync is the same on a grouped
// statement.
func TestGroupedAggMaintainerFloatResync(t *testing.T) {
	checkFloatResync(t, "select v, sum(f) as s from w group by v")
}

func checkFloatResync(t *testing.T, q string) {
	t.Helper()
	e, err := stream.NewElement(planSchema, 1, int64(3), 2.5)
	if err != nil {
		t.Fatal(err)
	}
	m := NewAggMaintainer(compilePlan(t, q).Incremental())
	m.OnInsert(e) // one float stays live: each eviction leaves a float sum
	for i := 0; i < resyncFloatEvery+10; i++ {
		m.OnInsert(e)
		m.OnEvict(e)
		if i < resyncFloatEvery-1 && m.NeedsResync() {
			t.Fatalf("%s: resync requested too early at %d", q, i)
		}
	}
	if !m.NeedsResync() {
		t.Fatalf("%s: resync not requested after %d float evictions", q, resyncFloatEvery+10)
	}
	// The per-row steps leave the maintainer in step with the window they
	// built: its one row is ordinal resyncFloatEvery+10, and a read of it
	// examines no arrival.
	seen := m.Inserts()
	if got := m.Read(resyncFloatEvery+10, []stream.Element{e}, Options{}); got == nil || got.Rows[0][len(got.Cols)-1] != 2.5 || m.Inserts() != seen {
		t.Errorf("%s: read after the per-row steps = %v, examined %d arrivals; want a row ending in 2.5 and none", q, got, m.Inserts()-seen)
	}
	m.Reset()
	if m.NeedsResync() {
		t.Errorf("%s: rebuild should clear the resync request", q)
	}
	if got := m.Read(7, []stream.Element{e}, Options{}); got == nil || len(got.Rows) != 1 || got.Rows[0][len(got.Cols)-1] != 2.5 {
		t.Errorf("%s: sum after rebuild = %v, want one row ending in 2.5", q, got)
	}
}

// TestIntAggregatesExactAcrossTiers: integer SUM and AVG stay exact on
// every tier once the live sum passes 2^53 — millisecond timestamps over
// a 6000-row window — so the maintainer, a window scan, the interpreter
// and a merge of two partial rollups answer identical cells, compared
// without tolerance.
func TestIntAggregatesExactAcrossTiers(t *testing.T) {
	plan := compilePlan(t, "select count(*) as n, sum(timed) as s, avg(timed) as a, avg(v) as av, "+
		"min(timed) as lo, max(timed) as hi from w")
	m := NewAggMaintainer(plan.Incremental())
	rng := rand.New(rand.NewSource(5))
	var live []stream.Element
	var first uint64
	for i := 0; i < 9000; i++ {
		ts := stream.Timestamp(1_760_000_000_000 + int64(i)*1000 + rng.Int63n(1000))
		e, err := stream.NewElement(planSchema, ts, int64(ts)+rng.Int63n(7), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if live = append(live, e); len(live) > 6000 {
			first, live = first+1, live[1:]
		}
		if i%500 != 499 {
			continue
		}
		pt := &planTable{schema: planSchema, elems: live}
		rows := RowsOfSource(pt)
		scan, err := plan.ExecuteSource(pt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		interp, err := Execute(plan.sp.stmt, MapCatalog{"W": RelationOfSource(pt)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		head, err := plan.ExecutePartial(rows[:len(rows)/3], Options{})
		if err != nil {
			t.Fatal(err)
		}
		tail, err := plan.ExecutePartial(rows[len(rows)/3:], Options{})
		if err != nil {
			t.Fatal(err)
		}
		merged, err := plan.MergePartials([]*PartialRollup{head, tail}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := m.Read(first, live, Options{})
		for name, rel := range map[string]*Relation{"scan": scan, "interpreter": interp, "merge": merged} {
			if got == nil || !reflect.DeepEqual(got.Rows, rel.Rows) {
				t.Fatalf("insert %d (live=%d): maintained %v, %s %v", i, len(live), got, name, rel.Rows)
			}
		}
	}
}

// TestFrontierMatchesLiteralBound is the metamorphic pair of the
// frontier: at any instant T, `timed >= now() - H` keeps the rows a
// literal `timed >= T-H` keeps. A maintainer of the clock-relative form,
// read over a window that arrivals, evictions, clock jumps (backwards
// too) and out-of-order timestamps move, answers rows identical to the
// literal form's execution and to a maintainer of the literal form
// built at that instant.
func TestFrontierMatchesLiteralBound(t *testing.T) {
	shapes := []string{
		"select count(*) as n, sum(v) as s, min(f) as mn, max(timed) as hi, last(v) as l from w where %s and v <> 2",
		"select v, count(*) as n, avg(f) as a from w where f > -5 and %s group by v order by v",
	}
	for _, shape := range shapes {
		for _, spelling := range []string{"timed >= %s", "timed > %s", "%s <= timed"} {
			rng := rand.New(rand.NewSource(int64(len(shape) + len(spelling))))
			clock := stream.NewManualClock(10_000)
			opts := Options{Clock: clock}
			const h = 40
			q := fmt.Sprintf(shape, fmt.Sprintf(spelling, fmt.Sprintf("now() - %d", h)))
			m := NewAggMaintainer(compilePlan(t, q).Incremental())
			var first uint64
			var live []stream.Element
			reads, declined := 0, 0
			for step := 0; step < 400; step++ {
				ts := clock.Now()
				if rng.Intn(10) == 0 {
					ts -= stream.Timestamp(rng.Intn(60)) // out of order
				}
				var f stream.Value = float64(rng.Intn(40)-20) / 4
				if rng.Intn(8) == 0 {
					f = nil
				}
				e, err := stream.NewElement(planSchema, ts, int64(rng.Intn(4)), f)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, e)
				if len(live) > 30 {
					first, live = first+1, live[1:]
				}
				switch rng.Intn(20) {
				case 0:
					clock.Set(clock.Now() - stream.Timestamp(rng.Intn(30)))
				case 1:
					clock.Advance(time.Duration(rng.Intn(80)) * time.Millisecond)
				default:
					clock.Advance(time.Duration(rng.Intn(4)) * time.Millisecond)
				}
				if rng.Intn(3) != 0 {
					continue // reads skip some arrivals
				}
				literal := fmt.Sprintf(shape, fmt.Sprintf(spelling, fmt.Sprint(int64(clock.Now())-h)))
				lp := compilePlan(t, literal)
				want, err := lp.Execute(RowsOfSource(&planTable{schema: planSchema, elems: live}), opts)
				if err != nil {
					t.Fatal(err)
				}
				if lm := NewAggMaintainer(lp.Incremental()).Read(first, live, opts); lm == nil || lm.String() != want.String() {
					t.Fatalf("%s at %d: the literal form's maintainer answered %v, its execution %v", literal, clock.Now(), lm, want)
				}
				reads++
				got := m.Read(first, live, opts)
				if got == nil {
					declined++
					continue
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s at %d (step %d):\nclock-relative:\n%v\nliteral %s:\n%v", q, clock.Now(), step, got, literal, want)
				}
			}
			if declined*3 > reads { // out-of-order rows below the frontier decline
				t.Errorf("%s: declined %d of %d reads", q, declined, reads)
			}
		}
	}
}
