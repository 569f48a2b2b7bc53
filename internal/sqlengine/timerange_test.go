package sqlengine

import (
	"fmt"
	"math"
	"testing"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// boundsOf extracts the TIMED interval of a WHERE condition in one
// execution whose clock reads 100000.
func boundsOf(t *testing.T, cond, qual string) (lo, hi int64, ok bool) {
	t.Helper()
	ev := newEvaluator(nil, Options{Clock: stream.NewManualClock(100000)})
	lo, hi, ok, _ = ev.timeBounds(whereOf(t, cond), qual)
	return lo, hi, ok
}

// whereOf parses a SELECT and hands back its WHERE expression.
func whereOf(t *testing.T, cond string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT * FROM readings WHERE " + cond)
	if err != nil {
		t.Fatalf("parse %q: %v", cond, err)
	}
	return stmt.Where
}

func TestTimeBounds(t *testing.T) {
	const unb = math.MinInt64 // marker: expected lo unbounded
	const unbHi = math.MaxInt64
	cases := []struct {
		cond   string
		lo, hi int64
		ok     bool
	}{
		{"timed BETWEEN 10 AND 20", 10, 20, true},
		{"timed >= 5", 5, unbHi, true},
		{"timed > 5", 6, unbHi, true},
		{"timed <= 99", unb, 99, true},
		{"timed < 99", unb, 98, true},
		{"timed = 42", 42, 42, true},
		// Flipped spellings normalise the operator.
		{"100 <= timed", 100, unbHi, true},
		{"100 > timed", unb, 99, true},
		// Conjuncts combine; the tightest bounds win.
		{"timed >= 10 AND timed <= 20 AND timed >= 12", 12, 20, true},
		{"timed BETWEEN 0 AND 50 AND value > 3", 0, 50, true},
		{"readings.timed BETWEEN 1 AND 2", 1, 2, true},
		// Unary signs on the literal.
		{"timed >= -5", -5, unbHi, true},
		{"timed <= +7", unb, 7, true},
		// Anything under OR or NOT must not constrain the interval.
		{"timed >= 10 OR value = 1", unb, unbHi, false},
		{"timed NOT BETWEEN 10 AND 20", unb, unbHi, false},
		{"value > 3", unb, unbHi, false},
		// A different table's TIMED is not ours.
		{"other.timed BETWEEN 1 AND 2", unb, unbHi, false},
		// Non-integer bounds are ignored.
		{"timed >= 'abc'", unb, unbHi, false},
		{"timed >= 1.5", unb, unbHi, false},
		// Any row-independent expression is a bound at the execution's
		// instant: the paper's history size, arithmetic, scalar calls.
		{"timed >= now() - 60000", 40000, unbHi, true},
		{"timed BETWEEN now() - 5000 AND now() - 1000", 95000, 99000, true},
		{"now() - 2000 < timed", 98001, unbHi, true},
		{"timed <= abs(-7) * 10", unb, 70, true},
		{"timed >= cast('12' as integer)", 12, unbHi, true},
		// One that errors, or reads the row, contributes nothing.
		{"timed >= 1 / 0", unb, unbHi, false},
		{"timed >= now() - 'x'", unb, unbHi, false},
		{"timed >= value", unb, unbHi, false},
		{"timed BETWEEN 1 AND value", unb, unbHi, false},
		{"timed >= 10 AND timed <= now() - 'x'", 10, unbHi, true},
	}
	for _, tc := range cases {
		t.Run(tc.cond, func(t *testing.T) {
			lo, hi, ok := boundsOf(t, tc.cond, "readings")
			if ok != tc.ok || lo != tc.lo || hi != tc.hi {
				t.Fatalf("timeBounds = (%d, %d, %v), want (%d, %d, %v)",
					lo, hi, ok, tc.lo, tc.hi, tc.ok)
			}
		})
	}
}

// TestTimeBoundsAliasQualifier: bounds qualified with the FROM alias
// count; the base table name does not resolve once aliased away — it
// is simply ignored, which only widens the interval.
func TestTimeBoundsAliasQualifier(t *testing.T) {
	lo, hi, ok := boundsOf(t, "r.timed BETWEEN 3 AND 4", "r")
	if !ok || lo != 3 || hi != 4 {
		t.Fatalf("aliased bounds = (%d, %d, %v)", lo, hi, ok)
	}
	_, _, ok = boundsOf(t, "readings.timed BETWEEN 3 AND 4", "r")
	if ok {
		t.Fatal("qualifier not matching the alias must not constrain the scan")
	}
}

// rangeTestCatalog wraps the fixture catalog with a RelationRange that
// records calls and serves a filtered READINGS — including extra rows
// the base relation does not have, proving the executor both routes
// through the pushdown and re-applies the full WHERE on its result.
type rangeTestCatalog struct {
	MapCatalog
	calls []string
}

func (c *rangeTestCatalog) RelationRange(name string, lo, hi int64) (*Relation, error) {
	c.calls = append(c.calls, fmt.Sprintf("%s[%d,%d]", name, lo, hi))
	base, err := c.MapCatalog.Relation(name)
	if err != nil {
		return nil, nil
	}
	out := NewRelation("id", "type", "value", "timed")
	ti := 3
	for _, row := range base.Rows {
		if ts, ok := row[ti].(int64); ok && ts >= lo && ts <= hi {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

func TestRangePushdownRouting(t *testing.T) {
	cat := &rangeTestCatalog{MapCatalog: testCatalog()}
	rel, err := ExecuteSQL(
		"SELECT id FROM readings WHERE timed BETWEEN 2000 AND 3000 AND type = 'light'",
		cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.calls) != 1 || cat.calls[0] != "readings[2000,3000]" {
		t.Fatalf("pushdown calls = %v, want one readings[2000,3000]", cat.calls)
	}
	// Rows 2..4 are in the interval; the re-applied WHERE keeps the two
	// light readings only.
	if len(rel.Rows) != 2 || rel.Rows[0][0] != int64(3) || rel.Rows[1][0] != int64(4) {
		t.Fatalf("pushdown result = %v", rel.Rows)
	}
}

func TestRangePushdownNotUsedWithoutBounds(t *testing.T) {
	cat := &rangeTestCatalog{MapCatalog: testCatalog()}
	rel, err := ExecuteSQL("SELECT id FROM readings WHERE type = 'light'", cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.calls) != 0 {
		t.Fatalf("unexpected pushdown calls %v for an unbounded WHERE", cat.calls)
	}
	if len(rel.Rows) != 2 {
		t.Fatalf("fallback result = %v", rel.Rows)
	}
}

// TestRangePushdownEquivalence: every bounded query must return the
// same rows with and without the pushdown in play.
func TestRangePushdownEquivalence(t *testing.T) {
	queries := []string{
		"SELECT id FROM readings WHERE timed BETWEEN 1500 AND 3500",
		"SELECT id FROM readings WHERE timed >= 2500",
		"SELECT id, value FROM readings WHERE timed < 3000 AND type = 'temperature'",
		"SELECT COUNT(*) FROM readings WHERE timed BETWEEN 0 AND 2500",
		"SELECT id FROM readings r WHERE r.timed BETWEEN 2000 AND 4000 ORDER BY id DESC",
	}
	for _, q := range queries {
		pushed, err := ExecuteSQL(q, &rangeTestCatalog{MapCatalog: testCatalog()}, Options{})
		if err != nil {
			t.Fatalf("%s (pushdown): %v", q, err)
		}
		plain, err := ExecuteSQL(q, testCatalog(), Options{})
		if err != nil {
			t.Fatalf("%s (plain): %v", q, err)
		}
		if fmt.Sprint(pushed.Rows) != fmt.Sprint(plain.Rows) {
			t.Fatalf("%s: pushdown rows %v != plain rows %v", q, pushed.Rows, plain.Rows)
		}
	}
}
