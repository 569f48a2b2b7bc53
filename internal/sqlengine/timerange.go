package sqlengine

import (
	"math"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// RangeCatalog is the optional Catalog extension for catalogs that can
// serve a table restricted to a TIMED interval more cheaply than a full
// scan — the storage layer answers it with a B+tree index range scan
// over the on-disk history tier merged with the hot window, so a query
// like
//
//	SELECT * FROM readings WHERE timed BETWEEN 0 AND 999
//
// reaches rows the retention window evicted long ago without the
// catalog materialising the whole table.
type RangeCatalog interface {
	Catalog
	// RelationRange returns the rows of name whose TIMED value lies in
	// [lo, hi] (inclusive). The result may be a superset of what the
	// full WHERE clause keeps — the evaluator re-applies it — but must
	// contain every row in the interval. A nil relation and a nil error
	// mean the catalog does not hold name, and the evaluator resolves it
	// through Relation.
	RelationRange(name string, lo, hi int64) (*Relation, error)
}

// timeBounds extracts a conservative interval [lo, hi] that the implicit
// TIMED column of the qualified table is constrained to by the WHERE
// expression. Only top-level AND conjuncts constrain the interval:
//
//	timed BETWEEN l AND h
//	timed >= l, timed > l, timed <= h, timed < h, timed = v
//
// (and the flipped bound-first spellings). A bound is any
// row-independent expression that evaluates to an integer — a literal,
// or the paper's history size `now() - 60000`, which at the execution's
// one clock reading is as fixed as a literal; one that errors or is not
// an integer contributes no bound (the error, if the scan reaches it,
// is the re-applied WHERE's to raise). Conjuncts that do not match —
// including anything under OR or NOT — are ignored, which only widens
// the interval: the caller always re-applies the full predicate, so a
// superset is safe, a subset never happens. ok reports whether at least
// one bound was found; an unconstrained side stays at the int64 extreme.
// exact reports that the interval is the WHERE: every top-level
// conjunct is a bound that contributed, none saturating, so a row
// passes the WHERE exactly when its TIMED lies in [lo, hi].
func (ev *evaluator) timeBounds(where sqlparser.Expr, qual string) (lo, hi int64, ok, exact bool) {
	lo, hi, exact = math.MinInt64, math.MaxInt64, true
	qual = stream.CanonicalName(qual)
	var walk func(e sqlparser.Expr)
	walk = func(e sqlparser.Expr) {
		switch x := e.(type) {
		case *sqlparser.BinaryExpr:
			if x.Op == sqlparser.OpAnd {
				walk(x.L)
				walk(x.R)
				return
			}
			v, op, found := ev.timedComparison(x, qual)
			if !found {
				exact = false
				return
			}
			switch op {
			case sqlparser.OpEq:
				lo, ok = maxBound(lo, v), true
				hi = minBound(hi, v)
			case sqlparser.OpGe:
				lo, ok = maxBound(lo, v), true
			case sqlparser.OpGt:
				// timed > MaxInt64 is unsatisfiable; saturating keeps
				// the interval a superset (it is then empty-ish, and
				// the re-applied WHERE drops everything anyway).
				exact = exact && v < math.MaxInt64
				if v < math.MaxInt64 {
					v++
				}
				lo, ok = maxBound(lo, v), true
			case sqlparser.OpLe:
				hi, ok = minBound(hi, v), true
			case sqlparser.OpLt:
				exact = exact && v > math.MinInt64
				if v > math.MinInt64 {
					v--
				}
				hi, ok = minBound(hi, v), true
			}
			return
		case *sqlparser.BetweenExpr:
			if !x.Not && isTimedRef(x.X, qual) {
				l, okL := ev.intBound(x.Lo)
				h, okH := ev.intBound(x.Hi)
				if okL && okH {
					lo, hi, ok = maxBound(lo, l), minBound(hi, h), true
					return
				}
			}
		}
		exact = false
	}
	if where != nil {
		walk(where)
	}
	return lo, hi, ok, exact && ok
}

// timedComparison matches "timed OP bound" or "bound OP timed"
// (flipping the operator), returning the bound's integer value and the
// normalised operator with TIMED on the left.
func (ev *evaluator) timedComparison(x *sqlparser.BinaryExpr, qual string) (int64, sqlparser.BinaryOp, bool) {
	bound, op, ok := timedOperand(x, qual)
	if !ok {
		return 0, 0, false
	}
	v, ok := ev.intBound(bound)
	return v, op, ok
}

// timedOperand matches the shape timedComparison evaluates: a
// comparison of the TIMED column with another operand, returned with
// the operator normalised to TIMED on the left.
func timedOperand(x *sqlparser.BinaryExpr, qual string) (sqlparser.Expr, sqlparser.BinaryOp, bool) {
	switch x.Op {
	case sqlparser.OpEq, sqlparser.OpGe, sqlparser.OpGt, sqlparser.OpLe, sqlparser.OpLt:
	default:
		return nil, 0, false
	}
	if isTimedRef(x.L, qual) {
		return x.R, x.Op, true
	}
	if isTimedRef(x.R, qual) {
		return x.L, flipComparison(x.Op), true
	}
	return nil, 0, false
}

// intBound evaluates a row-independent bound expression to an integer.
func (ev *evaluator) intBound(e sqlparser.Expr) (int64, bool) {
	if !rowIndependent(e) {
		return 0, false
	}
	v, err := ev.eval(e, nil)
	if err != nil {
		return 0, false
	}
	n, ok := v.(int64)
	return n, ok
}

func flipComparison(op sqlparser.BinaryOp) sqlparser.BinaryOp {
	switch op {
	case sqlparser.OpGe:
		return sqlparser.OpLe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpLt:
		return sqlparser.OpGt
	}
	return op
}

// isTimedRef matches a reference to the TIMED column, unqualified or
// qualified with the FROM item's effective name.
func isTimedRef(e sqlparser.Expr, qual string) bool {
	ref, refOK := e.(*sqlparser.ColumnRef)
	if !refOK || stream.CanonicalName(ref.Name) != TimedColumn {
		return false
	}
	return ref.Table == "" || stream.CanonicalName(ref.Table) == qual
}

func maxBound(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minBound(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
