package sqlengine

import (
	"errors"
	"fmt"
	"strings"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// scope is one level of column bindings: the current row of a relation,
// chained to outer scopes for correlated subqueries.
type scope struct {
	rel    *Relation
	row    []stream.Value
	parent *scope
}

// lookup resolves a column reference through the scope chain. Inner
// scopes shadow outer ones; ambiguity within one scope is an error.
func (sc *scope) lookup(table, name string) (stream.Value, error) {
	for s := sc; s != nil; s = s.parent {
		idx, err := s.rel.ColumnIndex(table, name)
		if err == nil {
			return s.row[idx], nil
		}
		if isAmbiguous(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("sqlengine: unknown column %s", Column{Table: stream.CanonicalName(table), Name: stream.CanonicalName(name)})
}

func isAmbiguous(err error) bool {
	return err != nil && strings.Contains(err.Error(), "ambiguous")
}

// evaluator carries the state of one statement execution: the catalog,
// options, the statement's clock reading, the per-group aggregate
// values, and the uncorrelated-subquery memo. Every driver — Execute,
// the bound program, the partial paths — builds exactly one per
// execution, and subqueries run on their parent's.
type evaluator struct {
	cat  Catalog
	opts Options

	// instant is NOW() for the whole execution, read from opts.Clock on
	// first use (clockRead) and never again: every row, clause and
	// subquery of one execution sees one instant, which is what makes a
	// NOW()-only subtree row-independent.
	instant   int64
	clockRead bool

	// aggValues maps aggregate call nodes to their value for the group
	// currently being projected. Nil outside group context.
	aggValues map[*sqlparser.FuncCall]stream.Value

	// subqueryMemo caches results of subqueries proven uncorrelated.
	subqueryMemo map[*sqlparser.SelectStatement]*Relation

	depth int
}

// newEvaluator starts one statement execution, filling the option
// defaults every driver shares.
func newEvaluator(cat Catalog, opts Options) *evaluator {
	if opts.Clock == nil {
		opts.Clock = stream.SystemClock()
	}
	if opts.MaxRows <= 0 {
		opts.MaxRows = defaultMaxRows
	}
	return &evaluator{cat: cat, opts: opts}
}

// now returns the execution's single clock reading.
func (ev *evaluator) now() int64 {
	if !ev.clockRead {
		ev.instant, ev.clockRead = int64(ev.opts.Clock.Now()), true
	}
	return ev.instant
}

// maxSubqueryDepth bounds recursion through nested subqueries.
const maxSubqueryDepth = 32

// errTooDeep is the sentinel for exceeding maxSubqueryDepth. It must
// propagate without the correlated-execution retry, otherwise each
// nesting level would double the work on the way down.
var errTooDeep = fmt.Errorf("sqlengine: subquery nesting exceeds %d levels", maxSubqueryDepth)

func (ev *evaluator) eval(e sqlparser.Expr, sc *scope) (stream.Value, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Value, nil

	case *sqlparser.ColumnRef:
		if sc == nil {
			return nil, fmt.Errorf("sqlengine: column %s referenced outside row context", x)
		}
		return sc.lookup(x.Table, x.Name)

	case *sqlparser.BinaryExpr:
		return ev.evalBinary(x, sc)

	case *sqlparser.UnaryExpr:
		v, err := ev.eval(x.X, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			t, known := truth(v)
			if !known {
				return nil, nil
			}
			return !t, nil
		case "-":
			switch n := v.(type) {
			case nil:
				return nil, nil
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, fmt.Errorf("sqlengine: unary minus of %T", v)
		default:
			return nil, fmt.Errorf("sqlengine: unknown unary operator %q", x.Op)
		}

	case *sqlparser.FuncCall:
		return ev.evalFunc(x, sc)

	case *sqlparser.Subquery:
		rel, err := ev.execSubquery(x.Select, sc)
		if err != nil {
			return nil, err
		}
		if len(rel.Cols) != 1 {
			return nil, fmt.Errorf("sqlengine: scalar subquery returns %d columns", len(rel.Cols))
		}
		switch len(rel.Rows) {
		case 0:
			return nil, nil
		case 1:
			return rel.Rows[0][0], nil
		default:
			return nil, fmt.Errorf("sqlengine: scalar subquery returned %d rows", len(rel.Rows))
		}

	case *sqlparser.InExpr:
		return ev.evalIn(x, sc)

	case *sqlparser.ExistsExpr:
		rel, err := ev.execSubquery(x.Select, sc)
		if err != nil {
			return nil, err
		}
		exists := len(rel.Rows) > 0
		if x.Not {
			return !exists, nil
		}
		return exists, nil

	case *sqlparser.BetweenExpr:
		v, err := ev.eval(x.X, sc)
		if err != nil {
			return nil, err
		}
		lo, err := ev.eval(x.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := ev.eval(x.Hi, sc)
		if err != nil {
			return nil, err
		}
		cLo, okLo, err := compare(v, lo)
		if err != nil {
			return nil, err
		}
		cHi, okHi, err := compare(v, hi)
		if err != nil {
			return nil, err
		}
		if !okLo || !okHi {
			return nil, nil
		}
		in := cLo >= 0 && cHi <= 0
		if x.Not {
			return !in, nil
		}
		return in, nil

	case *sqlparser.LikeExpr:
		v, err := ev.eval(x.X, sc)
		if err != nil {
			return nil, err
		}
		p, err := ev.eval(x.Pattern, sc)
		if err != nil {
			return nil, err
		}
		if v == nil || p == nil {
			return nil, nil
		}
		s, ok1 := v.(string)
		pat, ok2 := p.(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sqlengine: LIKE wants strings, got %T and %T", v, p)
		}
		m := likeMatch(s, pat)
		if x.Not {
			return !m, nil
		}
		return m, nil

	case *sqlparser.IsNullExpr:
		v, err := ev.eval(x.X, sc)
		if err != nil {
			return nil, err
		}
		isNull := v == nil
		if x.Not {
			return !isNull, nil
		}
		return isNull, nil

	case *sqlparser.CaseExpr:
		return ev.evalCase(x, sc)

	case *sqlparser.CastExpr:
		v, err := ev.eval(x.X, sc)
		if err != nil {
			return nil, err
		}
		t, err := stream.ParseFieldType(x.Type)
		if err != nil {
			return nil, fmt.Errorf("sqlengine: CAST: %w", err)
		}
		// SQL CAST truncates fractional values toward zero.
		if f, ok := v.(float64); ok && (t == stream.TypeInt || t == stream.TypeTime) {
			return int64(f), nil
		}
		out, err := stream.Coerce(v, t)
		if err != nil {
			return nil, fmt.Errorf("sqlengine: CAST: %w", err)
		}
		return out, nil

	default:
		return nil, fmt.Errorf("sqlengine: unsupported expression %T", e)
	}
}

func (ev *evaluator) evalBinary(x *sqlparser.BinaryExpr, sc *scope) (stream.Value, error) {
	switch x.Op {
	case sqlparser.OpAnd:
		// Three-valued AND with short-circuit: false AND anything = false.
		lv, err := ev.eval(x.L, sc)
		if err != nil {
			return nil, err
		}
		lt, lknown := truth(lv)
		if lknown && !lt {
			return false, nil
		}
		rv, err := ev.eval(x.R, sc)
		if err != nil {
			return nil, err
		}
		rt, rknown := truth(rv)
		if rknown && !rt {
			return false, nil
		}
		if !lknown || !rknown {
			return nil, nil
		}
		return true, nil

	case sqlparser.OpOr:
		lv, err := ev.eval(x.L, sc)
		if err != nil {
			return nil, err
		}
		lt, lknown := truth(lv)
		if lknown && lt {
			return true, nil
		}
		rv, err := ev.eval(x.R, sc)
		if err != nil {
			return nil, err
		}
		rt, rknown := truth(rv)
		if rknown && rt {
			return true, nil
		}
		if !lknown || !rknown {
			return nil, nil
		}
		return false, nil

	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		lv, err := ev.eval(x.L, sc)
		if err != nil {
			return nil, err
		}
		rv, err := ev.eval(x.R, sc)
		if err != nil {
			return nil, err
		}
		c, known, err := compare(lv, rv)
		if err != nil {
			return nil, err
		}
		if !known {
			return nil, nil
		}
		switch x.Op {
		case sqlparser.OpEq:
			return c == 0, nil
		case sqlparser.OpNe:
			return c != 0, nil
		case sqlparser.OpLt:
			return c < 0, nil
		case sqlparser.OpLe:
			return c <= 0, nil
		case sqlparser.OpGt:
			return c > 0, nil
		default:
			return c >= 0, nil
		}

	case sqlparser.OpConcat:
		lv, err := ev.eval(x.L, sc)
		if err != nil {
			return nil, err
		}
		rv, err := ev.eval(x.R, sc)
		if err != nil {
			return nil, err
		}
		if lv == nil || rv == nil {
			return nil, nil
		}
		return stream.FormatValue(lv) + stream.FormatValue(rv), nil

	default:
		lv, err := ev.eval(x.L, sc)
		if err != nil {
			return nil, err
		}
		rv, err := ev.eval(x.R, sc)
		if err != nil {
			return nil, err
		}
		return arith(x.Op, lv, rv)
	}
}

func (ev *evaluator) evalFunc(x *sqlparser.FuncCall, sc *scope) (stream.Value, error) {
	if IsAggregateFunc(x.Name) {
		if ev.aggValues == nil {
			return nil, fmt.Errorf("sqlengine: aggregate %s used outside GROUP BY/aggregation context", x.Name)
		}
		v, ok := ev.aggValues[x]
		if !ok {
			return nil, fmt.Errorf("sqlengine: internal: aggregate %s not accumulated", x)
		}
		return v, nil
	}
	fn, ok := scalarFuncs[x.Name]
	if !ok {
		return nil, fmt.Errorf("sqlengine: unknown function %s", x.Name)
	}
	args := make([]stream.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ev.eval(a, sc)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return fn(args, ev)
}

func (ev *evaluator) evalIn(x *sqlparser.InExpr, sc *scope) (stream.Value, error) {
	v, err := ev.eval(x.X, sc)
	if err != nil {
		return nil, err
	}
	var candidates []stream.Value
	if x.Select != nil {
		rel, err := ev.execSubquery(x.Select, sc)
		if err != nil {
			return nil, err
		}
		if len(rel.Cols) != 1 {
			return nil, fmt.Errorf("sqlengine: IN subquery returns %d columns", len(rel.Cols))
		}
		for _, row := range rel.Rows {
			candidates = append(candidates, row[0])
		}
	} else {
		for _, item := range x.List {
			iv, err := ev.eval(item, sc)
			if err != nil {
				return nil, err
			}
			candidates = append(candidates, iv)
		}
	}
	if v == nil {
		return nil, nil
	}
	sawNull := false
	for _, c := range candidates {
		if c == nil {
			sawNull = true
			continue
		}
		cmp, known, err := compare(v, c)
		if err != nil {
			// Mixed-type lists: a non-comparable candidate cannot match.
			continue
		}
		if known && cmp == 0 {
			if x.Not {
				return false, nil
			}
			return true, nil
		}
	}
	if sawNull {
		return nil, nil // unknown: the NULL might have matched
	}
	if x.Not {
		return true, nil
	}
	return false, nil
}

func (ev *evaluator) evalCase(x *sqlparser.CaseExpr, sc *scope) (stream.Value, error) {
	if x.Operand != nil {
		op, err := ev.eval(x.Operand, sc)
		if err != nil {
			return nil, err
		}
		for _, w := range x.Whens {
			cv, err := ev.eval(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			c, known, err := compare(op, cv)
			if err != nil {
				return nil, err
			}
			if known && c == 0 {
				return ev.eval(w.Then, sc)
			}
		}
	} else {
		for _, w := range x.Whens {
			cv, err := ev.eval(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			if t, known := truth(cv); known && t {
				return ev.eval(w.Then, sc)
			}
		}
	}
	if x.Else != nil {
		return ev.eval(x.Else, sc)
	}
	return nil, nil
}

// execSubquery executes a nested SELECT. Subqueries proven uncorrelated
// (they execute successfully without any outer scope) are memoised for
// the lifetime of the statement execution — GSN client queries evaluate
// the same subquery once per trigger otherwise.
func (ev *evaluator) execSubquery(stmt *sqlparser.SelectStatement, outer *scope) (*Relation, error) {
	if rel, ok := ev.subqueryMemo[stmt]; ok {
		return rel, nil
	}
	if ev.depth >= maxSubqueryDepth {
		return nil, errTooDeep
	}
	ev.depth++
	defer func() { ev.depth-- }()

	// Attempt uncorrelated execution first (memoisable).
	savedAgg := ev.aggValues
	ev.aggValues = nil
	rel, err := ev.execSelect(stmt, nil)
	if err == nil {
		ev.aggValues = savedAgg
		if ev.subqueryMemo == nil {
			ev.subqueryMemo = make(map[*sqlparser.SelectStatement]*Relation)
		}
		ev.subqueryMemo[stmt] = rel
		return rel, nil
	}
	if errors.Is(err, errTooDeep) {
		ev.aggValues = savedAgg
		return nil, err
	}
	// Correlated (or genuinely failing): run with the outer scope.
	rel, err = ev.execSelect(stmt, outer)
	ev.aggValues = savedAgg
	return rel, err
}

// anyExpr reports whether pred holds for e or for any expression nested
// in it. It does not descend into the statement of a subquery node
// (Subquery, ExistsExpr, IN (SELECT)): pred sees the node and decides.
func anyExpr(e sqlparser.Expr, pred func(sqlparser.Expr) bool) bool {
	if e == nil {
		return false
	}
	if pred(e) {
		return true
	}
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			if anyExpr(a, pred) {
				return true
			}
		}
	case *sqlparser.BinaryExpr:
		return anyExpr(x.L, pred) || anyExpr(x.R, pred)
	case *sqlparser.UnaryExpr:
		return anyExpr(x.X, pred)
	case *sqlparser.BetweenExpr:
		return anyExpr(x.X, pred) || anyExpr(x.Lo, pred) || anyExpr(x.Hi, pred)
	case *sqlparser.LikeExpr:
		return anyExpr(x.X, pred) || anyExpr(x.Pattern, pred)
	case *sqlparser.IsNullExpr:
		return anyExpr(x.X, pred)
	case *sqlparser.InExpr:
		if anyExpr(x.X, pred) {
			return true
		}
		for _, it := range x.List {
			if anyExpr(it, pred) {
				return true
			}
		}
	case *sqlparser.CaseExpr:
		if anyExpr(x.Operand, pred) || anyExpr(x.Else, pred) {
			return true
		}
		for _, w := range x.Whens {
			if anyExpr(w.Cond, pred) || anyExpr(w.Then, pred) {
				return true
			}
		}
	case *sqlparser.CastExpr:
		return anyExpr(x.X, pred)
	}
	return false
}

// isSubqueryNode matches the three expression forms that run a nested
// SELECT.
func isSubqueryNode(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.Subquery, *sqlparser.ExistsExpr:
		return true
	case *sqlparser.InExpr:
		return x.Select != nil
	}
	return false
}

// rowIndependent reports whether e has one value for a whole statement
// execution: it reads no column, no aggregate result and no subquery,
// and every scalar function is deterministic given its arguments and
// the execution's one clock reading (evaluator.now). The bound program
// evaluates such a subtree at most once per execution (binder.bind),
// and TIMED pushdown accepts one as a range bound (timeBounds).
func rowIndependent(e sqlparser.Expr) bool {
	return !anyExpr(e, func(e sqlparser.Expr) bool {
		switch x := e.(type) {
		case *sqlparser.ColumnRef:
			return true
		case *sqlparser.FuncCall:
			return IsAggregateFunc(x.Name)
		}
		return isSubqueryNode(e)
	})
}

// collectAggregates gathers aggregate calls in an expression without
// descending into subqueries (those aggregate in their own context).
func collectAggregates(e sqlparser.Expr, out *[]*sqlparser.FuncCall) {
	switch x := e.(type) {
	case nil:
	case *sqlparser.FuncCall:
		if IsAggregateFunc(x.Name) {
			*out = append(*out, x)
			return // no nested aggregates
		}
		for _, a := range x.Args {
			collectAggregates(a, out)
		}
	case *sqlparser.BinaryExpr:
		collectAggregates(x.L, out)
		collectAggregates(x.R, out)
	case *sqlparser.UnaryExpr:
		collectAggregates(x.X, out)
	case *sqlparser.BetweenExpr:
		collectAggregates(x.X, out)
		collectAggregates(x.Lo, out)
		collectAggregates(x.Hi, out)
	case *sqlparser.LikeExpr:
		collectAggregates(x.X, out)
		collectAggregates(x.Pattern, out)
	case *sqlparser.IsNullExpr:
		collectAggregates(x.X, out)
	case *sqlparser.InExpr:
		collectAggregates(x.X, out)
		for _, it := range x.List {
			collectAggregates(it, out)
		}
	case *sqlparser.CaseExpr:
		if x.Operand != nil {
			collectAggregates(x.Operand, out)
		}
		for _, w := range x.Whens {
			collectAggregates(w.Cond, out)
			collectAggregates(w.Then, out)
		}
		if x.Else != nil {
			collectAggregates(x.Else, out)
		}
	case *sqlparser.CastExpr:
		collectAggregates(x.X, out)
	}
}
