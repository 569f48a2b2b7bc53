package sqlengine

import (
	"fmt"
	"slices"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// Plan is a SELECT statement bound once against a fixed single-table
// input layout, so the per-trigger path pays none of the per-execution
// planning Execute does (FROM resolution, aggregate collection,
// projection and ORDER BY planning) and none of its per-row name
// resolution. The GSN container compiles each deployed sensor's source
// and stream statements at deploy time and re-runs the plan on every
// trigger.
//
// A Plan has one execution engine, the bound program (compiled.go): it
// never consults the interpreter or a catalog. Compile covers the
// statement shapes sensor descriptors use (one base table, no joins,
// derived tables, compounds or subqueries); anything else returns an
// error and the caller falls back to Execute.
type Plan struct {
	sp     *simplePlan
	qual   string   // the FROM item's effective name (alias or table)
	inCols []Column // input layout, qualified by the FROM alias

	// prog is the bound (column-index-resolved) execution program. See
	// compiled.go.
	prog *boundProgram
}

// Compile binds stmt against one input relation whose bare column
// layout is cols (see ColumnsOfSchema); tables lists the base-table
// names the FROM clause may use for it. A statement that does not bind
// — an expression the binder does not cover, a name it cannot resolve —
// is not compiled. The returned plan is immutable and safe for
// concurrent Execute calls.
func Compile(stmt *sqlparser.SelectStatement, cols []Column, tables ...string) (*Plan, error) {
	if stmt.Compound != nil {
		return nil, fmt.Errorf("sqlengine: compound statements are not compilable")
	}
	if len(stmt.From) != 1 {
		return nil, fmt.Errorf("sqlengine: compile needs exactly one FROM table, got %d", len(stmt.From))
	}
	tn, ok := stmt.From[0].(*sqlparser.TableName)
	if !ok {
		return nil, fmt.Errorf("sqlengine: compile supports plain table references, not %T", stmt.From[0])
	}
	name := stream.CanonicalName(tn.Name)
	known := false
	for _, t := range tables {
		if stream.CanonicalName(t) == name {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("sqlengine: compile input does not provide table %q", tn.Name)
	}
	qual := tn.Alias
	if qual == "" {
		qual = tn.Name
	}
	qual = stream.CanonicalName(qual)

	inCols := make([]Column, len(cols))
	for i, c := range cols {
		inCols[i] = Column{Table: qual, Name: c.Name}
	}
	sp, err := analyzeSimple(stmt, inCols)
	if err != nil {
		return nil, err
	}
	p := &Plan{sp: sp, qual: qual, inCols: inCols, prog: newBoundProgram(sp, inCols)}
	if p.prog == nil {
		return nil, fmt.Errorf("sqlengine: statement is outside the compiled subset")
	}
	return p, nil
}

// IncProgram is a plan an AggMaintainer can keep over a sliding window:
// every GROUP BY key and aggregate argument is a plain input column, and
// its WHERE, if any, answers the same for an element whenever it runs.
type IncProgram struct {
	plan *Plan
	// Keys are the input columns of the GROUP BY keys, in clause order;
	// none for an ungrouped aggregate.
	Keys []int
	args []int // each aggregate slot's input column; -1 for COUNT(*)
}

// Incremental returns the plan's maintainable form, or nil when the
// statement does not qualify. A maintainer keeps, per live group, the
// key values and the aggregate states, so a statement qualifies when
// its run needs nothing else: an aggregate or GROUP BY statement whose
// WHERE, if any, does not call NOW() (the maintainer runs it once on an
// element's arrival and once on its eviction, and the two answers must
// agree), every aggregate a non-DISTINCT COUNT, SUM, AVG, MIN, MAX or
// LAST over a plain column (or COUNT(*)), every GROUP BY key a plain
// column, and nothing after grouping — HAVING, the projection, ORDER BY
// — reading a column that is not a key. The container pairs it with an
// AggMaintainer observing the source's window table.
func (p *Plan) Incremental() *IncProgram {
	stmt := p.sp.stmt
	if !p.sp.grouped || volatileExpr(stmt.Where) {
		return nil
	}
	column := func(e sqlparser.Expr) int {
		if ref, ok := e.(*sqlparser.ColumnRef); ok {
			return columnIndex(p.inCols, ref)
		}
		return -1
	}
	inc := &IncProgram{plan: p, Keys: make([]int, len(stmt.GroupBy)), args: make([]int, len(p.sp.aggs))}
	for i, g := range stmt.GroupBy {
		if inc.Keys[i] = column(g); inc.Keys[i] < 0 {
			return nil
		}
	}
	for i, a := range p.sp.aggs {
		if kind := aggKinds[a.Name]; a.Distinct || kind == aggStddev || kind == aggFirst {
			return nil
		}
		inc.args[i] = -1
		if !a.CountStar {
			if len(a.Args) != 1 {
				return nil
			}
			if inc.args[i] = column(a.Args[0]); inc.args[i] < 0 {
				return nil
			}
		}
	}
	for _, c := range p.prog.after {
		if !slices.Contains(inc.Keys, c) {
			return nil
		}
	}
	return inc
}

// IncrementalGrouped returns Incremental().
//
// Deprecated: Incremental answers for grouped statements too.
func (p *Plan) IncrementalGrouped() *IncProgram { return p.Incremental() }

// OutputColumns returns the plan's projected column layout.
func (p *Plan) OutputColumns() []Column { return p.sp.outCols }

// Execute runs the plan over the current window rows (as produced by
// RowsOfSource against the layout the plan was compiled for).
func (p *Plan) Execute(rows [][]stream.Value, opts Options) (*Relation, error) {
	return p.prog.run(p, rows, newEvaluator(nil, opts))
}

// ExecuteSource runs the plan directly against a window source, never
// materialising the window: the source's ForEach pass, inside the
// table's critical section, feeds the program a row at a time, built
// from the columns the statement reads.
func (p *Plan) ExecuteSource(src ElementSource, opts Options) (*Relation, error) {
	return p.executeSource(src, newEvaluator(nil, opts))
}

// executeSource is one execution over the live window on ev, the
// evaluator whose clock reading the whole execution shares.
func (p *Plan) executeSource(src ElementSource, ev *evaluator) (*Relation, error) {
	r := p.prog.start(p, ev)
	if err := r.scan(src.ForEach); err != nil {
		return nil, err
	}
	return r.finish()
}

// TieredSource is an ElementSource that can also serve a TIMED interval
// from beyond its live window; *storage.Table implements it (the
// history tier's index range scan merged with the hot window).
// ForEachTimed yields the interval's elements in arrival order until fn
// returns false; on an error fn has seen a prefix of them.
type TieredSource interface {
	ElementSource
	ForEachTimed(lo, hi stream.Timestamp, fn func(stream.Element) bool) error
}

// ExecuteTiered runs the plan as an ad-hoc statement over its base
// table: exactly what Execute does for the same statement over a
// RangeCatalog, without the per-call planning and per-row name
// resolution. A WHERE that pins TIMED to an interval (timeBounds, at
// the execution's one clock reading) routes the scan through
// ForEachTimed, so an aggregate over a long interval holds one row and
// not the interval; otherwise, or when the tier fails — nothing of the
// rows it had yielded is kept — the live window is scanned. The full
// WHERE is re-applied either way.
func (p *Plan) ExecuteTiered(src TieredSource, opts Options) (*Relation, error) {
	ev := newEvaluator(nil, opts)
	if p.sp.stmt.Where != nil {
		if lo, hi, ok := ev.timeBounds(p.sp.stmt.Where, p.qual); ok {
			r := p.prog.start(p, ev)
			var tierErr error
			err := r.scan(func(fn func(stream.Element) bool) {
				tierErr = src.ForEachTimed(stream.Timestamp(lo), stream.Timestamp(hi), fn)
			})
			if err != nil {
				return nil, err
			}
			if tierErr == nil {
				return r.finish()
			}
		}
	}
	return p.executeSource(src, ev)
}
