package sqlengine

import (
	"cmp"
	"fmt"
	"slices"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// Plan is a SELECT statement bound once against a fixed input layout,
// so the per-trigger path pays none of the per-execution planning
// Execute does (FROM resolution, aggregate collection, projection and
// ORDER BY planning) and none of its per-row name resolution. The GSN
// container compiles each deployed sensor's source and stream
// statements at deploy time and re-runs the plan on every trigger.
//
// A Plan has one execution engine, the bound program (compiled.go): it
// never runs a statement on the interpreter or consults a catalog (a
// product borrows only the interpreter's cross join). CompileProduct
// covers the statement shapes sensor descriptors use (plain FROM
// tables; no JOIN … ON, derived tables, compounds or subqueries);
// anything else returns an error, and the caller falls back to Execute
// or refuses the statement.
type Plan struct {
	sp     *simplePlan
	qual   string   // the FROM item's effective name (alias or table); a product's last
	inCols []Column // input layout: each FROM item's columns, qualified by its name
	from   []int    // the input each FROM item names, in FROM order

	// prog is the bound (column-index-resolved) execution program. See
	// compiled.go.
	prog *boundProgram

	// sumCols are the input columns a TieredSource folds for the plan,
	// sumSlot each aggregate's argument in sumCols (-1 for COUNT(*));
	// nil when the plan does not qualify (summaryFold).
	sumCols, sumSlot []int
}

// Input is one relation a plan binds over: its bare column layout (see
// ColumnsOfSchema) and the names a FROM item may use for it.
type Input struct {
	Cols  []Column
	Names []string
}

// Compile binds stmt against one input relation whose bare column
// layout is cols; tables lists the base-table names the FROM clause may
// use for it. It is CompileProduct's one-input case.
func Compile(stmt *sqlparser.SelectStatement, cols []Column, tables ...string) (*Plan, error) {
	return CompileProduct(stmt, Input{Cols: cols, Names: tables})
}

// CompileProduct binds stmt over the cross product of inputs: every
// FROM item is a plain table reference naming a distinct input, and a
// product row is the named inputs' rows side by side in FROM order,
// left input outermost — the row order of the interpreter's cross
// join. A statement that does not bind — an expression the binder does
// not cover, a name it cannot resolve or that is ambiguous across the
// inputs — is not compiled. The returned plan is immutable and safe for
// concurrent executions.
func CompileProduct(stmt *sqlparser.SelectStatement, inputs ...Input) (*Plan, error) {
	if stmt.Compound != nil {
		return nil, fmt.Errorf("sqlengine: compound statements are not compilable")
	}
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sqlengine: compile needs a FROM table")
	}
	p := &Plan{}
	for _, item := range stmt.From {
		tn, ok := item.(*sqlparser.TableName)
		if !ok {
			return nil, fmt.Errorf("sqlengine: compile supports plain table references, not %T", item)
		}
		name := stream.CanonicalName(tn.Name)
		in := slices.IndexFunc(inputs, func(in Input) bool {
			return slices.ContainsFunc(in.Names, func(t string) bool { return stream.CanonicalName(t) == name })
		})
		if in < 0 {
			return nil, fmt.Errorf("sqlengine: compile input does not provide table %q", tn.Name)
		}
		if slices.Contains(p.from, in) {
			return nil, fmt.Errorf("sqlengine: FROM names input %q twice", tn.Name)
		}
		p.from = append(p.from, in)
		p.qual = tn.Alias
		if p.qual == "" {
			p.qual = tn.Name
		}
		p.qual = stream.CanonicalName(p.qual)
		for _, c := range inputs[in].Cols {
			p.inCols = append(p.inCols, Column{Table: p.qual, Name: c.Name})
		}
	}
	sp, err := analyzeSimple(stmt, p.inCols)
	if err != nil {
		return nil, err
	}
	p.sp, p.prog = sp, newBoundProgram(sp, p.inCols)
	if p.prog == nil {
		return nil, fmt.Errorf("sqlengine: statement does not bind (unknown or ambiguous column, subquery or unknown function)")
	}
	p.sumCols, p.sumSlot = p.summaryFold()
	return p, nil
}

// summaryFold qualifies the plan for ExecuteTiered's page fold: one
// input, no GROUP BY or DISTINCT, no input column read after grouping,
// every aggregate COUNT(*) or a non-DISTINCT COUNT, SUM, AVG, MIN or MAX
// of a plain column other than TIMED — over integers, an answer that
// depends only on per-column counts, sums and extremes.
func (p *Plan) summaryFold() (cols, slots []int) {
	stmt := p.sp.stmt
	if !p.sp.grouped || len(stmt.GroupBy) > 0 || stmt.Distinct || len(p.from) > 1 || len(p.prog.after) > 0 {
		return nil, nil
	}
	slots = make([]int, len(p.sp.aggs))
	for i, a := range p.sp.aggs {
		if a.Distinct || aggKinds[a.Name] > aggMax { // STDDEV, FIRST, LAST
			return nil, nil
		}
		if slots[i] = -1; a.CountStar {
			continue
		}
		c := -1
		if ref, ok := a.Args[0].(*sqlparser.ColumnRef); ok { // bound: one argument
			c = columnIndex(p.inCols, ref)
		}
		if c < 0 || c == len(p.inCols)-1 { // TIMED is the last input column
			return nil, nil
		}
		if slots[i] = slices.Index(cols, c); slots[i] < 0 {
			slots[i], cols = len(cols), append(cols, c)
		}
	}
	return cols, slots
}

// IncProgram is a plan an AggMaintainer can keep over a sliding window:
// every GROUP BY key and aggregate argument is a plain input column, its
// WHERE less the frontier answers the same for a row whenever it runs,
// and the frontier, if any, is one lower bound on TIMED.
type IncProgram struct {
	plan *Plan
	// Keys are the input columns of the GROUP BY keys, in clause order;
	// none for an ungrouped aggregate.
	Keys []int
	args []int // each aggregate slot's input column; -1 for COUNT(*)

	// where is the WHERE without its frontier conjunct, bound on its own:
	// nil when nothing is left; whereCells memo slots, whereReads the
	// input columns it reads.
	where      boundExpr
	whereCells int
	whereReads []int
	// floor is the frontier's row-independent bound, which calls NOW():
	// the WHERE keeps rows with TIMED >= floor, or > floor when
	// floorStrict. nil without a frontier.
	floor       sqlparser.Expr
	floorStrict bool
}

// Incremental returns the plan's maintainable form, or nil when the
// statement does not qualify. A maintainer keeps, per live group, the
// key values and the aggregate states, so a statement qualifies when
// its run needs nothing else: an aggregate or GROUP BY statement over
// one input, every aggregate a non-DISTINCT COUNT, SUM, AVG, MIN, MAX or
// LAST over a plain column (or COUNT(*)), every GROUP BY key a plain
// column, and nothing after grouping — HAVING, the projection, ORDER BY
// — reading a column that is not a key.
//
// The WHERE's top-level AND conjuncts must not call NOW(), except one:
// a lower bound on TIMED (`timed >= e`, `timed > e`, or `e <= timed`,
// `e < timed`) whose bound e does not read the row — the paper's
// history bound `timed >= now() - H`. That conjunct becomes the
// maintainer's frontier, evaluated once per read; the others admit a
// row once, on arrival. Any other NOW() in the WHERE — an upper bound,
// a second lower bound, one under OR or NOT — is refused, and so is a
// GROUP BY key that is not a plain column. What runs after grouping
// (HAVING, the projection, ORDER BY, LIMIT) runs once per read at the
// read's clock reading, as in a plan execution, so a NOW() there
// qualifies. The container pairs the program with an AggMaintainer that
// reads the source's window table.
func (p *Plan) Incremental() *IncProgram {
	stmt := p.sp.stmt
	if !p.sp.grouped || len(p.from) > 1 {
		return nil
	}
	column := func(e sqlparser.Expr) int {
		if ref, ok := e.(*sqlparser.ColumnRef); ok {
			return columnIndex(p.inCols, ref)
		}
		return -1
	}
	inc := &IncProgram{plan: p, Keys: make([]int, len(stmt.GroupBy)), args: make([]int, len(p.sp.aggs))}
	var rest sqlparser.Expr
	for _, c := range conjuncts(stmt.Where, nil) {
		if !volatileExpr(c) {
			if rest == nil {
				rest = c
			} else {
				rest = &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: rest, R: c}
			}
			continue
		}
		x, ok := c.(*sqlparser.BinaryExpr)
		if !ok || inc.floor != nil {
			return nil
		}
		bound, op, ok := timedOperand(x, p.qual)
		if !ok || op != sqlparser.OpGe && op != sqlparser.OpGt || !rowIndependent(bound) {
			return nil
		}
		inc.floor, inc.floorStrict = bound, op == sqlparser.OpGt
	}
	if rest != nil {
		if inc.where, inc.whereCells, inc.whereReads = bindRowExpr(rest, p.inCols); inc.where == nil {
			return nil
		}
	}
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

// conjuncts appends the top-level AND operands of e to out, in order.
func conjuncts(e sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	switch x := e.(type) {
	case nil:
		return out
	case *sqlparser.BinaryExpr:
		if x.Op == sqlparser.OpAnd {
			return conjuncts(x.R, conjuncts(x.L, out))
		}
	}
	return append(out, e)
}

// IncrementalGrouped returns Incremental().
//
// Deprecated: Incremental answers for grouped statements too.
func (p *Plan) IncrementalGrouped() *IncProgram { return p.Incremental() }

// OutputColumns returns the plan's projected column layout.
func (p *Plan) OutputColumns() []Column { return p.sp.outCols }

// Execute runs a one-input plan over the current window rows (as
// produced by RowsOfSource against the layout the plan was compiled
// for).
func (p *Plan) Execute(rows [][]stream.Value, opts Options) (*Relation, error) {
	return p.prog.run(p, rows, newEvaluator(nil, opts))
}

// ExecuteProduct runs the plan over one relation per input, in
// CompileProduct's input order: over the cross product of those its
// FROM names, built by the interpreter's own cross join (and bounded by
// MaxRows as it is).
func (p *Plan) ExecuteProduct(inputs []*Relation, opts Options) (*Relation, error) {
	ev := newEvaluator(nil, opts)
	rel := inputs[p.from[0]]
	for _, in := range p.from[1:] {
		var err error
		if rel, err = ev.joinRelations(sqlparser.CrossJoin, rel, inputs[in], nil, nil); err != nil {
			return nil, err
		}
	}
	return p.prog.run(p, rel.Rows, ev)
}

// ExecuteSource runs a one-input plan directly against a window
// source, never materialising the window: the source's ForEach pass,
// inside the table's critical section, feeds the program a row at a
// time, built from the columns the statement reads.
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
// FoldTimed yields the interval's elements until fn returns false; on
// an error fn has seen a prefix of them. With a nil page it yields them
// all, in arrival order. Otherwise it may fold history pages whose
// summaries cover the integer columns cols instead, handing page each
// one's row count and, per column, its non-NULL count, wrapping sum,
// minimum and maximum, and yields the other elements in any order.
type TieredSource interface {
	ElementSource
	FoldTimed(lo, hi stream.Timestamp, cols []int, page func(rows int64, sums []int64), fn func(stream.Element) bool) error
}

// ExecuteTiered runs the plan as an ad-hoc statement over its base
// table: exactly what Execute does for the same statement over a
// RangeCatalog, without the per-call planning and per-row name
// resolution. A WHERE that pins TIMED to an interval (timeBounds, at
// the execution's one clock reading) routes the scan through
// FoldTimed, so an aggregate over a long interval holds one row and
// not the interval; otherwise the live window is scanned. The full
// WHERE is re-applied either way, and a failing tier fails the
// statement. When the WHERE is exactly the interval and the plan
// qualifies (summaryFold), summarized history pages merge into the
// run's one group as partial states.
func (p *Plan) ExecuteTiered(src TieredSource, opts Options) (*Relation, error) {
	ev := newEvaluator(nil, opts)
	if p.sp.stmt.Where == nil {
		return p.executeSource(src, ev)
	}
	lo, hi, ok, exact := ev.timeBounds(p.sp.stmt.Where, p.qual)
	if !ok {
		return p.executeSource(src, ev)
	}
	r := p.prog.start(p, ev)
	var page func(rows int64, sums []int64)
	var tierErr, foldErr error
	if exact && p.sumSlot != nil {
		page = func(rows int64, sums []int64) { foldErr = cmp.Or(foldErr, r.mergeSummary(rows, sums)) }
	}
	err := r.scan(func(fn func(stream.Element) bool) {
		tierErr = src.FoldTimed(stream.Timestamp(lo), stream.Timestamp(hi), p.sumCols, page, fn)
	})
	if err = cmp.Or(err, foldErr, tierErr); err != nil {
		return nil, err
	}
	return r.finish()
}

// mergeSummary merges one folded history page (TieredSource's layout)
// into the run's one group as the partial state of its rows.
func (r *boundRun) mergeSummary(rows int64, sums []int64) error {
	if r.single == nil {
		r.newGroup(nil, make([]stream.Value, len(r.p.inCols)))
	}
	r.kept += int(rows)
	for i, k := range r.p.sumSlot {
		part := AggPartial{Count: rows, IntOnly: true}
		if k >= 0 {
			s := sums[4*k:]
			part = AggPartial{Count: s[0], IntSum: s[1], Sum: float64(s[1]), IntOnly: true}
			if s[0] > 0 {
				part.Min, part.Max = s[2], s[3]
			}
		}
		if err := r.single.states[i].mergePartial(part); err != nil {
			return err
		}
	}
	return nil
}
