package sqlengine

import (
	"fmt"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// Plan is a SELECT statement compiled once against a fixed single-table
// input layout, so the per-trigger path pays none of the per-execution
// planning Execute does (FROM resolution, aggregate collection,
// projection and ORDER BY planning). The GSN container compiles each
// deployed sensor's source and stream statements at deploy time and
// re-runs the plan on every trigger.
//
// Compile intentionally covers the statement shapes sensor descriptors
// use (one base table, no joins, derived tables or compounds); anything
// else returns an error and the caller falls back to Execute.
type Plan struct {
	sp       *simplePlan
	qual     string   // the FROM item's effective name (alias or table)
	inCols   []Column // input layout, qualified by the FROM alias
	bareCols []Column // input layout as compiled, for subquery re-binding
	names    []string // base-table names the input answers to

	// inc is the incremental aggregate program when the statement is an
	// aggregate-only projection; nil otherwise.
	inc []IncAggSpec

	// ginc is the grouped incremental program when the statement is a
	// grouped aggregate-only projection over plain column keys; nil
	// otherwise. inc and ginc are mutually exclusive.
	ginc *GroupedIncProgram

	// prog is the bound (column-index-resolved) execution program when
	// the statement is inside the compiled subset; nil falls back to
	// the interpreted evaluator. See compiled.go.
	prog *boundProgram
}

// IncAggKind enumerates the aggregates the incremental maintainer can
// keep under sliding count-window eviction in O(1)/O(log w) per update.
type IncAggKind int

// Incrementally maintainable aggregate kinds.
const (
	IncCount IncAggKind = iota // COUNT(col) / COUNT(*)
	IncSum
	IncAvg
	IncMin
	IncMax
	IncLast
)

// IncAggSpec is one output column of an incremental aggregate plan.
type IncAggSpec struct {
	Kind IncAggKind
	// Col is the input column index of the aggregate argument, or -1
	// for COUNT(*).
	Col int
	// Out is the output column descriptor.
	Out Column
}

var incKinds = map[string]IncAggKind{
	"COUNT": IncCount,
	"SUM":   IncSum,
	"AVG":   IncAvg,
	"MIN":   IncMin,
	"MAX":   IncMax,
	"LAST":  IncLast,
}

// Compile plans stmt against one input relation whose bare column
// layout is cols (see ColumnsOfSchema); tables lists the base-table
// names the FROM clause may use for it. The returned plan is immutable
// and safe for concurrent Execute calls.
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
	canonical := make([]string, len(tables))
	for i, t := range tables {
		canonical[i] = stream.CanonicalName(t)
	}
	p := &Plan{sp: sp, qual: qual, inCols: inCols, bareCols: cols, names: canonical}
	p.inc = incrementalProgram(sp, inCols)
	if p.inc == nil {
		p.ginc = groupedIncrementalProgram(sp, inCols)
	}
	p.prog = newBoundProgram(sp, inCols)
	return p, nil
}

// resolveColRef resolves a plain column reference against the input
// layout, returning -1 when the name is unknown or ambiguous.
func resolveColRef(ref *sqlparser.ColumnRef, inCols []Column) int {
	idx := -1
	for j, c := range inCols {
		if c.Name != stream.CanonicalName(ref.Name) {
			continue
		}
		if ref.Table != "" && c.Table != stream.CanonicalName(ref.Table) {
			continue
		}
		if idx >= 0 {
			return -1 // ambiguous
		}
		idx = j
	}
	return idx
}

// incAggSpec recognises one incrementally maintainable aggregate call
// (COUNT/SUM/AVG/MIN/MAX/LAST over a plain column or COUNT(*)), or nil.
func incAggSpec(fc *sqlparser.FuncCall, inCols []Column, out Column) *IncAggSpec {
	if fc.Distinct {
		return nil
	}
	kind, ok := incKinds[fc.Name]
	if !ok {
		return nil
	}
	spec := &IncAggSpec{Kind: kind, Col: -1, Out: out}
	if fc.CountStar {
		return spec
	}
	if len(fc.Args) != 1 {
		return nil
	}
	ref, ok := fc.Args[0].(*sqlparser.ColumnRef)
	if !ok {
		return nil
	}
	if spec.Col = resolveColRef(ref, inCols); spec.Col < 0 {
		return nil
	}
	return spec
}

// incrementalProgram recognises the dominant source-query shape —
// SELECT agg(col)[ AS alias], ... FROM w with no WHERE/GROUP BY/
// HAVING/ORDER BY/DISTINCT/LIMIT — and returns its aggregate program,
// or nil when the statement does not qualify.
func incrementalProgram(sp *simplePlan, inCols []Column) []IncAggSpec {
	stmt := sp.stmt
	if !sp.grouped || len(stmt.GroupBy) > 0 || stmt.Where != nil || stmt.Having != nil ||
		stmt.Distinct || len(stmt.OrderBy) > 0 || stmt.Limit != nil || stmt.Offset != nil {
		return nil
	}
	specs := make([]IncAggSpec, 0, len(sp.proj))
	for i, item := range sp.proj {
		if item.star {
			return nil
		}
		fc, ok := item.expr.(*sqlparser.FuncCall)
		if !ok {
			return nil
		}
		spec := incAggSpec(fc, inCols, sp.outCols[i])
		if spec == nil {
			return nil
		}
		specs = append(specs, *spec)
	}
	if len(specs) == 0 {
		return nil
	}
	return specs
}

// GroupedProjSlot maps one output column of a grouped incremental
// program to its source: a GROUP BY key (Idx into Keys) or an
// aggregate (Idx into Aggs).
type GroupedProjSlot struct {
	Key bool
	Idx int
}

// GroupedIncProgram is the compiled form of a grouped aggregate-only
// statement the GroupedAggMaintainer can keep under sliding
// count-window eviction: plain-column group keys, incrementally
// maintainable aggregates, and a projection drawing only from those.
type GroupedIncProgram struct {
	// Keys are the input column indices of the GROUP BY keys, in
	// clause order.
	Keys []int
	// Aggs are the aggregate slots, in projection order.
	Aggs []IncAggSpec
	// Proj maps each output column to a key or aggregate slot.
	Proj []GroupedProjSlot
	// Cols is the output column layout.
	Cols []Column
}

// groupedIncrementalProgram recognises the grouped rollup shape —
// SELECT key..., agg(col)... FROM w GROUP BY key... with no WHERE/
// HAVING/ORDER BY/DISTINCT/LIMIT, every key a plain column reference
// and every projected column either a key or a maintainable aggregate
// — or returns nil. Shapes outside it (HAVING, expression keys,
// filtered rollups) still compile into the bound-program tier.
func groupedIncrementalProgram(sp *simplePlan, inCols []Column) *GroupedIncProgram {
	stmt := sp.stmt
	if len(stmt.GroupBy) == 0 || stmt.Where != nil || stmt.Having != nil ||
		stmt.Distinct || len(stmt.OrderBy) > 0 || stmt.Limit != nil || stmt.Offset != nil {
		return nil
	}
	prog := &GroupedIncProgram{Keys: make([]int, len(stmt.GroupBy)), Cols: sp.outCols}
	for i, g := range stmt.GroupBy {
		ref, ok := g.(*sqlparser.ColumnRef)
		if !ok {
			return nil
		}
		if prog.Keys[i] = resolveColRef(ref, inCols); prog.Keys[i] < 0 {
			return nil
		}
	}
	for i, item := range sp.proj {
		if item.star {
			return nil
		}
		switch x := item.expr.(type) {
		case *sqlparser.ColumnRef:
			idx := resolveColRef(x, inCols)
			if idx < 0 {
				return nil
			}
			slot := -1
			for j, k := range prog.Keys {
				if k == idx {
					slot = j
					break
				}
			}
			if slot < 0 {
				return nil // projects a non-key column: rep-row semantics need the scan
			}
			prog.Proj = append(prog.Proj, GroupedProjSlot{Key: true, Idx: slot})
		case *sqlparser.FuncCall:
			spec := incAggSpec(x, inCols, sp.outCols[i])
			if spec == nil {
				return nil
			}
			prog.Proj = append(prog.Proj, GroupedProjSlot{Idx: len(prog.Aggs)})
			prog.Aggs = append(prog.Aggs, *spec)
		default:
			return nil
		}
	}
	return prog
}

// Incremental returns the plan's aggregate program, or nil when the
// statement is not aggregate-only. The container pairs it with an
// AggMaintainer observing the source's window table.
func (p *Plan) Incremental() []IncAggSpec { return p.inc }

// IncrementalGrouped returns the plan's grouped incremental program,
// or nil when the statement is not a maintainable grouped rollup. The
// container pairs it with a GroupedAggMaintainer observing the window
// table.
func (p *Plan) IncrementalGrouped() *GroupedIncProgram { return p.ginc }

// OutputColumns returns the plan's projected column layout.
func (p *Plan) OutputColumns() []Column { return p.sp.outCols }

// ExecuteSource runs the compiled plan directly against a window
// source. Aggregate-only plans never materialise rows at all: the
// aggregate program folds each element in one ForEach pass inside the
// table's critical section. Other plan shapes scan the source into rows
// once (still zero-copy with respect to the element store) and run the
// precompiled plan.
func (p *Plan) ExecuteSource(src ElementSource, opts Options) (*Relation, error) {
	if p.inc == nil {
		return p.Execute(RowsOfSource(src), opts)
	}
	states := p.incStates()
	var addErr error
	src.ForEach(func(e stream.Element) bool {
		addErr = p.incFold(states, func(col int) stream.Value { return inputValue(e, col) })
		return addErr == nil
	})
	if addErr != nil {
		return nil, addErr
	}
	return p.incResult(states), nil
}

// incAggKindMap translates the incremental program kinds back to the
// engine's aggregate states, so the compiled fold computes exactly what
// execGrouped computes.
var incAggKindMap = map[IncAggKind]aggKind{
	IncCount: aggCount,
	IncSum:   aggSum,
	IncAvg:   aggAvg,
	IncMin:   aggMin,
	IncMax:   aggMax,
	IncLast:  aggLast,
}

func (p *Plan) incStates() []*aggState {
	states := make([]*aggState, len(p.inc))
	for i, spec := range p.inc {
		states[i] = newAggState(incAggKindMap[spec.Kind], false)
	}
	return states
}

// incFold feeds one input row (via the column accessor) into the
// aggregate states.
func (p *Plan) incFold(states []*aggState, value func(col int) stream.Value) error {
	for i := range p.inc {
		spec := &p.inc[i]
		var v stream.Value
		if spec.Col < 0 {
			v = int64(1) // COUNT(*) counts rows, NULLs included
		} else {
			v = value(spec.Col)
		}
		if err := states[i].add(v); err != nil {
			return err
		}
	}
	return nil
}

func (p *Plan) incResult(states []*aggState) *Relation {
	row := make([]stream.Value, len(states))
	for i, st := range states {
		row[i] = st.result()
	}
	return &Relation{Cols: p.sp.outCols, Rows: [][]stream.Value{row}}
}

// Execute runs the compiled plan over the current window rows (as
// produced by RowsOfSource against the layout the plan was compiled
// for). It mirrors Execute's tail — ORDER BY and LIMIT/OFFSET — but
// skips all per-call planning.
func (p *Plan) Execute(rows [][]stream.Value, opts Options) (*Relation, error) {
	return p.execute(rows, newEvaluator(nil, opts))
}

// execute is one execution of the plan on ev, the evaluator whose clock
// reading the whole execution shares.
func (p *Plan) execute(rows [][]stream.Value, ev *evaluator) (*Relation, error) {
	if p.inc != nil {
		states := p.incStates()
		for _, r := range rows {
			row := r
			if err := p.incFold(states, func(col int) stream.Value { return row[col] }); err != nil {
				return nil, err
			}
		}
		return p.incResult(states), nil
	}
	// Compiled subset: run the bound program (no name resolution, no
	// scope allocation, no per-call planning).
	if p.prog != nil {
		return p.prog.run(p, rows, ev)
	}
	// Subqueries in expression position resolve the base tables through
	// the catalog, so rebind them to the same live rows.
	ev.cat = p.catalogOver(rows)
	src := &Relation{Cols: p.inCols, Rows: rows}
	rel, sortKeys, err := ev.runSimple(p.sp, src, nil)
	if err != nil {
		return nil, err
	}
	if len(p.sp.stmt.OrderBy) > 0 && sortKeys != nil {
		sortRelation(rel, sortKeys, p.sp.stmt.OrderBy)
	}
	if err := ev.applyLimitOffset(rel, p.sp.stmt, nil); err != nil {
		return nil, err
	}
	return rel, nil
}

// catalogOver binds the plan's base-table names to rows.
func (p *Plan) catalogOver(rows [][]stream.Value) MapCatalog {
	cat := make(MapCatalog, len(p.names))
	view := &Relation{Cols: p.bareCols, Rows: rows}
	for _, n := range p.names {
		cat[n] = view
	}
	return cat
}

// Bound reports whether the statement is inside the bound-program
// subset, so that executing the plan never consults the interpreter or
// a catalog. A plan that is not re-binds expression subqueries to the
// rows it is handed, which is right for a sensor's own window and wrong
// for an ad-hoc statement whose subquery names a table of its own.
func (p *Plan) Bound() bool { return p.prog != nil }

// TieredSource is an ElementSource that can also serve a TIMED interval
// from beyond its live window; *storage.Table implements it (the
// history tier's index range scan merged with the hot window).
// ForEachTimed yields the interval's elements in arrival order until fn
// returns false; on an error fn has seen a prefix of them.
type TieredSource interface {
	ElementSource
	ForEachTimed(lo, hi stream.Timestamp, fn func(stream.Element) bool) error
}

// tieredBatchRows is the most rows of a TIMED interval handed to the
// bound program at a time.
const tieredBatchRows = 1024

// ExecuteTiered runs a Bound plan as an ad-hoc statement over its base
// table: exactly what Execute does for the same statement over a
// RangeCatalog, without the per-call planning and per-row name
// resolution. A WHERE that pins TIMED to an interval (timeBounds, at
// the execution's one clock reading) routes the scan through
// ForEachTimed, a batch of rows at a time, so an aggregate over a long
// interval holds one batch and not the interval; otherwise, or when the
// tier fails, the live window is scanned zero-copy. The full WHERE is
// re-applied either way.
func (p *Plan) ExecuteTiered(src TieredSource, opts Options) (*Relation, error) {
	if p.prog == nil {
		return nil, fmt.Errorf("sqlengine: ExecuteTiered needs a bound plan")
	}
	if p.sp.stmt.Where == nil {
		return p.ExecuteSource(src, opts)
	}
	ev := newEvaluator(nil, opts)
	if lo, hi, ok := ev.timeBounds(p.sp.stmt.Where, p.qual); ok {
		// Every batch gets rows of its own: a grouped program keeps the
		// first row of each group. Batches double up to the limit, so a
		// short interval pays for a short batch.
		ncols, size := len(p.inCols), 64
		var rows [][]stream.Value
		var arena []stream.Value
		run := p.prog.start(p, ev)
		var runErr error
		srcErr := src.ForEachTimed(stream.Timestamp(lo), stream.Timestamp(hi), func(e stream.Element) bool {
			if len(rows) == cap(rows) {
				runErr = run.feed(rows)
				rows = make([][]stream.Value, 0, size)
				arena = make([]stream.Value, 0, size*ncols)
				if size < tieredBatchRows {
					size *= 2
				}
			}
			start := len(arena)
			for i := 0; i < e.Len(); i++ {
				arena = append(arena, e.Value(i))
			}
			arena = append(arena, int64(e.Timestamp()))
			rows = append(rows, arena[start:len(arena):len(arena)])
			return runErr == nil
		})
		if runErr == nil && srcErr == nil {
			runErr = run.feed(rows)
		}
		if runErr != nil {
			return nil, runErr
		}
		if srcErr == nil {
			return run.finish()
		}
	}
	return p.execute(RowsOfSource(src), ev)
}
