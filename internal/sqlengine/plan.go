package sqlengine

import (
	"fmt"

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

	// inc is the incremental aggregate program when the statement is an
	// aggregate-only projection; nil otherwise.
	inc []IncAggSpec

	// ginc is the grouped incremental program when the statement is a
	// grouped aggregate-only projection over plain column keys; nil
	// otherwise. inc and ginc are mutually exclusive.
	ginc *GroupedIncProgram

	// prog is the bound (column-index-resolved) execution program. See
	// compiled.go.
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
	p.inc = incrementalProgram(sp, inCols)
	if p.inc == nil {
		p.ginc = groupedIncrementalProgram(sp, inCols)
	}
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
