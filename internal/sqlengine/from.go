package sqlengine

import (
	"fmt"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// buildFrom materialises the FROM clause into one relation. An empty
// FROM yields the one-row "dual" relation so expressions without tables
// (SELECT 1+1) evaluate once.
func (ev *evaluator) buildFrom(items []sqlparser.TableRef, outer *scope) (*Relation, error) {
	if len(items) == 0 {
		return &Relation{Rows: [][]stream.Value{{}}}, nil
	}
	rel, err := ev.resolveTableRef(items[0], outer)
	if err != nil {
		return nil, err
	}
	for _, item := range items[1:] {
		right, err := ev.resolveTableRef(item, outer)
		if err != nil {
			return nil, err
		}
		rel, err = ev.joinRelations(sqlparser.CrossJoin, rel, right, nil, outer)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// buildFromPushdown is buildFrom with TIMED-range pushdown: when the
// statement scans a single base table, the catalog can serve ranges
// (RangeCatalog) and the WHERE clause pins TIMED to an interval, the
// scan is routed through RelationRange — the storage layer's index
// range scan over disk history merged with the hot window. The result
// may be a superset of the final rows; runSimple re-applies the full
// WHERE clause either way, so the routing is invisible in results. A
// range that fails (a broken history tier) fails the statement: the
// hot window alone would answer it silently short.
func (ev *evaluator) buildFromPushdown(stmt *sqlparser.SelectStatement, outer *scope) (*Relation, error) {
	if len(stmt.From) == 1 && stmt.Where != nil {
		if tn, ok := stmt.From[0].(*sqlparser.TableName); ok {
			if rc, ok := ev.cat.(RangeCatalog); ok {
				qual := tn.Alias
				if qual == "" {
					qual = tn.Name
				}
				if lo, hi, ok, _ := ev.timeBounds(stmt.Where, qual); ok {
					rel, err := rc.RelationRange(tn.Name, lo, hi)
					if err != nil {
						return nil, err
					}
					if rel != nil {
						return rel.requalify(qual), nil
					}
					// The table is not in this catalog layer: the
					// ordinary resolution finds it or reports it.
				}
			}
		}
	}
	return ev.buildFrom(stmt.From, outer)
}

func (ev *evaluator) resolveTableRef(ref sqlparser.TableRef, outer *scope) (*Relation, error) {
	switch t := ref.(type) {
	case *sqlparser.TableName:
		rel, err := ev.cat.Relation(t.Name)
		if err != nil {
			return nil, err
		}
		qual := t.Alias
		if qual == "" {
			qual = t.Name
		}
		return rel.requalify(qual), nil

	case *sqlparser.SubqueryRef:
		// Derived tables are evaluated without correlation, per standard
		// SQL scoping.
		rel, err := ev.execSelect(t.Select, nil)
		if err != nil {
			return nil, err
		}
		return rel.requalify(t.Alias), nil

	case *sqlparser.JoinRef:
		left, err := ev.resolveTableRef(t.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := ev.resolveTableRef(t.Right, outer)
		if err != nil {
			return nil, err
		}
		return ev.joinRelations(t.Kind, left, right, t.On, outer)

	default:
		return nil, fmt.Errorf("sqlengine: unsupported FROM item %T", ref)
	}
}

// joinRelations joins two relations. Equi-joins over plain column
// references use a hash join unless disabled; everything else falls back
// to a nested loop with the ON predicate evaluated per candidate pair.
func (ev *evaluator) joinRelations(kind sqlparser.JoinKind, left, right *Relation,
	on sqlparser.Expr, outer *scope) (*Relation, error) {

	cols := make([]Column, 0, len(left.Cols)+len(right.Cols))
	cols = append(cols, left.Cols...)
	cols = append(cols, right.Cols...)
	out := &Relation{Cols: cols}

	combine := func(l, r []stream.Value) []stream.Value {
		row := make([]stream.Value, 0, len(cols))
		row = append(row, l...)
		row = append(row, r...)
		return row
	}
	nullsLeft := make([]stream.Value, len(left.Cols))
	nullsRight := make([]stream.Value, len(right.Cols))

	appendRow := func(row []stream.Value) error {
		out.Rows = append(out.Rows, row)
		if len(out.Rows) > ev.opts.MaxRows {
			return fmt.Errorf("sqlengine: join result exceeds %d rows", ev.opts.MaxRows)
		}
		return nil
	}

	if kind == sqlparser.CrossJoin || on == nil && kind == sqlparser.InnerJoin {
		for _, l := range left.Rows {
			for _, r := range right.Rows {
				if err := appendRow(combine(l, r)); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}

	// Hash path for inner and left equi-joins.
	if !ev.opts.DisableHashJoin && (kind == sqlparser.InnerJoin || kind == sqlparser.LeftJoin) {
		if lIdx, rIdx, ok := equiJoinColumns(on, left, right); ok {
			index := make(map[string][]int, len(right.Rows))
			var keyBuf []byte
			for i, r := range right.Rows {
				if r[rIdx] == nil {
					continue // NULL keys never match
				}
				keyBuf = encodeKey(keyBuf[:0], r[rIdx])
				index[string(keyBuf)] = append(index[string(keyBuf)], i)
			}
			for _, l := range left.Rows {
				matched := false
				if l[lIdx] != nil {
					keyBuf = encodeKey(keyBuf[:0], l[lIdx])
					for _, ri := range index[string(keyBuf)] {
						if err := appendRow(combine(l, right.Rows[ri])); err != nil {
							return nil, err
						}
						matched = true
					}
				}
				if !matched && kind == sqlparser.LeftJoin {
					if err := appendRow(combine(l, nullsRight)); err != nil {
						return nil, err
					}
				}
			}
			return out, nil
		}
	}

	// Nested loop with ON evaluation. RIGHT JOIN preserves unmatched
	// right rows with NULL-padded left columns.
	onScope := &Relation{Cols: cols}
	rightMatched := make([]bool, len(right.Rows))
	for _, l := range left.Rows {
		matched := false
		for ri, r := range right.Rows {
			row := combine(l, r)
			sc := &scope{rel: onScope, row: row, parent: outer}
			v, err := ev.eval(on, sc)
			if err != nil {
				return nil, err
			}
			if t, known := truth(v); known && t {
				if err := appendRow(row); err != nil {
					return nil, err
				}
				matched = true
				rightMatched[ri] = true
			}
		}
		if !matched && kind == sqlparser.LeftJoin {
			if err := appendRow(combine(l, nullsRight)); err != nil {
				return nil, err
			}
		}
	}
	if kind == sqlparser.RightJoin {
		for ri, r := range right.Rows {
			if !rightMatched[ri] {
				if err := appendRow(combine(nullsLeft, r)); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// equiJoinColumns recognises ON clauses of the form L.col = R.col where
// the two references resolve on opposite sides, returning the column
// indices for the hash join.
func equiJoinColumns(on sqlparser.Expr, left, right *Relation) (int, int, bool) {
	be, ok := on.(*sqlparser.BinaryExpr)
	if !ok || be.Op != sqlparser.OpEq {
		return 0, 0, false
	}
	lref, ok := be.L.(*sqlparser.ColumnRef)
	if !ok {
		return 0, 0, false
	}
	rref, ok := be.R.(*sqlparser.ColumnRef)
	if !ok {
		return 0, 0, false
	}
	if li, err := left.ColumnIndex(lref.Table, lref.Name); err == nil {
		if ri, err := right.ColumnIndex(rref.Table, rref.Name); err == nil {
			return li, ri, true
		}
	}
	// Swapped orientation: R.col = L.col.
	if li, err := left.ColumnIndex(rref.Table, rref.Name); err == nil {
		if ri, err := right.ColumnIndex(lref.Table, lref.Name); err == nil {
			return li, ri, true
		}
	}
	return 0, 0, false
}
