// Package sqlengine evaluates the SQL dialect parsed by sqlparser over
// in-memory window relations. It implements the query processor of the
// GSN query manager (paper §4): joins (nested-loop and hash), scalar and
// quantified subqueries, grouping with aggregates, ordering, set
// operations and a scalar function library. The full dialect is
// specified (with executable examples) in docs/sql-dialect.md.
//
// GSN triggers a query execution for every arriving stream element, so
// the engine is optimised for many small executions over window-sized
// relations rather than for large analytical scans. Three tiers serve
// a statement, picked automatically at Compile and byte-identical in
// results (float SUM/AVG aside, see docs/sql-dialect.md): an
// AggMaintainer keeps the groups of an aggregate shape over any sliding
// window and answers in O(groups) per trigger; bound programs (compiled.go)
// run single-table SELECT cores — WHERE, GROUP BY, HAVING, ORDER BY —
// with column references resolved to row indices at bind time; and the
// interpreting evaluator (eval.go, exec.go) covers everything else.
package sqlengine

import (
	"encoding/binary"
	"fmt"
	"strings"

	"gsn/internal/stream"
)

// Column identifies an output or scope column. Table is the qualifier
// (table alias), possibly empty for computed columns.
type Column struct {
	Table string
	Name  string
}

// String renders "TABLE.NAME" or "NAME".
func (c Column) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Relation is a materialised result or scope: an ordered column list and
// a row list. Rows hold stream values (nil, int64, float64, string,
// []byte, bool).
type Relation struct {
	Cols []Column
	Rows [][]stream.Value
}

// NewRelation builds a relation with unqualified column names.
func NewRelation(names ...string) *Relation {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: stream.CanonicalName(n)}
	}
	return &Relation{Cols: cols}
}

// AddRow appends a row, checking arity.
func (r *Relation) AddRow(values ...stream.Value) error {
	if len(values) != len(r.Cols) {
		return fmt.Errorf("sqlengine: row arity %d does not match %d columns", len(values), len(r.Cols))
	}
	r.Rows = append(r.Rows, values)
	return nil
}

// ColumnIndex finds a column by (optional) table qualifier and name,
// both case-insensitive. It returns the index, or an error when the
// name is missing or ambiguous.
func (r *Relation) ColumnIndex(table, name string) (int, error) {
	table = stream.CanonicalName(table)
	name = stream.CanonicalName(name)
	found := -1
	for i, c := range r.Cols {
		if c.Name != name {
			continue
		}
		if table != "" && c.Table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("sqlengine: ambiguous column %s", Column{Table: table, Name: name})
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("sqlengine: unknown column %s", Column{Table: table, Name: name})
	}
	return found, nil
}

// Names returns the bare column names in order.
func (r *Relation) Names() []string {
	out := make([]string, len(r.Cols))
	for i, c := range r.Cols {
		out[i] = c.Name
	}
	return out
}

// AppendRelation appends rel's peer-answer encoding (the relation
// grammar in stream/codec.go): column names, row count, then every
// row's values. Table qualifiers do not travel.
func AppendRelation(buf []byte, rel *Relation) []byte {
	buf = appendNames(buf, rel.Names())
	buf = binary.AppendUvarint(buf, uint64(len(rel.Rows)))
	for _, row := range rel.Rows {
		for _, v := range row {
			buf = stream.AppendValue(buf, v)
		}
	}
	return buf
}

// ReadRelation decodes one relation written by AppendRelation; r
// reports any failure. The rows share one backing array.
func ReadRelation(r *stream.Reader) *Relation {
	rel := &Relation{Cols: make([]Column, r.Count(1))}
	for i := range rel.Cols {
		rel.Cols[i].Name = string(r.Blob())
	}
	n := len(rel.Cols)
	rel.Rows = make([][]stream.Value, r.Count(max(n, 1)))
	vals := make([]stream.Value, len(rel.Rows)*n)
	for i := range vals {
		vals[i] = r.Value()
	}
	for i := range rel.Rows {
		rel.Rows[i] = vals[i*n : (i+1)*n : (i+1)*n]
	}
	return rel
}

// appendNames appends a counted list of names.
func appendNames(buf []byte, names []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = stream.AppendBlob(buf, name)
	}
	return buf
}

func readNames(r *stream.Reader) []string {
	names := make([]string, r.Count(1))
	for i := range names {
		names[i] = string(r.Blob())
	}
	return names
}

// appendValues appends a counted row of values.
func appendValues(buf []byte, row []stream.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = stream.AppendValue(buf, v)
	}
	return buf
}

func readValues(r *stream.Reader) []stream.Value {
	row := make([]stream.Value, r.Count(1))
	for i := range row {
		row[i] = r.Value()
	}
	return row
}

// String renders a compact table for tests and logs.
func (r *Relation) String() string {
	var b strings.Builder
	for i, c := range r.Cols {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(c.String())
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(stream.FormatValue(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// requalify returns a copy of the relation with every column's table
// qualifier replaced (used when a FROM item gets an alias).
func (r *Relation) requalify(alias string) *Relation {
	alias = stream.CanonicalName(alias)
	cols := make([]Column, len(r.Cols))
	for i, c := range r.Cols {
		cols[i] = Column{Table: alias, Name: c.Name}
	}
	return &Relation{Cols: cols, Rows: r.Rows}
}

// TimedColumn is the implicit timestamp attribute GSN adds to every
// stream relation; queries address it as TIMED (milliseconds since the
// Unix epoch).
const TimedColumn = "TIMED"

// Catalog resolves base table names to window relations. Implementations
// must canonicalise names case-insensitively.
type Catalog interface {
	// Relation returns the current contents of the named table.
	Relation(name string) (*Relation, error)
}

// MapCatalog is a Catalog backed by a map; useful for tests and for an
// interpreted source query's window.
type MapCatalog map[string]*Relation

// Relation implements Catalog.
func (m MapCatalog) Relation(name string) (*Relation, error) {
	if r, ok := m[stream.CanonicalName(name)]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("sqlengine: unknown table %q", name)
}

// ChainCatalog searches catalogs in order; the container layers one
// sensor's rows or a cluster union over the persistent store this way.
type ChainCatalog []Catalog

// Relation implements Catalog.
func (c ChainCatalog) Relation(name string) (*Relation, error) {
	var firstErr error
	for _, cat := range c {
		r, err := cat.Relation(name)
		if err == nil {
			return r, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("sqlengine: unknown table %q", name)
	}
	return nil, firstErr
}

// RelationOfElements materialises stream elements into a relation,
// appending the implicit TIMED column.
func RelationOfElements(schema *stream.Schema, elems []stream.Element) *Relation {
	rel := &Relation{Cols: ColumnsOfSchema(schema), Rows: make([][]stream.Value, 0, len(elems))}
	for _, e := range elems {
		rel.Rows = append(rel.Rows, appendRow(make([]stream.Value, 0, schema.Len()+1), e))
	}
	return rel
}

// ColumnsOfSchema returns the relation column layout of a stream
// schema: one unqualified column per field plus the implicit TIMED
// column.
func ColumnsOfSchema(schema *stream.Schema) []Column {
	cols := make([]Column, 0, schema.Len()+1)
	for _, f := range schema.Fields() {
		cols = append(cols, Column{Name: f.Name})
	}
	return append(cols, Column{Name: TimedColumn})
}

// ElementSource is a windowed element store the engine can scan without
// copying; *storage.Table implements it. Len is a capacity hint, ForEach
// must yield live elements in arrival order.
type ElementSource interface {
	Schema() *stream.Schema
	Len() int
	ForEach(fn func(stream.Element) bool)
}

// RowsOfSource scans a source into relation rows (schema fields plus
// TIMED) in one pass over the source's own storage — the zero-copy
// replacement for Snapshot()+RelationOfElements, which copied the whole
// window into an intermediate element slice on every trigger. Row
// backing arrays are carved from chunked arenas so a thousand-row
// window costs a handful of allocations instead of one per row.
func RowsOfSource(src ElementSource) [][]stream.Value {
	ncols := src.Schema().Len() + 1
	hint := src.Len()
	if hint < 16 {
		hint = 16
	}
	rows := make([][]stream.Value, 0, hint)
	arena := make([]stream.Value, 0, hint*ncols)
	src.ForEach(func(e stream.Element) bool {
		if len(arena)+ncols > cap(arena) {
			// Full chunk: start a new arena. Rows already handed out keep
			// referencing the old one, so appends can never realloc under
			// them.
			arena = make([]stream.Value, 0, hint*ncols)
		}
		start := len(arena)
		arena = appendRow(arena, e)
		rows = append(rows, arena[start:len(arena):len(arena)])
		return true
	})
	return rows
}

// appendRow appends e's relation row — its fields, then TIMED — to arena.
func appendRow(arena []stream.Value, e stream.Element) []stream.Value {
	for i := 0; i < e.Len(); i++ {
		arena = append(arena, e.Value(i))
	}
	return append(arena, int64(e.Timestamp()))
}

// RelationOfSource is RowsOfSource with the column header attached.
func RelationOfSource(src ElementSource) *Relation {
	return &Relation{Cols: ColumnsOfSchema(src.Schema()), Rows: RowsOfSource(src)}
}
