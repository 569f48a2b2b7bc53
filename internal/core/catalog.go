package core

import (
	"fmt"

	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

// storeCatalog adapts the storage layer to the SQL engine: table names
// resolve to their current window contents with the implicit TIMED
// column appended. Each resolution scans the table once inside its
// eviction critical section (the zero-copy ForEach path), so a query
// sees one consistent instant per referenced table without an
// intermediate element-slice copy.
//
// deps, when set, receives the identity and version of every table
// resolved (the result cache validates its entries against them). The
// version is read before the scan: an insert racing between the two
// leaves the entry stamped one version behind, which costs a refresh on
// the next lookup but can never serve rows older than the recorded
// version.
type storeCatalog struct {
	store *storage.Store
	deps  *[]resultDep
}

func (c storeCatalog) table(name string) (*storage.Table, error) {
	tab, ok := c.store.Table(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown stream %q", name)
	}
	if c.deps != nil {
		*c.deps = append(*c.deps, resultDep{name: tab.Name(), table: tab, version: tab.Version()})
	}
	return tab, nil
}

// Relation implements sqlengine.Catalog.
func (c storeCatalog) Relation(name string) (*sqlengine.Relation, error) {
	tab, err := c.table(name)
	if err != nil {
		return nil, err
	}
	return sqlengine.RelationOfSource(tab), nil
}

// RelationRange implements sqlengine.RangeCatalog: a query whose WHERE
// clause pins TIMED to an interval is served by the table's tiered
// range scan — a B+tree index walk over the on-disk history merged
// with the hot window — instead of a full window materialisation. For
// tables without a history tier this degrades to a filtered hot scan.
// The disk tier only changes when the hot window does (evictions
// migrate rows and bump the version), so the version pin validates
// tiered results exactly like hot-only ones.
func (c storeCatalog) RelationRange(name string, lo, hi int64) (*sqlengine.Relation, error) {
	tab, err := c.table(name)
	if err != nil {
		return nil, nil // an unknown table, which Relation reports
	}
	elems, err := tab.TimedRange(stream.Timestamp(lo), stream.Timestamp(hi))
	if err != nil {
		return nil, err
	}
	return sqlengine.RelationOfElements(tab.Schema(), elems), nil
}

var _ sqlengine.RangeCatalog = storeCatalog{}

// Catalog exposes the container's stored streams (virtual sensor
// outputs and source windows) to ad-hoc queries.
func (c *Container) Catalog() sqlengine.Catalog {
	return storeCatalog{store: c.store}
}

// outputMap places a stream plan's result columns in the output
// structure, resolved once at deploy. Field values are taken by
// (unqualified) column name when every schema field resolves uniquely
// among the columns, and positionally otherwise — so both
//
//	select avg(temperature) as temperature from wrapper
//	select avg(temperature) from wrapper
//
// populate a single-field output structure. The element timestamp comes
// from an unambiguous TIMED column when present, else from now.
type outputMap struct {
	fields []int // the column filling each schema field
	timed  int   // the TIMED column, -1 when there is none
}

func newOutputMap(schema *stream.Schema, cols []sqlengine.Column) (outputMap, error) {
	rel := &sqlengine.Relation{Cols: cols}
	m := outputMap{fields: make([]int, schema.Len()), timed: -1}
	for i, f := range schema.Fields() {
		j, err := rel.ColumnIndex("", f.Name)
		if err != nil {
			if len(cols) < schema.Len() {
				return m, fmt.Errorf("core: query produces %d columns for output structure %s", len(cols), schema)
			}
			for k := range m.fields {
				m.fields[k] = k
			}
			break
		}
		m.fields[i] = j
	}
	if j, err := rel.ColumnIndex("", sqlengine.TimedColumn); err == nil {
		m.timed = j
	}
	return m, nil
}

// elements converts result rows into stream elements of schema.
func (m outputMap) elements(schema *stream.Schema, rows [][]stream.Value, now stream.Timestamp) ([]stream.Element, error) {
	out := make([]stream.Element, 0, len(rows))
	for _, row := range rows {
		values := make([]stream.Value, len(m.fields))
		for i, j := range m.fields {
			values[i] = row[j]
		}
		ts := now
		if m.timed >= 0 {
			if t, ok := row[m.timed].(int64); ok {
				ts = stream.Timestamp(t)
			}
		}
		e, err := stream.NewElement(schema, ts, values...)
		if err != nil {
			return nil, fmt.Errorf("core: output row does not fit structure %s: %w", schema, err)
		}
		out = append(out, e)
	}
	return out, nil
}
