package core

import (
	"gsn/internal/metrics"
	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

// tier names the evaluator that answered a read of a tableQuery.
type tier uint8

const (
	tierIncremental tier = iota // the maintainer's running aggregates
	tierCompiled                // the bound plan over the table
	tierGeneral                 // the interpreter over the caller's catalog
)

// tableQuery is one statement over one table, built once: the plan
// compiled against the table's layout where the statement binds, and
// the maintainer of the plan's groups where the caller keeps one and
// the plan qualifies. Everything the container evaluates over a table
// reads through one — a sensor's source queries, the query repository's
// groups and the result cache's ad-hoc statements — so one text answers
// the same rows whichever of them runs it.
type tableQuery struct {
	stmt    *sqlparser.SelectStatement
	plan    *sqlengine.Plan          // nil: the interpreter answers
	agg     *sqlengine.AggMaintainer // nil: no maintained tier
	resyncs *metrics.Counter         // counts agg's rebuilds for float drift
}

// newTableQuery compiles stmt against a table of schema that its FROM
// may call by any of names. Without a schema (no one table to bind to),
// or for a statement that does not bind, the interpreter answers alone.
func newTableQuery(stmt *sqlparser.SelectStatement, schema *stream.Schema, names ...string) *tableQuery {
	q := &tableQuery{stmt: stmt}
	if schema != nil {
		q.plan, _ = sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(schema), names...)
	}
	return q
}

// maintain attaches the maintainer of the plan's groups, which catches
// up from tab's window at each read and counts its float-drift rebuilds
// on resyncs, where the plan qualifies (Plan.Incremental) unless a
// group key is a float column or the WHERE bounds TIMED over a table
// that keeps history. Distinct floats can compare equal (-0.0, +0.0), and
// the maintainer projects the key values captured when a group was
// created where a scan projects the oldest live row's; the implicit
// TIMED key is an int. A TIMED bound reaches the rows the window
// evicted, which a maintainer never sees.
func (q *tableQuery) maintain(tab *storage.Table, resyncs *metrics.Counter) {
	if q.plan == nil || tab.HasHistory() && q.plan.BoundsTimed() {
		return
	}
	inc := q.plan.Incremental()
	if inc == nil {
		return
	}
	fields := tab.Schema().Fields()
	for _, col := range inc.Keys {
		if col < len(fields) && fields[col].Type == stream.TypeFloat {
			return
		}
	}
	q.agg, q.resyncs = sqlengine.NewAggMaintainer(inc), resyncs
}

// read answers the statement over tab, the table it was built for
// (nil when it has none), on the first tier that can, and returns that
// tier: the maintainer, rebuilt first when float drift calls for it and
// caught up from the window under the table's lock, so its answer
// reflects exactly the live window; the plan over the table, its TIMED
// interval reaching the history tier; the interpreter over cat. A
// declined maintained read falls through to the plan, which answers or
// surfaces the error.
func (q *tableQuery) read(tab *storage.Table, cat sqlengine.Catalog, opts sqlengine.Options) (rel *sqlengine.Relation, t tier, err error) {
	if q.agg != nil {
		if q.agg.NeedsResync() {
			q.agg.Reset()
			q.resyncs.Inc()
		}
		tab.ReadWindow(func(first uint64, live []stream.Element) { rel = q.agg.Read(first, live, opts) })
		if rel != nil {
			return rel, tierIncremental, nil
		}
	}
	if q.plan != nil {
		rel, err = q.plan.ExecuteTiered(tab, opts)
		return rel, tierCompiled, err
	}
	rel, err = sqlengine.Execute(q.stmt, cat, opts)
	return rel, tierGeneral, err
}

// tierCounters is one caller's counter family, indexed by the tier
// that answered: prefix_incremental, _compiled and _general.
type tierCounters [3]*metrics.Counter

func newTierCounters(reg *metrics.Registry, prefix string) tierCounters {
	return tierCounters{
		reg.Counter(prefix + "_incremental"),
		reg.Counter(prefix + "_compiled"),
		reg.Counter(prefix + "_general"),
	}
}
