package sqlengine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// Options tunes query execution. The zero value is ready to use.
type Options struct {
	// Clock supplies NOW(); nil uses the system clock.
	Clock stream.Clock
	// DisableHashJoin forces nested-loop joins: the reference the join
	// tests compare the hash join against.
	DisableHashJoin bool
	// MaxRows bounds intermediate and final result sizes to catch
	// runaway cross joins. 0 means the 1M default.
	MaxRows int
}

const defaultMaxRows = 1_000_000

// Execute runs a parsed statement against the catalog.
func Execute(stmt *sqlparser.SelectStatement, cat Catalog, opts Options) (*Relation, error) {
	return newEvaluator(cat, opts).execSelect(stmt, nil)
}

// ExecuteSQL parses (with the shared statement cache) and runs a query.
func ExecuteSQL(sql string, cat Catalog, opts Options) (*Relation, error) {
	stmt, err := defaultStmtCache.Get(sql)
	if err != nil {
		return nil, err
	}
	return Execute(stmt, cat, opts)
}

// StatementCache memoises parsed statements by SQL text.
type StatementCache struct {
	mu  sync.Mutex
	m   map[string]*sqlparser.SelectStatement
	cap int

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewStatementCache creates a cache bounded to capacity entries.
func NewStatementCache(capacity int) *StatementCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &StatementCache{m: make(map[string]*sqlparser.SelectStatement), cap: capacity}
}

// Get returns the cached parse of sql, parsing on miss.
func (c *StatementCache) Get(sql string) (*sqlparser.SelectStatement, error) {
	c.mu.Lock()
	if stmt, ok := c.m[sql]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return stmt, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if len(c.m) >= c.cap {
		// Simple full reset keeps the cache bounded without LRU
		// bookkeeping; workloads with a stable query set never hit it.
		c.m = make(map[string]*sqlparser.SelectStatement)
	}
	c.m[sql] = stmt
	c.mu.Unlock()
	return stmt, nil
}

// Len reports the number of cached statements.
func (c *StatementCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// StatementCacheStats reports a cache's hit/miss counters and size.
type StatementCacheStats struct {
	Hits   uint64
	Misses uint64
	Size   int
}

// Stats snapshots the cache counters.
func (c *StatementCache) Stats() StatementCacheStats {
	return StatementCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Size: c.Len()}
}

var defaultStmtCache = NewStatementCache(4096)

// ParseCached parses sql through the shared statement cache (the same
// cache ExecuteSQL uses), so callers that need the AST — volatility
// checks, compilation — pay for parsing once per distinct text.
func ParseCached(sql string) (*sqlparser.SelectStatement, error) {
	return defaultStmtCache.Get(sql)
}

// DefaultStatementCacheStats reports the shared statement cache's
// counters for the metrics endpoint.
func DefaultStatementCacheStats() StatementCacheStats {
	return defaultStmtCache.Stats()
}

// execSelect runs a (possibly compound) statement.
func (ev *evaluator) execSelect(stmt *sqlparser.SelectStatement, outer *scope) (*Relation, error) {
	rel, sortKeys, err := ev.execSimple(stmt, outer)
	if err != nil {
		return nil, err
	}
	if stmt.Compound != nil {
		for c := stmt.Compound; c != nil; {
			right, _, err := ev.execSimple(c.Right, outer)
			if err != nil {
				return nil, err
			}
			rel, err = setOp(c.Op, c.All, rel, right)
			if err != nil {
				return nil, err
			}
			c = c.Right.Compound
		}
		if len(stmt.OrderBy) > 0 {
			sortKeys, err = ev.outputOnlySortKeys(rel, stmt.OrderBy)
			if err != nil {
				return nil, err
			}
		}
	}
	if len(stmt.OrderBy) > 0 && sortKeys != nil {
		sortRelation(rel, sortKeys, stmt.OrderBy)
	}
	if err := ev.applyLimitOffset(rel, stmt, outer); err != nil {
		return nil, err
	}
	return rel, nil
}

// simplePlan is the per-statement analysis of one SELECT core against a
// fixed input column layout: the projection slots, output columns,
// ORDER BY resolution and aggregate inventory. It depends only on the
// statement and the input columns, so the container compiles it once
// per deployed sensor (see Compile) instead of re-deriving it on every
// trigger; the ad-hoc path builds it per execution.
type simplePlan struct {
	stmt         *sqlparser.SelectStatement
	proj         []projItem
	outCols      []Column
	orderPlans   []orderPlan
	aggs         []*sqlparser.FuncCall
	grouped      bool
	needSortKeys bool
}

// analyzeSimple plans one SELECT core (no FROM resolution — srcCols is
// the already-built input layout).
func analyzeSimple(stmt *sqlparser.SelectStatement, srcCols []Column) (*simplePlan, error) {
	// Aggregates are illegal in WHERE.
	var whereAggs []*sqlparser.FuncCall
	collectAggregates(stmt.Where, &whereAggs)
	if len(whereAggs) > 0 {
		return nil, fmt.Errorf("sqlengine: aggregate %s not allowed in WHERE", whereAggs[0].Name)
	}

	sp := &simplePlan{stmt: stmt}
	for _, col := range stmt.Columns {
		if !col.Star {
			collectAggregates(col.Expr, &sp.aggs)
		}
	}
	collectAggregates(stmt.Having, &sp.aggs)
	sp.needSortKeys = len(stmt.OrderBy) > 0 && stmt.Compound == nil
	if sp.needSortKeys {
		for _, o := range stmt.OrderBy {
			collectAggregates(o.Expr, &sp.aggs)
		}
	}
	sp.grouped = len(stmt.GroupBy) > 0 || len(sp.aggs) > 0
	if stmt.Having != nil && !sp.grouped {
		return nil, fmt.Errorf("sqlengine: HAVING requires GROUP BY or aggregates")
	}

	var err error
	sp.proj, sp.outCols, err = buildProjection(stmt.Columns, srcCols)
	if err != nil {
		return nil, err
	}
	if sp.needSortKeys {
		sp.orderPlans, err = planOrderBy(stmt.OrderBy, sp.outCols)
		if err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// execSimple runs one SELECT core (no compound). It returns the
// projected relation and, when the statement has ORDER BY and no
// compound, per-row sort keys evaluated in row context.
func (ev *evaluator) execSimple(stmt *sqlparser.SelectStatement, outer *scope) (*Relation, [][]stream.Value, error) {
	src, err := ev.buildFromPushdown(stmt, outer)
	if err != nil {
		return nil, nil, err
	}
	sp, err := analyzeSimple(stmt, src.Cols)
	if err != nil {
		return nil, nil, err
	}
	return ev.runSimple(sp, src, outer)
}

// filterWhere applies the statement's WHERE predicate to the input
// rows, returning the surviving rows (the input slice when there is no
// predicate).
func (ev *evaluator) filterWhere(sp *simplePlan, src *Relation, outer *scope) ([][]stream.Value, error) {
	rows := src.Rows
	if sp.stmt.Where == nil {
		return rows, nil
	}
	kept := rows[:0:0]
	for _, row := range rows {
		sc := &scope{rel: src, row: row, parent: outer}
		v, err := ev.eval(sp.stmt.Where, sc)
		if err != nil {
			return nil, err
		}
		if t, known := truth(v); known && t {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// projector materialises projected output rows (and their sort keys)
// for one SELECT core.
type projector struct {
	ev       *evaluator
	sp       *simplePlan
	out      *Relation
	sortKeys [][]stream.Value
}

func newProjector(ev *evaluator, sp *simplePlan) *projector {
	return &projector{ev: ev, sp: sp, out: &Relation{Cols: sp.outCols}}
}

func (p *projector) project(sc *scope) error {
	ev, sp := p.ev, p.sp
	row := make([]stream.Value, 0, len(sp.outCols))
	for _, item := range sp.proj {
		if item.star {
			for _, i := range item.starIdx {
				row = append(row, sc.row[i])
			}
			continue
		}
		v, err := ev.eval(item.expr, sc)
		if err != nil {
			return err
		}
		row = append(row, v)
	}
	p.out.Rows = append(p.out.Rows, row)
	if len(p.out.Rows) > ev.opts.MaxRows {
		return fmt.Errorf("sqlengine: result exceeds %d rows", ev.opts.MaxRows)
	}
	if sp.needSortKeys {
		keys := make([]stream.Value, len(sp.orderPlans))
		for i, op := range sp.orderPlans {
			if op.outputIdx >= 0 {
				keys[i] = row[op.outputIdx]
				continue
			}
			v, err := ev.eval(op.expr, sc)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		p.sortKeys = append(p.sortKeys, keys)
	}
	return nil
}

// finish applies DISTINCT and drops sort keys the caller did not ask
// for, returning the projected relation and keys.
func (p *projector) finish() (*Relation, [][]stream.Value) {
	out, sortKeys := p.out, p.sortKeys
	if p.sp.stmt.Distinct {
		out.Rows, sortKeys = dedupeRows(out.Rows, sortKeys)
	}
	if !p.sp.needSortKeys {
		sortKeys = nil
	}
	return out, sortKeys
}

// runSimple executes an analyzed SELECT core over its input relation:
// WHERE filter, projection or grouped aggregation, DISTINCT.
func (ev *evaluator) runSimple(sp *simplePlan, src *Relation, outer *scope) (*Relation, [][]stream.Value, error) {
	rows, err := ev.filterWhere(sp, src, outer)
	if err != nil {
		return nil, nil, err
	}

	pr := newProjector(ev, sp)
	if !sp.grouped {
		for _, row := range rows {
			sc := &scope{rel: src, row: row, parent: outer}
			if err := pr.project(sc); err != nil {
				return nil, nil, err
			}
		}
	} else {
		if err := ev.execGrouped(sp.stmt, src, rows, sp.aggs, outer, pr.project); err != nil {
			return nil, nil, err
		}
	}

	out, sortKeys := pr.finish()
	return out, sortKeys, nil
}

// group is one GROUP BY bucket.
type group struct {
	rep    []stream.Value
	states []*aggState
}

// newGroup allocates a bucket with fresh accumulator states.
func newGroup(rep []stream.Value, aggs []*sqlparser.FuncCall) *group {
	g := &group{rep: rep, states: make([]*aggState, len(aggs))}
	for i, a := range aggs {
		g.states[i] = newAggState(aggKinds[a.Name], a.Distinct)
	}
	return g
}

// checkAggArity validates aggregate call shapes once per execution.
func checkAggArity(aggs []*sqlparser.FuncCall) error {
	for _, a := range aggs {
		if !a.CountStar && len(a.Args) != 1 {
			return fmt.Errorf("sqlengine: aggregate %s takes exactly one argument", a.Name)
		}
	}
	return nil
}

// foldGroups buckets the filtered rows by their GROUP BY key and folds
// each row into the per-group accumulator states. It performs no
// empty-input synthesis: execGrouped adds the one row of an
// aggregate-only statement over zero rows.
func (ev *evaluator) foldGroups(stmt *sqlparser.SelectStatement, src *Relation,
	rows [][]stream.Value, aggs []*sqlparser.FuncCall, outer *scope) (map[string]*group, []string, error) {

	if err := checkAggArity(aggs); err != nil {
		return nil, nil, err
	}

	groups := make(map[string]*group)
	var order []string // deterministic output: first-seen order
	for _, row := range rows {
		sc := &scope{rel: src, row: row, parent: outer}
		var key string
		if len(stmt.GroupBy) > 0 {
			kv := make([]stream.Value, len(stmt.GroupBy))
			for i, g := range stmt.GroupBy {
				v, err := ev.eval(g, sc)
				if err != nil {
					return nil, nil, err
				}
				kv[i] = v
			}
			key = encodeRowKey(kv)
		}
		g, ok := groups[key]
		if !ok {
			g = newGroup(row, aggs)
			groups[key] = g
			order = append(order, key)
		}
		for i, a := range aggs {
			if a.CountStar {
				if err := g.states[i].add(int64(1)); err != nil {
					return nil, nil, err
				}
				continue
			}
			v, err := ev.eval(a.Args[0], sc)
			if err != nil {
				return nil, nil, err
			}
			if err := g.states[i].add(v); err != nil {
				return nil, nil, err
			}
		}
	}
	return groups, order, nil
}

// projectGroups finalises folded groups in first-seen order: aggregate
// results published into the evaluator's aggregate scope, HAVING in
// representative-row context, then projection.
func (ev *evaluator) projectGroups(stmt *sqlparser.SelectStatement, src *Relation,
	groups map[string]*group, order []string, aggs []*sqlparser.FuncCall, outer *scope,
	project func(*scope) error) error {

	for _, key := range order {
		g := groups[key]
		ev.aggValues = make(map[*sqlparser.FuncCall]stream.Value, len(aggs))
		for i, a := range aggs {
			ev.aggValues[a] = g.states[i].result()
		}
		sc := &scope{rel: src, row: g.rep, parent: outer}
		if stmt.Having != nil {
			v, err := ev.eval(stmt.Having, sc)
			if err != nil {
				ev.aggValues = nil
				return err
			}
			if t, known := truth(v); !known || !t {
				ev.aggValues = nil
				continue
			}
		}
		if err := project(sc); err != nil {
			ev.aggValues = nil
			return err
		}
		ev.aggValues = nil
	}
	return nil
}

func (ev *evaluator) execGrouped(stmt *sqlparser.SelectStatement, src *Relation,
	rows [][]stream.Value, aggs []*sqlparser.FuncCall, outer *scope,
	project func(*scope) error) error {

	groups, order, err := ev.foldGroups(stmt, src, rows, aggs, outer)
	if err != nil {
		return err
	}

	// Aggregates without GROUP BY over an empty input still produce one
	// row (COUNT(*) = 0 etc.).
	if len(groups) == 0 && len(stmt.GroupBy) == 0 {
		groups[""] = newGroup(make([]stream.Value, len(src.Cols)), aggs)
		order = append(order, "")
	}

	return ev.projectGroups(stmt, src, groups, order, aggs, outer, project)
}

// projItem is one projection slot: either a pre-resolved set of source
// column indices (star expansion) or an expression.
type projItem struct {
	star    bool
	starIdx []int
	expr    sqlparser.Expr
}

func buildProjection(cols []sqlparser.SelectColumn, srcCols []Column) ([]projItem, []Column, error) {
	var items []projItem
	var out []Column
	for _, c := range cols {
		if c.Star {
			qual := stream.CanonicalName(c.StarTable)
			var idxs []int
			for i, sc := range srcCols {
				if qual == "" || sc.Table == qual {
					idxs = append(idxs, i)
					out = append(out, sc)
				}
			}
			if qual != "" && len(idxs) == 0 {
				return nil, nil, fmt.Errorf("sqlengine: unknown table %q in %s.*", c.StarTable, c.StarTable)
			}
			items = append(items, projItem{star: true, starIdx: idxs})
			continue
		}
		name := ""
		table := ""
		switch {
		case c.Alias != "":
			name = c.Alias
		default:
			if ref, ok := c.Expr.(*sqlparser.ColumnRef); ok {
				name = ref.Name
				table = ref.Table
			} else {
				name = c.Expr.String()
			}
		}
		items = append(items, projItem{expr: c.Expr})
		out = append(out, Column{Table: stream.CanonicalName(table), Name: stream.CanonicalName(name)})
	}
	return items, out, nil
}

// orderPlan resolves one ORDER BY item: an output column index, or an
// expression evaluated in row context.
type orderPlan struct {
	outputIdx int
	expr      sqlparser.Expr
}

func planOrderBy(items []sqlparser.OrderItem, outCols []Column) ([]orderPlan, error) {
	plans := make([]orderPlan, len(items))
	for i, item := range items {
		plans[i] = orderPlan{outputIdx: -1, expr: item.Expr}
		// Ordinal: ORDER BY 2.
		if lit, ok := item.Expr.(*sqlparser.Literal); ok {
			if n, ok := lit.Value.(int64); ok {
				if n < 1 || int(n) > len(outCols) {
					return nil, fmt.Errorf("sqlengine: ORDER BY position %d out of range", n)
				}
				plans[i].outputIdx = int(n) - 1
				continue
			}
		}
		// Output name/alias match (unqualified, unique).
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			name := stream.CanonicalName(ref.Name)
			match := -1
			dup := false
			for j, c := range outCols {
				if c.Name == name {
					if match >= 0 {
						dup = true
					}
					match = j
				}
			}
			if match >= 0 && !dup {
				plans[i].outputIdx = match
			}
		}
	}
	return plans, nil
}

// outputOnlySortKeys builds sort keys for compound results, where ORDER
// BY may only name output columns or ordinals.
func (ev *evaluator) outputOnlySortKeys(rel *Relation, items []sqlparser.OrderItem) ([][]stream.Value, error) {
	plans, err := planOrderBy(items, rel.Cols)
	if err != nil {
		return nil, err
	}
	for i, p := range plans {
		if p.outputIdx < 0 {
			return nil, fmt.Errorf("sqlengine: ORDER BY item %d must reference an output column of the compound result", i+1)
		}
	}
	keys := make([][]stream.Value, len(rel.Rows))
	for r, row := range rel.Rows {
		ks := make([]stream.Value, len(plans))
		for i, p := range plans {
			ks[i] = row[p.outputIdx]
		}
		keys[r] = ks
	}
	return keys, nil
}

// sortRelation stably sorts rows by the precomputed keys. NULLs sort
// first ascending and last descending (MySQL semantics, which GSN's
// original backend used).
func sortRelation(rel *Relation, keys [][]stream.Value, items []sqlparser.OrderItem) {
	idx := make([]int, len(rel.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for i := range items {
			va, vb := ka[i], kb[i]
			if va == nil && vb == nil {
				continue
			}
			desc := items[i].Desc
			if va == nil {
				return !desc
			}
			if vb == nil {
				return desc
			}
			c, known, err := compare(va, vb)
			if err != nil || !known || c == 0 {
				continue
			}
			if desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	newRows := make([][]stream.Value, len(rel.Rows))
	for i, j := range idx {
		newRows[i] = rel.Rows[j]
	}
	rel.Rows = newRows
}

func (ev *evaluator) applyLimitOffset(rel *Relation, stmt *sqlparser.SelectStatement, outer *scope) error {
	evalCount := func(e sqlparser.Expr, what string) (int, error) {
		v, err := ev.eval(e, outer)
		if err != nil {
			return 0, err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return 0, fmt.Errorf("sqlengine: %s must be a non-negative integer, got %v", what, v)
		}
		return int(n), nil
	}
	if stmt.Offset != nil {
		n, err := evalCount(stmt.Offset, "OFFSET")
		if err != nil {
			return err
		}
		if n >= len(rel.Rows) {
			rel.Rows = nil
		} else {
			rel.Rows = rel.Rows[n:]
		}
	}
	if stmt.Limit != nil {
		n, err := evalCount(stmt.Limit, "LIMIT")
		if err != nil {
			return err
		}
		if n < len(rel.Rows) {
			rel.Rows = rel.Rows[:n]
		}
	}
	return nil
}

func dedupeRows(rows [][]stream.Value, keys [][]stream.Value) ([][]stream.Value, [][]stream.Value) {
	seen := make(map[string]bool, len(rows))
	outRows := rows[:0:0]
	var outKeys [][]stream.Value
	for i, row := range rows {
		k := encodeRowKey(row)
		if seen[k] {
			continue
		}
		seen[k] = true
		outRows = append(outRows, row)
		if keys != nil {
			outKeys = append(outKeys, keys[i])
		}
	}
	if keys == nil {
		return outRows, nil
	}
	return outRows, outKeys
}

func setOp(op sqlparser.SetOp, all bool, left, right *Relation) (*Relation, error) {
	if len(left.Cols) != len(right.Cols) {
		return nil, fmt.Errorf("sqlengine: %v operands have %d and %d columns",
			op, len(left.Cols), len(right.Cols))
	}
	out := &Relation{Cols: left.Cols}
	switch op {
	case sqlparser.Union:
		out.Rows = append(out.Rows, left.Rows...)
		out.Rows = append(out.Rows, right.Rows...)
		if !all {
			out.Rows, _ = dedupeRows(out.Rows, nil)
		}
	case sqlparser.Intersect:
		counts := make(map[string]int, len(right.Rows))
		for _, r := range right.Rows {
			counts[encodeRowKey(r)]++
		}
		emitted := make(map[string]bool)
		for _, l := range left.Rows {
			k := encodeRowKey(l)
			if counts[k] > 0 {
				if all {
					counts[k]--
					out.Rows = append(out.Rows, l)
				} else if !emitted[k] {
					emitted[k] = true
					out.Rows = append(out.Rows, l)
				}
			}
		}
	case sqlparser.Except:
		counts := make(map[string]int, len(right.Rows))
		for _, r := range right.Rows {
			counts[encodeRowKey(r)]++
		}
		emitted := make(map[string]bool)
		for _, l := range left.Rows {
			k := encodeRowKey(l)
			if counts[k] > 0 {
				if all {
					counts[k]--
				}
				continue
			}
			if !all && emitted[k] {
				continue
			}
			emitted[k] = true
			out.Rows = append(out.Rows, l)
		}
	default:
		return nil, fmt.Errorf("sqlengine: unknown set operation %v", op)
	}
	return out, nil
}
