package core

import (
	"fmt"
	"slices"
	"strings"

	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// Cluster is the federation surface the p2p layer injects into a
// container (SetCluster): sensor placement lookup over the gossiped
// directory, remote composition edges over the exactly-once stream
// protocol, and the three query transports — partial-aggregate
// shipping, whole-statement routing, and raw row union. The interface
// lives here (and p2p implements it) because p2p already imports core;
// the container only ever talks to placements and transports, never to
// HTTP.
type Cluster interface {
	// Owners returns the base URLs of peer nodes currently publishing
	// the named sensor, excluding this node, sorted — the deterministic
	// coordinator contract ordering for partial merges and unions.
	Owners(sensor string) []string
	// Schema fetches the sensor's output schema from a peer, for
	// compiling statements against streams this node does not hold.
	Schema(owner, sensor string) (*stream.Schema, error)
	// RemoteSource builds a wrapper streaming the named sensor from an
	// owning peer — the network-transparent composition edge. The
	// returned wrapper rides the ordinary quality chain and window
	// table, exactly like an in-process local source. params carries the
	// descriptor's extra address predicates (poll, degrade-after,
	// key-id, …) so a cross-node edge tunes like an explicit remote one.
	RemoteSource(sensor string, params map[string]string) (wrappers.Wrapper, error)
	// PartialQuery runs the node-side half of a distributable grouped
	// statement on a peer: WHERE + GROUP BY fold over the peer's window,
	// shipped back as mergeable aggregate states.
	PartialQuery(owner, sql string) (*sqlengine.PartialRollup, error)
	// RouteQuery executes a whole statement on the owning peer and
	// returns typed rows (the non-distributable single-owner path).
	RouteQuery(owner, sql string) (*sqlengine.Relation, error)
	// UnionRows fetches a peer's full window of the named table — the
	// raw-row transport of the union fallback, accounted separately so
	// partial-aggregate shipping can be compared against it.
	UnionRows(owner, table string) (*sqlengine.Relation, error)
	// RegisterRemote registers a continuous query on the owning peer
	// and streams result revisions back into cb until stop is called.
	// The callbacks of all routed registrations on one owner run in
	// turn on one goroutine, so cb must not block.
	RegisterRemote(owner, sensor, sql string, sampling float64, cb func(*sqlengine.Relation)) (stop func(), err error)
	// Info reports membership, placements and transport byte counters
	// for the operational surfaces (/api/cluster, gsnctl cluster).
	Info() ClusterInfo
}

// ClusterInfo is the cluster view served to operators.
type ClusterInfo struct {
	// Self is this node's advertised address.
	Self string `json:"self"`
	// Peers are the known peer base URLs.
	Peers []string `json:"peers"`
	// Placements maps sensor name to the addresses publishing it.
	Placements map[string][]string `json:"placements"`
	// PartialBytes counts response bytes moved by partial-aggregate
	// shipping; UnionBytes and RoutedBytes count the raw-row and routed
	// transports. Partial vs union is the benchmark's sublinearity
	// claim.
	PartialBytes uint64 `json:"partial_bytes"`
	UnionBytes   uint64 `json:"union_bytes"`
	RoutedBytes  uint64 `json:"routed_bytes"`
}

// SetCluster injects the federation implementation. It is set once,
// after construction (the p2p layer needs the container first), before
// the node starts serving.
func (c *Container) SetCluster(cl Cluster) {
	c.clusterMu.Lock()
	c.cluster = cl
	c.clusterMu.Unlock()
}

// Cluster returns the injected federation, or nil on a standalone
// node.
func (c *Container) Cluster() Cluster {
	c.clusterMu.RLock()
	defer c.clusterMu.RUnlock()
	return c.cluster
}

// ClusterInfo reports the cluster view, or a self-only view on a
// standalone node.
func (c *Container) ClusterInfo() ClusterInfo {
	if cl := c.Cluster(); cl != nil {
		return cl.Info()
	}
	info := ClusterInfo{Self: c.opts.NodeAddress, Placements: map[string][]string{}}
	for _, vs := range c.Sensors() {
		info.Placements[vs.Name()] = []string{c.opts.NodeAddress}
	}
	return info
}

// singleTableName returns the canonical table name when the statement
// reads exactly one plain base table (the only shape cluster routing
// understands), or "".
func singleTableName(stmt *sqlparser.SelectStatement) string {
	if stmt.Compound != nil || len(stmt.From) != 1 {
		return ""
	}
	tn, ok := stmt.From[0].(*sqlparser.TableName)
	if !ok {
		return ""
	}
	return stream.CanonicalName(tn.Name)
}

// checkFederatable errors when the statement references a table —
// anywhere: joins, compound branches, subqueries — that has remote
// owners but is not the one routable base table. Cluster routing only
// understands single-base-table statements; executing such a shape
// locally (or unioning only its base table) would resolve the other
// remotely-owned references against this node's window alone, silently
// serving a partial answer. Erroring instead upholds the
// partitioned-coordinator contract (docs/operations.md).
func checkFederatable(cl Cluster, stmt *sqlparser.SelectStatement, routable string) error {
	for _, t := range stmt.Tables() {
		name := stream.CanonicalName(t)
		if name == routable {
			continue
		}
		if owners := cl.Owners(name); len(owners) > 0 {
			return fmt.Errorf("core: statement shape is not federatable: %s also lives on %s, but only single-base-table statements resolve across the cluster — run the statement on an owning node or restrict it to one base table",
				name, strings.Join(owners, ", "))
		}
	}
	return nil
}

// routableTo reports whether shipping the whole statement to owner is
// sound: every referenced table other than the routable base must live
// solely on that owner — the owner resolves subqueries against its own
// catalog, so a table held locally (or on a different node) would make
// the routed answer silently partial. An unroutable statement falls
// through to the union path, whose own federability check decides
// between correct local resolution and an explicit error.
func (c *Container) routableTo(cl Cluster, stmt *sqlparser.SelectStatement, routable, owner string) bool {
	for _, t := range stmt.Tables() {
		name := stream.CanonicalName(t)
		if name == routable {
			continue
		}
		if _, local := c.store.Table(name); local {
			return false
		}
		if o := cl.Owners(name); len(o) != 1 || o[0] != owner {
			return false
		}
	}
	return true
}

// queryRouted is the coordinator's decision tree for one ad-hoc query.
// Local-only statements (no cluster, multi-table shapes, tables nobody
// else owns) take the cached local path untouched. For a table with
// remote owners:
//
//   - distributable grouped statements ship partial aggregates: the
//     local fold (when the table lives here too) plus one PartialQuery
//     per owner, merged in contract order (local first, owners sorted);
//   - other statements with a single remote owner and no local copy
//     route whole to the owner (when every other referenced table also
//     lives solely on that owner — see routableTo);
//   - everything else falls back to a raw row union: SELECT * from
//     every owner, concatenated with the local window, executed here.
//
// An unreachable owner fails the query with an error naming the node —
// partial answers are never served silently (partitioned-coordinator
// semantics; see docs/operations.md). The same contract makes shapes
// cluster routing cannot federate — joins, compounds or subqueries
// touching remotely-owned tables beyond the one routable base table —
// fail with an explicit "not federatable" error instead of quietly
// answering from the local window (checkFederatable).
func (c *Container) queryRouted(sql string) (*sqlengine.Relation, error) {
	cl := c.Cluster()
	if cl == nil {
		return c.LocalQuery(sql)
	}
	stmt, err := sqlengine.ParseCached(sql)
	if err != nil {
		return nil, err
	}
	table := singleTableName(stmt)
	if table == "" {
		// Multi-table / compound shapes execute locally — but only when
		// every referenced table is purely local; a join over a
		// remotely-owned stream must fail, not silently answer from this
		// node's window.
		if err := checkFederatable(cl, stmt, ""); err != nil {
			return nil, err
		}
		return c.LocalQuery(sql)
	}
	owners := cl.Owners(table)
	if len(owners) == 0 {
		// The base table is purely local, but a subquery may still
		// reference a remotely-owned stream.
		if err := checkFederatable(cl, stmt, table); err != nil {
			return nil, err
		}
		return c.LocalQuery(sql)
	}

	localTab, hasLocal := c.store.Table(table)
	var cols []sqlengine.Column
	if hasLocal {
		cols = sqlengine.ColumnsOfSchema(localTab.Schema())
	} else {
		schema, err := cl.Schema(owners[0], table)
		if err != nil {
			return nil, fmt.Errorf("core: cluster query incomplete: owner %s unreachable resolving schema of %s: %w",
				owners[0], table, err)
		}
		cols = sqlengine.ColumnsOfSchema(schema)
	}
	names := (&sqlengine.Relation{Cols: cols}).Names()

	if plan, err := sqlengine.Compile(stmt, cols, table); err == nil && plan.Distributable() {
		parts := make([]*sqlengine.PartialRollup, 0, len(owners)+1)
		if hasLocal {
			local, err := plan.ExecutePartial(sqlengine.RowsOfSource(localTab), c.engineOpts())
			if err != nil {
				return nil, err
			}
			parts = append(parts, local)
		}
		for _, owner := range owners {
			pr, err := cl.PartialQuery(owner, sql)
			if err != nil {
				return nil, fmt.Errorf("core: cluster query incomplete: owner %s unreachable: %w", owner, err)
			}
			if err := sameColumns(owner, table, pr.Cols, names); err != nil {
				return nil, err
			}
			parts = append(parts, pr)
		}
		c.metrics.Counter("cluster_partial_queries").Inc()
		return plan.MergePartials(parts, c.engineOpts())
	}

	if !hasLocal && len(owners) == 1 && c.routableTo(cl, stmt, table, owners[0]) {
		rel, err := cl.RouteQuery(owners[0], sql)
		if err != nil {
			return nil, fmt.Errorf("core: cluster query incomplete: owner %s unreachable: %w", owners[0], err)
		}
		c.metrics.Counter("cluster_routed_queries").Inc()
		return rel, nil
	}

	// Raw row union: the correctness fallback (and the bytes-moved
	// baseline partial shipping is measured against). The union only
	// federates the base table — subqueries resolve through the local
	// catalog — so any other remotely-owned reference must fail first.
	if err := checkFederatable(cl, stmt, table); err != nil {
		return nil, err
	}
	union := &sqlengine.Relation{Cols: cols}
	if hasLocal {
		union.Rows = append(union.Rows, sqlengine.RowsOfSource(localTab)...)
	}
	for _, owner := range owners {
		rel, err := cl.UnionRows(owner, table)
		if err != nil {
			return nil, fmt.Errorf("core: cluster query incomplete: owner %s unreachable: %w", owner, err)
		}
		if err := sameColumns(owner, table, rel.Names(), names); err != nil {
			return nil, err
		}
		union.Rows = append(union.Rows, rel.Rows...)
	}
	c.metrics.Counter("cluster_union_queries").Inc()
	cat := sqlengine.ChainCatalog{sqlengine.MapCatalog{table: union}, c.Catalog()}
	return sqlengine.Execute(stmt, cat, c.engineOpts())
}

// sameColumns errors unless an owner's answer is over the columns the
// coordinator compiled against, by name and in order: rows and
// representative rows are read by position, so an owner whose table
// orders the same fields differently would be merged into the wrong
// columns.
func sameColumns(owner, table string, got, want []string) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("core: owner %s serves %s with columns %v, this node compiled against %v (schema drift?)",
			owner, table, got, want)
	}
	return nil
}

// LocalPartial runs the node-side half of a distributed grouped query
// strictly over this node's window of the statement's base table — the
// body of /p2p/query?partial=1. It never consults the cluster (the
// coordinator already did) and errors when the statement is not
// distributable here, so a coordinator falls back to routing or union.
func (c *Container) LocalPartial(sql string) (*sqlengine.PartialRollup, error) {
	stmt, err := sqlengine.ParseCached(sql)
	if err != nil {
		return nil, err
	}
	table := singleTableName(stmt)
	if table == "" {
		return nil, fmt.Errorf("core: partial execution needs a single base table")
	}
	tab, ok := c.store.Table(table)
	if !ok {
		return nil, fmt.Errorf("core: partial execution: table %s is not stored here", table)
	}
	plan, err := sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(tab.Schema()), table)
	if err != nil {
		return nil, err
	}
	if !plan.Distributable() {
		return nil, fmt.Errorf("core: statement is not distributable")
	}
	return plan.ExecutePartial(sqlengine.RowsOfSource(tab), c.engineOpts())
}

// registerRouted forwards a continuous-query registration to the
// sensor's owning node, returning a negative id (the repository's own
// ids are positive, so dispatch never collides).
func (c *Container) registerRouted(sensor, sql string, sampling float64, cb func(*sqlengine.Relation)) (int64, error) {
	cl := c.Cluster()
	if cl == nil {
		return 0, fmt.Errorf("core: virtual sensor %s is not deployed", sensor)
	}
	owners := cl.Owners(sensor)
	if len(owners) == 0 {
		return 0, fmt.Errorf("core: virtual sensor %s is not deployed on any cluster node", sensor)
	}
	stop, err := cl.RegisterRemote(owners[0], sensor, sql, sampling, cb)
	if err != nil {
		return 0, fmt.Errorf("core: routing query registration to %s: %w", owners[0], err)
	}
	c.routedMu.Lock()
	c.routedNext++
	id := -c.routedNext
	if c.routedQueries == nil {
		c.routedQueries = make(map[int64]func())
	}
	c.routedQueries[id] = stop
	c.routedMu.Unlock()
	c.metrics.Counter("cluster_routed_registrations").Inc()
	return id, nil
}

// stopRoutedQueries cancels every routed registration (Close path).
func (c *Container) stopRoutedQueries() {
	c.routedMu.Lock()
	stops := make([]func(), 0, len(c.routedQueries))
	for _, stop := range c.routedQueries {
		stops = append(stops, stop)
	}
	c.routedQueries = nil
	c.routedMu.Unlock()
	for _, stop := range stops {
		stop()
	}
}
