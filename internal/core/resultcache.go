package core

import (
	"sync"

	"gsn/internal/metrics"
	"gsn/internal/sqlengine"
	"gsn/internal/storage"
)

// resultCache is the one entry point of ad-hoc reads (Container.Query,
// LocalQuery, /api/query, the /p2p/query route) and memoises, per
// SQL text, the two things an execution can reuse.
//
// The result, keyed by the identity and version of every table the
// execution read. Window tables carry a monotonic mutation counter
// (storage.Table.Version), so an entry is valid exactly while every
// dependency resolves to the same table object at the same version —
// repeated identical reads between inserts (dashboard refreshes, peer
// pulls, polling clients) are served without re-execution. Statements
// that call NOW() are never served from here: their results drift with
// the clock while the windows stand still.
//
// The statement over its one base table (tableQuery), compiled against
// that table's schema once where it binds and read on every miss as a
// registered query reads it — so the same text answers the same rows
// ad hoc and registered — but with no maintainer: an ad-hoc text keeps
// no state between reads, and a maintainer per cached text would hold
// a FIFO of its window each. The query is pinned to the table object,
// so a redeploy that recreates the table recompiles. Joins, subqueries,
// derived tables and compounds run on the interpreter over the store.
//
// Cached relations are shared: every consumer must treat them as
// read-only, which the web/JSON/CSV serialisers already do.
type resultCache struct {
	store  *storage.Store
	hits   *metrics.Counter
	misses *metrics.Counter
	tiers  tierCounters // adhoc_query_*: the tier each miss ran on

	mu      sync.Mutex
	entries map[string]*resultEntry
	cap     int
}

// resultCacheCap bounds the entry count; like the statement cache, a
// full reset on overflow keeps it bounded without LRU bookkeeping.
const resultCacheCap = 512

type resultEntry struct {
	// rel is the cached result, valid while deps are; nil when the last
	// execution failed or the statement is volatile.
	rel  *sqlengine.Relation
	deps []resultDep

	// tab is the one base table the statement reads, nil for any other
	// shape, and query the statement built over it, kept so a miss does
	// not compile to find out again.
	tab   *storage.Table
	query *tableQuery
}

// resultDep pins one table read: the entry is valid only while the
// store still resolves name to the same table object (a drop/redeploy
// creates a new one) at the same version.
type resultDep struct {
	name    string
	table   *storage.Table
	version uint64
}

func newResultCache(store *storage.Store, reg *metrics.Registry) *resultCache {
	return &resultCache{
		store:  store,
		hits:   reg.Counter("result_cache_hits"),
		misses: reg.Counter("result_cache_misses"),
		tiers: tierCounters{ // no maintainer, so no adhoc_query_incremental
			tierCompiled: reg.Counter("adhoc_query_compiled"),
			tierGeneral:  reg.Counter("adhoc_query_general"),
		},
		entries: make(map[string]*resultEntry),
		cap:     resultCacheCap,
	}
}

// Query executes sql, serving from cache when every dependency is
// unchanged.
func (c *resultCache) Query(sql string, opts sqlengine.Options) (*sqlengine.Relation, error) {
	c.mu.Lock()
	entry := c.entries[sql]
	c.mu.Unlock()
	if entry != nil && entry.rel != nil && c.valid(entry) {
		c.hits.Inc()
		return entry.rel, nil
	}
	c.misses.Inc()

	stmt, err := sqlengine.ParseCached(sql)
	if err != nil {
		return nil, err
	}
	name := singleTableName(stmt)
	next := &resultEntry{}
	next.tab, _ = c.store.Table(name) // "" (no one base table) names none
	switch {
	case entry != nil && entry.tab == next.tab:
		next.query = entry.query
	case next.tab != nil:
		next.query = newTableQuery(stmt, next.tab.Schema(), name)
	default:
		next.query = newTableQuery(stmt, nil)
	}

	var deps []resultDep
	if next.query.plan != nil {
		// The plan reads only its table; the version is read before the
		// scan, as storeCatalog does.
		deps = []resultDep{{name: next.tab.Name(), table: next.tab, version: next.tab.Version()}}
	}
	rel, t, err := next.query.read(next.tab, storeCatalog{store: c.store, deps: &deps}, opts)
	c.tiers[t].Inc()
	// A failed execution is not cached (the error may be transient: a
	// table appearing on deploy), nor is a volatile statement's result;
	// what was learned about the statement is kept either way.
	if err == nil && !sqlengine.Volatile(stmt) {
		next.rel, next.deps = rel, deps
	}

	c.mu.Lock()
	if next.rel == nil && next.tab == nil {
		delete(c.entries, sql)
	} else {
		if len(c.entries) >= c.cap {
			c.entries = make(map[string]*resultEntry)
		}
		c.entries[sql] = next
	}
	c.mu.Unlock()
	return rel, err
}

// valid re-checks every dependency against the live store.
func (c *resultCache) valid(entry *resultEntry) bool {
	for _, d := range entry.deps {
		tab, ok := c.store.Table(d.name)
		if !ok || tab != d.table || tab.Version() != d.version {
			return false
		}
	}
	return true
}

// Len reports the number of cached statements (metrics endpoint).
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
