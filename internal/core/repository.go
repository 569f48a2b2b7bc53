package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/metrics"
	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

// ClientQuery is one registered continuous query (a subscription in the
// paper's query repository, §4). Queries with identical SQL against the
// same sensor share one evaluation group: the group evaluates once per
// trigger and the relation fans out to every subscriber's callback.
type ClientQuery struct {
	ID int64
	// Sensor is the watched virtual sensor (canonical name).
	Sensor string
	// SQL is the query text.
	SQL string
	// SamplingRate in (0,1] evaluates the query on that fraction of
	// triggers.
	SamplingRate float64

	cb    func(*sqlengine.Relation)
	group *queryGroup

	// Sampling and counters are lock-free: a sweep touching thousands
	// of registered queries must not serialise on per-query mutexes
	// (the seed held a mutex around an rand.Rand per evaluation).
	seed        uint64
	draws       atomic.Uint64 // sampling decisions taken
	evaluations atomic.Uint64
	errors      atomic.Uint64
	lastLatency atomic.Int64 // nanoseconds
}

// sample decides lock-free whether this trigger evaluates the query: a
// counter-indexed splitmix64 stream, deterministic per query.
func (q *ClientQuery) sample() bool {
	if q.SamplingRate >= 1 {
		return true
	}
	n := q.draws.Add(1)
	return unitFloat(splitmix64(q.seed+n)) < q.SamplingRate
}

// splitmix64 is the standard 64-bit finalizing mixer (public domain,
// Vigna); one multiply-shift chain per draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps 64 random bits onto [0,1).
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// ClientQueryStats reports one registered query's counters.
type ClientQueryStats struct {
	ID           int64
	Sensor       string
	SQL          string
	Evaluations  uint64
	Errors       uint64
	LastLatency  time.Duration
	SamplingRate float64
}

// queryGroup is one distinct SQL text registered against a sensor: the
// unit of evaluation. All subscribers of the group receive the same
// *Relation (callbacks must treat it as read-only, which the seed's
// per-query path already required of concurrently sampled queries).
type queryGroup struct {
	sql string
	// first is the ID of the query that created the group: a sweep lists
	// groups in registration order.
	first int64
	// query is the statement over the sensor's output table, compiled
	// and maintained at Register time where the shape allows.
	query *tableQuery

	subs map[int64]*ClientQuery
}

// sensorQueries indexes the groups watching one sensor.
type sensorQueries struct {
	out    *storage.Table // output table; nil when registered without one
	groups map[string]*queryGroup

	// work caches what a sweep evaluates, so that in the steady state a
	// sweep loads one pointer instead of listing the maps above. Register
	// and Unregister clear it under the write lock; the next sweep
	// rebuilds it under the read lock (workLocked), which no mutation
	// can interleave with.
	work atomic.Pointer[sweepWork]
	// sweeps counts the sensor's sweeps; each starts at another place in
	// the list (sweepStart), so no group is evaluated last — and its
	// subscribers served a whole sweep late — on every trigger.
	sweeps atomic.Uint64
}

// QueryRepository manages registered client queries — GSN's query
// repository, which "defines and maintains the set of currently active
// queries for the query processor". Identical SQL registered by many
// clients dedupes into one evaluation group; a trigger sweep evaluates
// the groups one after another on the goroutine that produced the
// output and fans each result out to the group's subscribers.
type QueryRepository struct {
	mu       sync.RWMutex
	nextID   int64
	queries  map[int64]*ClientQuery
	bySensor map[string]*sensorQueries

	// cat resolves the tables a statement the interpreter runs names.
	cat sqlengine.Catalog

	// Hot-path instruments, resolved once (a sweep touches them per
	// group; going through the registry would take its mutex each time).
	sweepTime       *metrics.Histogram
	tiers           tierCounters // client_query_*
	resyncs, panics *metrics.Counter
}

// NewQueryRepository creates an empty repository whose interpreted
// groups read cat. reg may be nil (a private registry is used); the
// container passes its own so sweep latency and tier counters surface
// in /api/metrics, and its store as cat.
func NewQueryRepository(reg *metrics.Registry, cat sqlengine.Catalog) *QueryRepository {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &QueryRepository{
		queries:   make(map[int64]*ClientQuery),
		bySensor:  make(map[string]*sensorQueries),
		cat:       cat,
		sweepTime: reg.Histogram("client_query_time"),
		tiers:     newTierCounters(reg, "client_query"),
		resyncs:   reg.Counter("client_query_resyncs"),
		panics:    reg.Counter("client_query_panics"),
	}
}

// Register validates and adds a continuous query bound to a sensor.
// sampling of 0 means 1 (always). The callback may be nil (evaluate and
// discard — the Figure 4 load shape). out is the sensor's output table;
// when non-nil the statement is compiled against its schema so the
// per-trigger path pays no planning, and maintained where its shape
// allows (tableQuery.maintain). A registered statement answers what the
// same text answers ad hoc.
// Callbacks run on the goroutine that produced the output (EvaluateFor's
// caller); a group's subscribers are invoked one after another and share
// the result relation read-only. Sweeps of one sensor overlap when its
// input streams produce at once, so callbacks may run concurrently and
// need not arrive in window order.
func (r *QueryRepository) Register(sensor, sql string, sampling float64,
	cb func(*sqlengine.Relation), out *storage.Table) (int64, error) {
	if sampling < 0 || sampling > 1 {
		return 0, fmt.Errorf("core: sampling rate %v outside [0,1]", sampling)
	}
	if sampling == 0 {
		sampling = 1
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, fmt.Errorf("core: client query: %w", err)
	}
	canonical := stream.CanonicalName(sensor)
	if canonical == "" {
		return 0, fmt.Errorf("core: client query needs a sensor")
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	sq := r.bySensor[canonical]
	if sq == nil {
		sq = &sensorQueries{groups: make(map[string]*queryGroup)}
		r.bySensor[canonical] = sq
	}
	if sq.out == nil {
		sq.out = out
	}

	g := sq.groups[sql]
	if g == nil {
		g = &queryGroup{
			sql:   sql,
			first: r.nextID + 1,
			subs:  make(map[int64]*ClientQuery),
		}
		if sq.out != nil {
			g.query = newTableQuery(stmt, sq.out.Schema(), canonical)
			g.query.maintain(sq.out, r.resyncs)
		} else {
			g.query = newTableQuery(stmt, nil)
		}
		sq.groups[sql] = g
	}

	r.nextID++
	q := &ClientQuery{
		ID:           r.nextID,
		Sensor:       canonical,
		SQL:          sql,
		SamplingRate: sampling,
		cb:           cb,
		group:        g,
		seed:         splitmix64(uint64(r.nextID) * 2654435761),
	}
	g.subs[q.ID] = q
	r.queries[q.ID] = q
	sq.work.Store(nil)
	return q.ID, nil
}

// Unregister removes a query in O(1): the per-sensor index is
// map-backed, so no slice splice scans the sensor's query list.
func (r *QueryRepository) Unregister(id int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.queries[id]
	if !ok {
		return fmt.Errorf("core: no client query %d", id)
	}
	delete(r.queries, id)
	g := q.group
	delete(g.subs, id)
	if sq := r.bySensor[q.Sensor]; sq != nil {
		sq.work.Store(nil)
		if len(g.subs) == 0 {
			delete(sq.groups, g.sql)
			if len(sq.groups) == 0 {
				delete(r.bySensor, q.Sensor)
			}
		}
	}
	return nil
}

// UnregisterSensor drops every query watching the sensor (called on
// undeploy).
func (r *QueryRepository) UnregisterSensor(sensor string) int {
	canonical := stream.CanonicalName(sensor)
	r.mu.Lock()
	defer r.mu.Unlock()
	sq := r.bySensor[canonical]
	if sq == nil {
		return 0
	}
	n := 0
	for _, g := range sq.groups {
		for id := range g.subs {
			delete(r.queries, id)
			n++
		}
	}
	delete(r.bySensor, canonical)
	return n
}

// Count reports the number of registered queries.
func (r *QueryRepository) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.queries)
}

// GroupCount reports the number of distinct evaluation groups for a
// sensor (duplicate SQL dedupes into one).
func (r *QueryRepository) GroupCount(sensor string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if sq := r.bySensor[stream.CanonicalName(sensor)]; sq != nil {
		return len(sq.groups)
	}
	return 0
}

// groupWork is one group plus its subscriber snapshot, taken under the
// repository lock so evaluation runs without it (callbacks may
// re-enter Register/Unregister).
type groupWork struct {
	g    *queryGroup
	subs []*ClientQuery
}

// sweepWork is one sensor's work list: immutable once built, shared by
// every sweep until a registration changes the sensor's groups.
type sweepWork struct {
	out    *storage.Table
	groups []groupWork
}

// workLocked returns the sensor's work list, rebuilding it if a
// registration invalidated it. The caller holds at least the read lock.
// Groups and their subscribers are listed in registration order, not in
// the maps' order, which differs from one process to the next: how late
// in a sweep a subscriber is served must not depend on the run.
func (sq *sensorQueries) workLocked() *sweepWork {
	if w := sq.work.Load(); w != nil {
		return w
	}
	w := &sweepWork{out: sq.out, groups: make([]groupWork, 0, len(sq.groups))}
	for _, g := range sq.groups {
		subs := make([]*ClientQuery, 0, len(g.subs))
		for _, q := range g.subs {
			subs = append(subs, q)
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i].ID < subs[j].ID })
		w.groups = append(w.groups, groupWork{g: g, subs: subs})
	}
	sort.Slice(w.groups, func(i, j int) bool { return w.groups[i].g.first < w.groups[j].g.first })
	sq.work.Store(w)
	return w
}

// sweepStart places the n-th sweep's first group among groups: the
// golden-ratio sequence, of which any few consecutive sweeps start at
// evenly spread places. A start that advances by one group per sweep
// moves a subscriber's place in the sweep so slowly that its latency
// over a minute depends on where in the cycle the minute falls.
func sweepStart(n uint64, groups int) int {
	return int((n * 0x9e3779b97f4a7c15 >> 32) * uint64(groups) >> 32)
}

// EvaluateFor runs every query registered for the sensor (subject to
// each query's sampling rate) and returns the number of subscriber
// queries evaluated. It runs on the caller's goroutine — the trigger's,
// which produced the output — and evaluates each group once, one after
// another. The sweep's wall time feeds the client_query_time histogram —
// Figure 4's y-axis.
func (r *QueryRepository) EvaluateFor(sensor string, opts sqlengine.Options) int {
	canonical := stream.CanonicalName(sensor)
	r.mu.RLock()
	sq := r.bySensor[canonical]
	if sq == nil || len(sq.groups) == 0 {
		r.mu.RUnlock()
		return 0
	}
	snap := sq.workLocked()
	r.mu.RUnlock()
	work := snap.groups
	first := sweepStart(sq.sweeps.Add(1), len(work))

	start := time.Now()
	evaluated := 0
	for i := range work {
		evaluated += r.safeEvalGroup(work[(first+i)%len(work)], snap.out, opts)
	}
	if evaluated > 0 {
		r.sweepTime.Observe(time.Since(start))
	}
	return evaluated
}

// safeEvalGroup runs evalGroup with panic isolation (life-cycle
// manager duty): one panicking subscriber callback must not take down
// the sweep or the goroutine that produced the output. Panics are
// counted on client_query_panics.
func (r *QueryRepository) safeEvalGroup(w groupWork, out *storage.Table, opts sqlengine.Options) (n int) {
	defer func() {
		if rec := recover(); rec != nil {
			r.panics.Inc()
		}
	}()
	return r.evalGroup(w, out, opts)
}

// evalGroup evaluates one group once over out, the sensor's output
// table, and fans the result out to the subscribers whose sampling
// admitted this trigger. It returns the number of subscriber queries
// served.
func (r *QueryRepository) evalGroup(w groupWork, out *storage.Table, opts sqlengine.Options) int {
	// A group whose sampling skips every subscriber costs the sweep no
	// allocation: live is carved only once one of them is admitted.
	var live []*ClientQuery
	for _, q := range w.subs {
		if q.sample() {
			if live == nil {
				live = make([]*ClientQuery, 0, len(w.subs))
			}
			live = append(live, q)
		}
	}
	if len(live) == 0 {
		return 0
	}

	start := time.Now()
	rel, t, err := w.g.query.read(out, r.cat, opts)
	r.tiers[t].Inc()
	elapsed := time.Since(start)

	for _, q := range live {
		q.evaluations.Add(1)
		q.lastLatency.Store(int64(elapsed))
		if err != nil {
			q.errors.Add(1)
		} else if q.cb != nil {
			q.cb(rel)
		}
	}
	return len(live)
}

// EvaluateForSerial replicates the seed's evaluation strategy — every
// registered query re-executed independently on the interpreter over
// cat, with its own window scan (and over a RangeCatalog such as the
// container's, its own TIMED range, history included). It is the
// reference the equivalence property tests compare EvaluateFor against:
// results and per-query counters are identical, only the cost model
// differs.
func (r *QueryRepository) EvaluateForSerial(sensor string, cat sqlengine.Catalog, opts sqlengine.Options) int {
	canonical := stream.CanonicalName(sensor)
	r.mu.RLock()
	sq := r.bySensor[canonical]
	if sq == nil {
		r.mu.RUnlock()
		return 0
	}
	var list []*ClientQuery
	for _, g := range sq.groups {
		for _, q := range g.subs {
			list = append(list, q)
		}
	}
	r.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })

	evaluated := 0
	for _, q := range list {
		if !q.sample() {
			continue
		}
		start := time.Now()
		rel, err := sqlengine.Execute(q.group.query.stmt, cat, opts)
		elapsed := time.Since(start)
		q.evaluations.Add(1)
		q.lastLatency.Store(int64(elapsed))
		if err != nil {
			q.errors.Add(1)
		}
		evaluated++
		if err == nil && q.cb != nil {
			q.cb(rel)
		}
	}
	return evaluated
}

// Stats lists per-query counters ordered by id.
func (r *QueryRepository) Stats() []ClientQueryStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ClientQueryStats, 0, len(r.queries))
	for _, q := range r.queries {
		out = append(out, ClientQueryStats{
			ID:           q.ID,
			Sensor:       q.Sensor,
			SQL:          q.SQL,
			Evaluations:  q.evaluations.Load(),
			Errors:       q.errors.Load(),
			LastLatency:  time.Duration(q.lastLatency.Load()),
			SamplingRate: q.SamplingRate,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
