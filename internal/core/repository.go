package core

import (
	"fmt"
	"runtime"
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
	sql    string
	sensor string
	stmt   *sqlparser.SelectStatement
	// first is the ID of the query that created the group: a sweep lists
	// groups in registration order.
	first int64

	// plan is the statement compiled against the sensor's output
	// schema at Register time; nil when the shape needs the full
	// engine (joins, subqueries, other tables).
	plan *sqlengine.Plan
	// agg maintains the plan's groups via the output table's observer
	// hook; nil unless the shape qualifies (newIncMaintainer).
	agg *sqlengine.AggMaintainer

	subs map[int64]*ClientQuery
}

// newIncMaintainer builds the maintainer of the plan's groups, or nil
// when the plan does not qualify. schema is the window table's element
// schema.
func newIncMaintainer(plan *sqlengine.Plan, schema *stream.Schema) *sqlengine.AggMaintainer {
	if inc := plan.Incremental(); inc != nil && !groupedKeysApproximate(inc, schema) {
		return sqlengine.NewAggMaintainer(inc)
	}
	return nil
}

// groupedKeysApproximate reports whether any group key is a float
// column. Distinct float representations can compare equal (-0.0 vs
// +0.0), and the maintainer projects the key values captured at group
// creation while a window scan projects the oldest live row's — so a
// float-keyed rollup could diverge byte-wise after eviction. Such
// shapes stay on the compiled tier, which rescans. (The implicit TIMED
// key, index == schema length, is an int.)
func groupedKeysApproximate(prog *sqlengine.IncProgram, schema *stream.Schema) bool {
	fields := schema.Fields()
	for _, col := range prog.Keys {
		if col < len(fields) && fields[col].Type == stream.TypeFloat {
			return true
		}
	}
	return false
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

	// sweepPending coalesces scheduled sweeps: while a sweep is queued
	// but has not started reading windows, further triggers collapse
	// into it (mirroring the trigger pipeline's coalescing).
	sweepPending atomic.Bool
}

// fanoutObserver dispatches table lifecycle events to the aggregate
// maintainers of every qualifying group on a sensor. The observer list
// is immutable after construction — membership changes install a fresh
// fanout via SetObserver, which replays the live window so every
// maintainer restarts consistent.
type fanoutObserver struct{ obs []storage.Observer }

func (f *fanoutObserver) OnInsert(e stream.Element) {
	for _, o := range f.obs {
		o.OnInsert(e)
	}
}

func (f *fanoutObserver) OnEvict(e stream.Element) {
	for _, o := range f.obs {
		o.OnEvict(e)
	}
}

func (f *fanoutObserver) OnTruncate() {
	for _, o := range f.obs {
		o.OnTruncate()
	}
}

// QueryRepository manages registered client queries — GSN's query
// repository, which "defines and maintains the set of currently active
// queries for the query processor". Identical SQL registered by many
// clients dedupes into one evaluation group; a trigger sweep
// materialises the sensor's output window once, evaluates independent
// groups on a bounded worker pool and fans each result out to the
// group's subscribers.
type QueryRepository struct {
	mu       sync.RWMutex
	nextID   int64
	queries  map[int64]*ClientQuery
	bySensor map[string]*sensorQueries

	metrics *metrics.Registry

	// Hot-path instruments, resolved once (a sweep touches them per
	// group; going through the registry would take its mutex each time).
	sweepTime     *metrics.Histogram
	coalesced     *metrics.Counter
	tierIncrement *metrics.Counter
	tierCompiled  *metrics.Counter
	tierGeneral   *metrics.Counter

	poolOnce sync.Once
	tasks    chan func()
	// poolMu serialises channel shutdown against submit's send, so a
	// sweep racing Close can never hit a closed channel.
	poolMu sync.RWMutex
	closed bool
}

// NewQueryRepository creates an empty repository. reg may be nil (a
// private registry is used); the container passes its own so sweep
// latency and coalescing counters surface in /api/metrics.
func NewQueryRepository(reg *metrics.Registry) *QueryRepository {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &QueryRepository{
		queries:       make(map[int64]*ClientQuery),
		bySensor:      make(map[string]*sensorQueries),
		metrics:       reg,
		sweepTime:     reg.Histogram("client_query_time"),
		coalesced:     reg.Counter("queries_coalesced"),
		tierIncrement: reg.Counter("client_query_incremental"),
		tierCompiled:  reg.Counter("client_query_compiled"),
		tierGeneral:   reg.Counter("client_query_general"),
	}
}

// maxSweepWorkers bounds the shared evaluation pool.
const maxSweepWorkers = 16

// startPool lazily launches the bounded worker pool shared by all
// sweeps (group evaluations and scheduled sweeps run on it).
func (r *QueryRepository) startPool() {
	n := runtime.GOMAXPROCS(0)
	if n > maxSweepWorkers {
		n = maxSweepWorkers
	}
	r.tasks = make(chan func(), n*4)
	for i := 0; i < n; i++ {
		go func() {
			for fn := range r.tasks {
				fn()
			}
		}()
	}
}

// submit hands fn to the pool, reporting false when the pool is
// saturated or closed (the caller runs it inline).
func (r *QueryRepository) submit(fn func()) bool {
	r.poolOnce.Do(r.startPool)
	r.poolMu.RLock()
	defer r.poolMu.RUnlock()
	if r.closed {
		return false
	}
	select {
	case r.tasks <- fn:
		return true
	default:
		return false
	}
}

// Close stops the worker pool. Scheduled sweeps already queued finish;
// later submissions run inline on the caller.
func (r *QueryRepository) Close() {
	// Start-then-close keeps the once state consistent even if no
	// sweep ever ran.
	r.poolOnce.Do(r.startPool)
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if !r.closed {
		r.closed = true
		close(r.tasks)
	}
}

// Register validates and adds a continuous query bound to a sensor.
// sampling of 0 means 1 (always). The callback may be nil (evaluate and
// discard — the Figure 4 load shape). out is the sensor's output table;
// when non-nil the statement is compiled against its schema so the
// per-trigger path pays no planning, and aggregate shapes the maintainer
// covers (sqlengine.Plan.Incremental) are maintained incrementally.
// Callbacks of different groups may run concurrently; a group's
// subscribers are invoked sequentially and share the result relation
// read-only.
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
			sql:    sql,
			sensor: canonical,
			stmt:   stmt,
			first:  r.nextID + 1,
			subs:   make(map[int64]*ClientQuery),
		}
		if sq.out != nil {
			if plan, err := sqlengine.Compile(stmt,
				sqlengine.ColumnsOfSchema(sq.out.Schema()), canonical); err == nil {
				g.plan = plan
				g.agg = newIncMaintainer(plan, sq.out.Schema())
			}
		}
		sq.groups[sql] = g
		if g.agg != nil {
			r.resetObserverLocked(sq)
		}
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

// resetObserverLocked reinstalls the output table's fanout observer
// from the sensor's current aggregate-maintained groups. SetObserver
// replays the live window, so every maintainer restarts consistent
// with it.
func (r *QueryRepository) resetObserverLocked(sq *sensorQueries) {
	if sq.out == nil {
		return
	}
	var obs []storage.Observer
	for _, g := range sq.groups {
		if g.agg != nil {
			obs = append(obs, g.agg)
		}
	}
	switch len(obs) {
	case 0:
		sq.out.SetObserver(nil)
	case 1:
		sq.out.SetObserver(obs[0])
	default:
		sq.out.SetObserver(&fanoutObserver{obs: obs})
	}
}

// resyncSensor rebuilds every maintainer watching the sensor from the
// live window (SetObserver truncate+replays through the fanout), so
// subtract-on-evict float drift cannot accumulate past the resync
// bound on the client-query path either. Reinstalling the whole set
// keeps the single-observer contract simple; a spurious concurrent
// resync just replays twice, each time to a consistent state.
func (r *QueryRepository) resyncSensor(sensor string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sq := r.bySensor[sensor]; sq != nil {
		r.resetObserverLocked(sq)
	}
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
			if g.agg != nil {
				r.resetObserverLocked(sq)
			}
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
	if sq.out != nil {
		sq.out.SetObserver(nil)
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

// sharedWindow materialises the sensor's output window at most once
// per sweep, shared by every group (the seed re-scanned the table once
// per registered query). Rows are zero-copy with respect to the
// element store and read-only to every consumer.
type sharedWindow struct {
	table *storage.Table // nil → resolve through the catalog
	name  string
	cat   sqlengine.Catalog

	once sync.Once
	rel  *sqlengine.Relation
	err  error
}

func (s *sharedWindow) relation() (*sqlengine.Relation, error) {
	s.once.Do(func() {
		if s.table != nil {
			s.rel = sqlengine.RelationOfSource(s.table)
			return
		}
		s.rel, s.err = s.cat.Relation(s.name)
	})
	return s.rel, s.err
}

// catalog layers the shared materialisation over the container catalog
// so fallback-path groups referencing the sensor resolve to the same
// scan instead of re-reading the table.
func (s *sharedWindow) catalog() sqlengine.Catalog {
	rel, err := s.relation()
	if err != nil || rel == nil {
		return s.cat
	}
	return sqlengine.ChainCatalog{sqlengine.MapCatalog{s.name: rel}, s.cat}
}

// EvaluateFor runs every query registered for the sensor (subject to
// each query's sampling rate) against the catalog and returns the
// number of subscriber queries evaluated. Groups evaluate at most once
// per sweep; independent groups run on the shared worker pool when
// there are enough of them to pay for the fan-out. The sweep's wall
// time feeds the client_query_time histogram — Figure 4's y-axis.
func (r *QueryRepository) EvaluateFor(sensor string, cat sqlengine.Catalog, opts sqlengine.Options) int {
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
	shared := &sharedWindow{table: snap.out, name: canonical, cat: cat}

	// Completion is tracked per work item, never per helper task: the
	// caller always participates, so even if every submitted helper sits
	// behind busy pool workers (or another sweep occupies the whole
	// pool), the caller drains the index itself and the wait below
	// cannot deadlock. A helper that finally runs after the sweep
	// finished finds the index exhausted and returns without touching
	// anything.
	var evaluated atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(len(work))
	runRange := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(work) {
				return
			}
			evaluated.Add(int64(r.safeEvalGroup(work[(first+i)%len(work)], shared, cat, opts)))
			wg.Done()
		}
	}

	// Fan out only when the sweep is wide enough for the scheduling to
	// pay off; a deployment with a couple of groups stays inline.
	//
	// Worker sizing is GOMAXPROCS-aware with a per-worker floor instead
	// of the old fixed fanOutThreshold=4 (tuned at GOMAXPROCS=1, where
	// the pool never fans out): waking a helper costs on the order of a
	// microsecond of submit/wakeup/wg accounting while a typical
	// compiled group evaluates in ~10–20µs, so a helper is only worth
	// waking when it gets at least minGroupsPerSweepWorker groups of
	// its own. That keeps scheduling overhead a few percent at worst at
	// any core count, stops an 8-core box from waking 7 helpers for an
	// 8-group sweep (each stealing one group), and still saturates the
	// pool on wide sweeps.
	const minGroupsPerSweepWorker = 2
	workers := runtime.GOMAXPROCS(0)
	if workers > maxSweepWorkers {
		workers = maxSweepWorkers
	}
	if byWidth := len(work) / minGroupsPerSweepWorker; workers > byWidth {
		workers = byWidth
	}
	if workers >= 2 {
		for i := 1; i < workers; i++ {
			if !r.submit(runRange) {
				break // pool saturated or closed: the caller covers the rest
			}
		}
	}
	runRange()
	wg.Wait()

	if n := int(evaluated.Load()); n > 0 {
		r.sweepTime.Observe(time.Since(start))
		return n
	}
	return 0
}

// ScheduleSweep queues an asynchronous EvaluateFor on the worker pool,
// coalescing per sensor: while a sweep is pending and has not started
// reading windows, further triggers collapse into it (the pending
// sweep sees their elements — inserts complete before scheduling, and
// the sweep clears the flag before materialising any window). The
// trigger pipeline uses this so a burst costs one repository sweep,
// not one per output element.
func (r *QueryRepository) ScheduleSweep(sensor string, cat sqlengine.Catalog, opts sqlengine.Options) {
	canonical := stream.CanonicalName(sensor)
	r.mu.RLock()
	sq := r.bySensor[canonical]
	r.mu.RUnlock()
	if sq == nil {
		return
	}
	if !sq.sweepPending.CompareAndSwap(false, true) {
		r.coalesced.Inc()
		return
	}
	sweep := func() {
		// Clear before reading any window: an arrival after this point
		// schedules a fresh sweep, an arrival before it is already in
		// the table and covered by this one.
		sq.sweepPending.Store(false)
		r.EvaluateFor(canonical, cat, opts)
	}
	if !r.submit(sweep) {
		sweep()
	}
}

// safeEvalGroup runs evalGroup with panic isolation (life-cycle
// manager duty): one panicking subscriber callback must not take down
// the sweep, a pool worker, or — with the sweep's per-item completion
// accounting — hang EvaluateFor. Panics are counted on
// client_query_panics.
func (r *QueryRepository) safeEvalGroup(w groupWork, shared *sharedWindow,
	cat sqlengine.Catalog, opts sqlengine.Options) (n int) {
	defer func() {
		if rec := recover(); rec != nil {
			r.metrics.Counter("client_query_panics").Inc()
		}
	}()
	return r.evalGroup(w, shared, cat, opts)
}

// evalGroup evaluates one group once and fans the result out to the
// subscribers whose sampling admitted this trigger. It returns the
// number of subscriber queries served.
func (r *QueryRepository) evalGroup(w groupWork, shared *sharedWindow,
	cat sqlengine.Catalog, opts sqlengine.Options) int {
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

	g := w.g
	start := time.Now()
	var rel *sqlengine.Relation
	var err error
	switch {
	case g.agg != nil:
		if g.agg.NeedsResync() {
			// Bounded float drift: reinstall the sensor's observer set,
			// which truncate+replays the live window into every
			// maintainer (mirrors the sensor-source resync path).
			r.resyncSensor(g.sensor)
			r.metrics.Counter("client_query_resyncs").Inc()
		}
		// Read under the table lock so the aggregates reflect exactly
		// the live window. A poisoned maintainer (nil result) falls
		// through to the compiled plan, which surfaces the type error.
		shared.table.WithLock(func() { rel = g.agg.Result(opts) })
		if rel != nil {
			r.tierIncrement.Inc()
			break
		}
		fallthrough
	case g.plan != nil:
		var win *sqlengine.Relation
		win, err = shared.relation()
		if err == nil {
			rel, err = g.plan.Execute(win.Rows, opts)
			r.tierCompiled.Inc()
		}
	default:
		rel, err = sqlengine.Execute(g.stmt, shared.catalog(), opts)
		r.tierGeneral.Inc()
	}
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
// registered query re-executed independently, interpreted, with its
// own window scan. It is the reference the equivalence property tests
// compare EvaluateFor against: results and per-query counters are
// identical, only the cost model differs.
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
		rel, err := sqlengine.Execute(q.group.stmt, cat, opts)
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
