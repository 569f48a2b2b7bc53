package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/core"
	"gsn/internal/notify"
	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// seams are the traced run's wrappers around what the program already
// exposes; all nil in an untraced run.
type seams struct {
	fs        *tracedFS
	transport *tracedTransport
	handlers  []*tracedHandler
}

// nodeOptions fills a node's options, installing the seams when the run
// is traced.
func (r *run) nodeOptions(s *seams, name, dataDir string, hub *feedHub, clustered bool) nodeOptions {
	o := nodeOptions{name: name, dataDir: dataDir, hub: hub, clustered: clustered, queue: notifyQueue}
	if clustered {
		// Every run gives the federation its own transport so its idle
		// connections can be closed with the system.
		o.peerHTTP = &http.Client{Timeout: 35 * time.Second}
	}
	// Every run's filesystem is on the set-up clock (see fsClock).
	o.fs = clockedFS{inner: storage.DefaultFS(), c: &r.setupFS}
	if r.tr == nil {
		return o
	}
	if s.fs == nil {
		s.fs = newTracedFS(r.tr)
		s.transport = newTracedTransport(r.tr)
	}
	o.fs = clockedFS{inner: s.fs, c: &r.setupFS}
	if clustered {
		o.peerHTTP = &http.Client{Transport: s.transport, Timeout: 35 * time.Second}
	}
	o.wrapHTTP = func(h http.Handler) http.Handler {
		th := &tracedHandler{inner: h, t: r.tr}
		s.handlers = append(s.handlers, th)
		return th
	}
	return o
}

// intCol reads an integer column of an output element.
func intCol(e stream.Element, i int) int64 {
	v, _ := e.Value(i).(int64)
	return v
}

// subscribeLog appends every output element of a sensor to a log,
// through the benchmark's own notify.Channel. decode maps the element's
// columns to (mark, a, b).
func (r *run) subscribeLog(c *core.Container, sensor string, l *obsLog, decode func(stream.Element) (mark, a, b int64)) error {
	return r.subscribe(c, sensor, func(e stream.Element) {
		mark, a, b := decode(e)
		l.add(obs{t: r.now(), ts: int64(e.Timestamp()), mark: mark, a: a, b: b})
	})
}

// subscribe attaches the benchmark's own notify.Channel to a sensor. The
// subscription is ended by quiesce, after which fn is never called again
// and whatever it wrote may be read without synchronisation.
func (r *run) subscribe(c *core.Container, sensor string, fn func(stream.Element)) error {
	id, err := c.Subscribe(sensor, notify.FuncChannel{ChannelName: "bench", Fn: func(ev notify.Event) error {
		fn(ev.Element)
		return nil
	}})
	if err != nil {
		return err
	}
	r.subs = append(r.subs, func() {
		for _, st := range c.Notifier().Stats() {
			if st.ID == id {
				r.notifyDropped += st.Dropped
			}
		}
		_ = c.Unsubscribe(id) // only fails for an id the sensor's undeploy already removed
	})
	return nil
}

// quiesce ends every subscription and tracked query of the run, waiting
// for their delivery goroutines, so the logs are complete and immutable
// before the reference checks read them.
func (r *run) quiesce() {
	for _, end := range r.subs {
		end()
	}
	r.subs = nil
}

// queryLog is the log of a tracked registered query. Sweeps of one
// sensor may overlap, so callbacks can arrive concurrently and out of
// order; the log keeps only results that advance the mark.
type queryLog struct {
	mu     sync.Mutex
	closed bool // set by quiesce: a sweep still in flight must not write
	log    *obsLog
	calls  atomic.Int64 // every result, advancing or not
}

// registerTracked registers a continuous query whose single-row result
// is (c, hi, s) and logs every result that covers a new element.
func (r *run) registerTracked(c *core.Container, sensor, sql string, capacity int) (*queryLog, error) {
	ql := &queryLog{log: r.newObsLog(capacity)}
	_, err := c.RegisterQuery(sensor, sql, 1, func(rel *sqlengine.Relation) {
		t := r.now()
		ql.calls.Add(1)
		if len(rel.Rows) != 1 || len(rel.Rows[0]) != 3 {
			r.chk.ok(false, "registered %q: result shape %dx?", sql, len(rel.Rows))
			return
		}
		cnt, _ := rel.Rows[0][0].(int64)
		hi, _ := rel.Rows[0][1].(int64)
		sum, _ := rel.Rows[0][2].(int64)
		ql.mu.Lock()
		if !ql.closed && hi > ql.log.latest.Load() {
			ql.log.add(obs{t: t, mark: hi, a: cnt, b: sum})
		}
		ql.mu.Unlock()
	})
	r.subs = append(r.subs, func() {
		ql.mu.Lock()
		ql.closed = true
		ql.mu.Unlock()
	})
	return ql, err
}

// latencies matches a feed's emits against the logs that cover them: a
// log covers an emit with its first observation whose mark reaches the
// emit's seq, and the emit's latency runs from its due time to the last
// of its logs' covering observations. Only emits due inside the
// window count. missing is the number never covered.
type latencies struct {
	at, ns  []int64 // window offset and latency of each covered emit
	missing int
	elems   int64 // elements the covered emits carried
}

func (r *run) coverLatencies(fr *feedRun, into *latencies, logs ...*obsLog) {
	from := make([]int, len(logs))
	prev := int64(0)
emits:
	for _, e := range fr.emits {
		carried := e.seq - prev
		prev = e.seq
		if !r.inWindow(e.due) {
			continue
		}
		// An emit is covered once every log covers it.
		last := int64(0)
		for i, l := range logs {
			t, idx := l.firstCovering(e.seq, from[i])
			if idx < 0 {
				into.missing++
				continue emits
			}
			from[i] = idx
			last = max(last, t)
		}
		into.at = append(into.at, e.due-r.winStart)
		into.ns = append(into.ns, last-e.due)
		into.elems += carried
	}
}

// sendToDelivery appends, for every emit of the window, the time from
// the emit call's return to the log's first observation covering it:
// what a generator that timed from the send would report.
func (r *run) sendToDelivery(into []int64, fr *feedRun, l *obsLog) []int64 {
	from := 0
	for _, e := range fr.emits {
		if !r.inWindow(e.due) {
			continue
		}
		if t, idx := l.firstCovering(e.seq, from); idx >= 0 {
			from = idx
			into = append(into, t-e.end)
		}
	}
	return into
}

// resultMetrics fills the result-latency metrics and throughput_eps.
func (r *run) resultMetrics(m metrics, lat *latencies) {
	for i := 0; i < lat.missing; i++ {
		r.chk.ok(false, "an element was never covered by a result within the drain timeout")
	}
	r.chk.attempted.Add(int64(len(lat.ns)))
	r.raw["result_latency_p50_ms"] = slicedQuantile(lat.at, lat.ns, r.cfg.window, 0.5) / 1e6
	r.raw["result_latency_p95_ms"] = slicedQuantile(lat.at, lat.ns, r.cfg.window, 0.95) / 1e6
	ns := lat.ns
	if !r.cal.ResultOnTimer { // cluster_edge: the owner's 20 ms long-poll tick
		ns = r.normalize(lat.at, lat.ns)
	}
	m.set("result_latency_p50_ms", slicedQuantile(lat.at, ns, r.cfg.window, 0.5)/1e6, len(ns))
	m.set("result_latency_p95_ms", slicedQuantile(lat.at, ns, r.cfg.window, 0.95)/1e6, len(ns))
	within := 0
	for _, d := range ns {
		if time.Duration(d) <= r.cal.Limit {
			within++
		}
	}
	if total := len(ns) + lat.missing; total > 0 {
		m.set("within_limit_ratio", float64(within)/float64(total), total)
	}
	eps := float64(lat.elems) / r.cfg.window.Seconds()
	r.raw["throughput_eps"] = eps
	if r.cal.FeedRate == 0 {
		// A closed loop runs as fast as the machine lets it: a rate scales
		// the other way from a time.
		eps /= r.ref.factor(r.winStart, r.winEnd)
	}
	m.set("throughput_eps", eps, int(lat.elems))
}

// loadgenMetrics reports how the generators themselves behaved. A run
// whose generator lag exceeds 5 % of the latency limit measured the
// generator, not the system: it is reported invalid, not slow.
func (r *run) loadgenMetrics(m metrics, feeds []*feedRun, offeredEPS float64) {
	var lag []int64
	var elems int64
	var ingestNs int64
	for _, fr := range feeds {
		prev := int64(0)
		for _, e := range fr.emits {
			carried := e.seq - prev
			prev = e.seq
			if !r.inWindow(e.due) {
				continue
			}
			lag = append(lag, e.start-e.due)
			elems += carried
			ingestNs += e.end - e.start
		}
	}
	lagP95 := quantileOf(lag, 0.95)
	m.set("loadgen.lag_p95_ms", lagP95/1e6, len(lag))
	m.set("loadgen.achieved_eps", float64(elems)/r.cfg.window.Seconds(), int(elems))
	if offeredEPS == 0 {
		offeredEPS = float64(elems) / r.cfg.window.Seconds() // closed loop offers what it achieves
	}
	m.set("loadgen.offered_eps", offeredEPS, 1)
	if elems > 0 {
		m.set("core.ingest_ns_per_elem", float64(ingestNs)/float64(elems), int(elems))
	}
	if limit := 0.05 * float64(r.cal.Limit); lagP95 > limit && !r.cfg.smoke {
		r.notes = append(r.notes, fmt.Sprintf("generator lag p95 %.3f ms exceeds 5%% of the %.1f ms latency limit",
			lagP95/1e6, float64(r.cal.Limit)/1e6))
	}
}

// queryMetrics verifies every answer against its reference and fills
// the query-latency metrics. It returns the number of answers that
// completed inside the window.
func (r *run) queryMetrics(m metrics, clients []*queryClient) int64 {
	var hotAt, hotNs, histAt, histNs []int64
	var done int64
	for _, qc := range clients {
		for _, a := range qc.answers {
			msg := a.err
			if msg == "" {
				msg = a.st.check(a.cols, a.rows)
			}
			r.chk.ok(msg == "", "query %q: %s", a.st.sql, msg)
			if !r.inWindow(a.t0) {
				continue
			}
			done++
			if a.lag >= 0 {
				r.clientLag = append(r.clientLag, a.lag)
			}
			if a.st.kind == kindHistory {
				histAt = append(histAt, a.t0-r.winStart)
				histNs = append(histNs, a.t1-a.t0)
			} else {
				hotAt = append(hotAt, a.t0-r.winStart)
				hotNs = append(hotNs, a.t1-a.t0)
			}
		}
	}
	r.raw["query_latency_p50_ms"] = slicedQuantile(hotAt, hotNs, r.cfg.window, 0.5) / 1e6
	r.raw["query_latency_p95_ms"] = slicedQuantile(hotAt, hotNs, r.cfg.window, 0.95) / 1e6
	r.raw["history_query_p50_ms"] = quantileOf(append([]int64(nil), histNs...), 0.5) / 1e6
	hotNs, histNs = r.normalize(hotAt, hotNs), r.normalize(histAt, histNs)
	m.set("query_latency_p50_ms", slicedQuantile(hotAt, hotNs, r.cfg.window, 0.5)/1e6, len(hotNs))
	m.set("query_latency_p95_ms", slicedQuantile(hotAt, hotNs, r.cfg.window, 0.95)/1e6, len(hotNs))
	m.set("history_query_p50_ms", quantileOf(histNs, 0.5)/1e6, len(histNs))
	return done
}

// deployMetrics fills the deploy probe's metrics from the deploys that
// began inside the window, and returns how many there were.
// deploy_ms_p50 runs from where clientStart put its start, core.deploy_ms
// from the moment the probe's goroutine got to it.
func (r *run) deployMetrics(m metrics, p *deployProbe) int64 {
	var at, ns, op, undeploy []int64
	for _, t := range p.deploys {
		if r.inWindow(t.at) {
			at, ns, op = append(at, t.at-r.winStart), append(ns, t.ns), append(op, t.ns-t.wait)
			if t.lag >= 0 {
				r.clientLag = append(r.clientLag, t.lag)
			}
			if r.tr != nil {
				r.tr.put(span{Name: "core.deploy", Parent: -1, Start: t.at + t.wait, End: t.at + t.ns})
			}
		}
	}
	for _, t := range p.undeploys {
		if r.inWindow(t.at) {
			undeploy = append(undeploy, t.ns)
		}
	}
	r.raw["deploy_ms_p50"] = quantileOf(append([]int64(nil), ns...), 0.5) / 1e6
	m.set("deploy_ms_p50", quantileOf(r.normalize(at, ns), 0.5)/1e6, len(ns))
	m.set("core.deploy_ms", quantileOf(op, 0.5)/1e6, len(op))
	m.set("core.undeploy_ms", quantileOf(undeploy, 0.5)/1e6, len(undeploy))
	return int64(len(ns))
}

// coreCounts reads the program's own counters (since set-up) for a set
// of containers: trigger accounting per sensor, the query repository's
// sharing, the caches, notification drops, storage health.
func coreCounts(m metrics, containers ...*core.Container) {
	var triggers, coalesced, dropped, outputs uint64
	var queries, groups int
	var cacheHits, cacheMisses, logErrs, degraded uint64
	var laneMerges, laneCollapsed uint64
	var sweep time.Duration
	for _, c := range containers {
		for _, vs := range c.Sensors() {
			st := vs.Stats()
			triggers += st.Triggers
			coalesced += st.Coalesced
			dropped += st.Dropped
			outputs += st.Outputs
			groups += c.QueryRepositoryRef().GroupCount(vs.Name())
			ts := vs.Output().Stats()
			logErrs += ts.LogErrors
			degraded += ts.DegradedAppends
			if ts.Lanes != nil {
				laneMerges += ts.Lanes.Merges
				laneCollapsed += ts.Lanes.Collapsed
			}
		}
		queries += c.QueryRepositoryRef().Count()
		cacheHits += c.Metrics().Counter("result_cache_hits").Value()
		cacheMisses += c.Metrics().Counter("result_cache_misses").Value()
		if d := c.Metrics().Histogram("client_query_time").Snapshot().P50; d > sweep {
			sweep = d
		}
	}
	m.set("core.triggers", float64(triggers), 1)
	m.set("core.coalesced", float64(coalesced), 1)
	m.set("core.dropped", float64(dropped), 1)
	if evaluated := triggers - coalesced - dropped; evaluated > 0 {
		m.set("core.outputs_per_trigger", float64(outputs)/float64(evaluated), int(evaluated))
	}
	if queries > 0 {
		m.set("core.repo_dedup_ratio", 1-float64(groups)/float64(queries), queries)
	}
	if n := cacheHits + cacheMisses; n > 0 {
		m.set("core.result_cache_hit_ratio", float64(cacheHits)/float64(n), int(n))
	}
	m.set("core.sweep_ms_p50", float64(sweep)/1e6, 1)
	m.set("storage.log_errors", float64(logErrs), 1)
	m.set("storage.degraded_appends", float64(degraded), 1)
	m.set("storage.lane_merges", float64(laneMerges), 1)
	m.set("storage.lane_solo_collapses", float64(laneCollapsed), 1)
	sc := sqlengine.DefaultStatementCacheStats()
	if n := sc.Hits + sc.Misses; n > 0 {
		m.set("sqlengine.stmt_cache_hit_ratio", float64(sc.Hits)/float64(n), int(n))
	}
}

// checkNoDrops reports the subscriber queues' overflow count and fails
// the run when it is not zero: the logs the oracle reads would be
// incomplete.
func (r *run) checkNoDrops(m metrics) {
	m.set("notify.queue_dropped", float64(r.notifyDropped), 1)
	if r.notifyDropped > 0 {
		r.chk.ok(false, "%d notifications were dropped; the reference logs are incomplete", r.notifyDropped)
	}
}

// queryErrors counts evaluation errors of every registered query.
func (r *run) queryErrors(c *core.Container) {
	for _, st := range c.QueryRepositoryRef().Stats() {
		if st.Errors > 0 {
			r.chk.ok(false, "registered query %q failed %d times", st.SQL, st.Errors)
		}
	}
}

// figure4Query is one registered client query in the paper's Figure 4
// shape: three filtering predicates over a random history, evaluated on
// a sampled share of the sensor's outputs.
type figure4Query struct {
	where    string
	sampling float64
}

// figure4Queries draws n such queries. The seed decides which query gets
// which modulus, threshold and sampling rate, and every history and
// residue; the multiset of moduli, thresholds and sampling rates (evenly
// spread over [0.1, 0.9)) is the same for every seed, so that seeds
// differ in their inputs and not in the amount of work they ask for.
func figure4Queries(rng *rand.Rand, n int) []figure4Query {
	mods, floors, rates := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	out := make([]figure4Query, n)
	for i := range out {
		mod := 2 + mods[i]%5
		out[i] = figure4Query{
			where: fmt.Sprintf("timed >= now() - %d and hi %% %d = %d and m > %d",
				1000+rng.Intn(29000), mod, rng.Intn(mod), floors[i]%8),
			sampling: 0.1 + 0.8*(float64(rates[i])+0.5)/float64(n),
		}
	}
	return out
}

// replicationStats sums the exactly-once counters of every remote edge.
func replicationStats(c *core.Container) wrappers.ReplicationStats {
	snap := c.MetricsSnapshot()
	u := func(k string) uint64 { v, _ := snap[k].(uint64); return v }
	return wrappers.ReplicationStats{
		Fetches:           u("p2p_fetches_total"),
		Failures:          u("p2p_fetch_failures_total"),
		Resyncs:           u("p2p_resyncs_total"),
		DuplicatesDropped: u("p2p_duplicates_dropped"),
	}
}
