package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gsn/internal/stream"
)

// clusterWorkload is cluster_edge: three in-process nodes on loopback
// HTTP. Owners A and B each run two fixed-rate feeds: both publish a
// sensor named m (the federated table), A also publishes ea (the
// upstream of the remote composition edge) and B publishes qb (the
// target of the routed registered queries). Coordinator C owns nothing
// of these: it deploys d, whose wrapper="local" source resolves to ea
// on A and rides the (epoch, seq) stream protocol; it registers twenty
// continuous queries on qb, which route to B; and a paced client asks C
// federated statements over m — grouped aggregates that ship partial
// states, count(distinct) that falls back to the raw-row union, and
// TIMED ranges. p2p, the wire codec and web carry the load; storage
// none.
type clusterWorkload struct {
	seams   seams
	hub     *feedHub
	a, b, c *node
	dir     string

	feeds   []*feedRun // am, ae on A; bm, bq on B
	m       [2]*obsLog // outputs of m on A and B: mark hi, a sv
	ea, qb  *obsLog    // ea: mark hi, a hi, b sv; qb: mark hi, a sv
	d       *obsLog    // outputs of d on C: mark hi, a m, b shi
	tracked []*queryLog
	clients []*queryClient
	probe   *deployProbe
}

const (
	clusterSource  = 100 // source windows of the owners' sensors
	clusterMWindow = 250 // output window of m
	clusterEdgeBuf = 500 // output window of ea: what the edge may fall behind
	clusterQWindow = 100 // output window of qb
	clusterHop     = 64  // source window of d
	clusterRouted  = 20
	clusterRangeMs = 100
)

func ownerXML(name, feed string, node, window int) string {
	return fmt.Sprintf(`
<virtual-sensor name="%s">
  <output-structure>
    <field name="node" type="integer"/>
    <field name="hi" type="integer"/>
    <field name="sv" type="integer"/>
  </output-structure>
  <storage size="%d"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="%d">
      <address wrapper="feed"><predicate key="id" val="%s"/></address>
      <query>select %d as node, max(seq) as hi, sum(v) as sv, max(timed) as timed from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, name, window, clusterSource, feed, node)
}

// derivedXML is a sensor over the remote edge to ea. sum(hi) over the
// hop window pins which elements the edge delivered: a gap or a
// duplicate changes it.
func derivedXML(name, upstream string) string {
	return fmt.Sprintf(`
<virtual-sensor name="%s">
  <output-structure>
    <field name="m" type="integer"/>
    <field name="hi" type="integer"/>
    <field name="shi" type="integer"/>
  </output-structure>
  <storage size="50"/>
  <input-stream name="in">
    <stream-source alias="u" storage-size="%d">
      <address wrapper="local"><predicate key="sensor" val="%s"/></address>
      <query>select count(*) as m, max(hi) as hi, sum(hi) as shi from WRAPPER</query>
    </stream-source>
    <query>select * from u</query>
  </input-stream>
</virtual-sensor>`, name, clusterHop, upstream)
}

// newCoordinator starts C, introduces it to the owners and deploys d.
func (w *clusterWorkload) newCoordinator(r *run) error {
	var err error
	if w.c, err = newNode(r.nodeOptions(&w.seams, "C", w.dir+"/c", w.hub, true)); err != nil {
		return err
	}
	w.c.fed.AddPeer(w.a.url)
	w.c.fed.AddPeer(w.b.url)
	w.c.fed.GossipRound()
	return w.c.c.DeployXML([]byte(derivedXML("d", "ea")))
}

func (w *clusterWorkload) setup(r *run, dataDir string) error {
	w.dir = dataDir
	w.hub = newFeedHub(r.g)
	var err error
	if w.a, err = newNode(r.nodeOptions(&w.seams, "A", dataDir+"/a", w.hub, true)); err != nil {
		return err
	}
	if w.b, err = newNode(r.nodeOptions(&w.seams, "B", dataDir+"/b", w.hub, true)); err != nil {
		return err
	}
	rate := float64(r.cal.FeedRate)
	perFeed := int(rate*(r.cfg.window+r.cfg.warmup+time.Second).Seconds()) + 1024
	hiSv := func(e stream.Element) (int64, int64, int64) { return intCol(e, 1), intCol(e, 2), 0 }
	for i, s := range []struct {
		n            *node
		sensor, feed string
		window       int
		log          **obsLog
		decode       func(stream.Element) (int64, int64, int64)
	}{
		{w.a, "m", "am", clusterMWindow, &w.m[0], hiSv},
		{w.a, "ea", "ae", clusterEdgeBuf, &w.ea, func(e stream.Element) (int64, int64, int64) {
			return intCol(e, 1), intCol(e, 1), intCol(e, 2)
		}},
		{w.b, "m", "bm", clusterMWindow, &w.m[1], hiSv},
		{w.b, "qb", "bq", clusterQWindow, &w.qb, hiSv},
	} {
		if err := s.n.c.DeployXML([]byte(ownerXML(s.sensor, s.feed, i/2, s.window))); err != nil {
			return err
		}
		w.feeds = append(w.feeds, r.newFeedRun(w.hub.feed(s.feed, false), rate, 1, perFeed))
		*s.log = r.newObsLog(perFeed)
		if err := r.subscribeLog(s.n.c, s.sensor, *s.log, s.decode); err != nil {
			return err
		}
	}
	if err := w.newCoordinator(r); err != nil {
		return err
	}
	w.d = r.newObsLog(perFeed)
	err = r.subscribeLog(w.c.c, "d", w.d, func(e stream.Element) (int64, int64, int64) {
		return intCol(e, 1), intCol(e, 0), intCol(e, 2)
	})
	if err != nil {
		return err
	}
	// Twenty distinct texts, so B evaluates twenty groups; every one
	// counts the whole window.
	for q := 0; q < clusterRouted; q++ {
		sql := fmt.Sprintf("select count(*) as c, max(hi) as hi, sum(sv) as s from qb where sv >= %d", -q)
		ql, err := r.registerTracked(w.c.c, "qb", sql, perFeed)
		if err != nil {
			return err
		}
		w.tracked = append(w.tracked, ql)
	}
	// The probe's edge goes to qb, whose short window keeps the backlog a
	// new edge fetches first small beside the measured edge's traffic.
	w.probe = &deployProbe{c: w.c.c, xml: derivedXML("probe", "qb"), ticks: newTicks(),
		// qb's subscriber may be a few outputs behind what the new edge fetched.
		newest: func() int64 { return w.qb.latest.Load() + clusterQWindow }}
	w.clients = []*queryClient{{
		url: w.c.url, pace: time.Second / time.Duration(r.cal.QueryRate), ticks: newTicks(),
		rng: rand.New(rand.NewSource(r.cfg.seed ^ 0x9e37)), http: r.http, next: w.nextStmt,
	}}
	return nil
}

// nextStmt draws the client's next federated statement: 50 % grouped
// aggregates over the hot windows and 30 % grouped TIMED ranges (both
// ship partial aggregates), 20 % count(distinct) (raw-row union). Three
// in ten are ranges so that history_query_p50_ms is the median of 300
// answers; over 100 it moved 8-13 % between runs.
func (w *clusterWorkload) nextStmt(i int, rng *rand.Rand) (stmt, bool) {
	if w.m[0].latest.Load() == 0 || w.m[1].latest.Load() == 0 {
		return stmt{}, false // an owner's window is still empty
	}
	switch p := (i + 3) % 10; {
	case p < 5:
		return w.groupedStmt(int64(4 << rng.Intn(3))), true
	case p < 7:
		return w.distinctStmt(), true
	}
	hi := min(w.m[0].latestTS.Load(), w.m[1].latestTS.Load()) - 1
	lo := hi - clusterRangeMs + 1
	if lo <= 0 {
		return stmt{}, false
	}
	return stmt{
		kind: kindHistory,
		sql:  fmt.Sprintf("select node, count(*) as c, sum(hi) as s from m where timed between %d and %d group by node order by node", lo, hi),
		check: func(_ []string, rows [][]any) string {
			return w.perNode(rows, func(node int, got [][]int64) string {
				n, sum := w.m[node].timedRange(lo, hi)
				if len(got) == 0 && n == 0 {
					return ""
				}
				if len(got) != 1 || got[0][0] != n || got[0][1] != sum {
					return fmt.Sprintf("node %d: %v, want [[%d %d]]", node, got, n, sum)
				}
				return ""
			})
		},
	}, true
}

// groupedStmt groups both owners' windows of m by hi mod k.
func (w *clusterWorkload) groupedStmt(k int64) stmt {
	return stmt{
		sql: fmt.Sprintf("select node, hi %% %d as k, count(*) as c, max(hi) as hi, sum(sv) as s from m group by node, hi %% %d order by node, k", k, k),
		check: func(_ []string, rows [][]any) string {
			return w.perNode(rows, func(node int, got [][]int64) string {
				if len(got) == 0 {
					return fmt.Sprintf("owner %d is missing from the answer", node)
				}
				return w.m[node].groupedWindow(clusterMWindow, got, func(o obs) int64 { return o.mark % k })
			})
		},
	}
}

// distinctStmt counts distinct residues per owner: not distributable,
// so the coordinator fetches both windows whole.
func (w *clusterWorkload) distinctStmt() stmt {
	return stmt{
		sql: "select node, count(distinct hi % 8) as d, count(*) as c, max(hi) as hi from m group by node order by node",
		check: func(_ []string, rows [][]any) string {
			return w.perNode(rows, func(node int, got [][]int64) string {
				if len(got) != 1 {
					return fmt.Sprintf("owner %d has %d rows in the answer, want 1", node, len(got))
				}
				l := w.m[node]
				end := l.find(got[0][2])
				if end < 0 {
					return fmt.Sprintf("node %d: %v names no delivered output", node, got)
				}
				var want [2]int64
				for ; end < len(l.rows) && l.rows[end].mark == got[0][2]; end++ {
					seen := map[int64]bool{}
					win := l.rows[max(end+1-clusterMWindow, 0) : end+1]
					for _, o := range win {
						seen[o.mark%8] = true
					}
					want = [2]int64{int64(len(seen)), int64(len(win))}
					if got[0][0] == want[0] && got[0][1] == want[1] {
						return ""
					}
				}
				return fmt.Sprintf("node %d: (distinct=%d, count=%d) at hi=%d, want %v", node, got[0][0], got[0][1], got[0][2], want)
			})
		},
	}
}

// perNode splits a federated answer whose first column is the owner and
// which is ordered by owner (and by its second column, when grouped
// further), and checks each owner's rows, without the owner column,
// against the owner's log.
func (w *clusterWorkload) perNode(rows [][]any, check func(node int, got [][]int64) string) string {
	all, msg := numRows(rows)
	if msg != "" {
		return msg
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool {
		if all[i][0] != all[j][0] {
			return all[i][0] < all[j][0]
		}
		return len(all[i]) > 4 && all[i][1] < all[j][1]
	}) {
		return "the answer is not in its ORDER BY order"
	}
	var byNode [2][][]int64
	for _, row := range all {
		if row[0] < 0 || row[0] > 1 {
			return fmt.Sprintf("unknown owner %d", row[0])
		}
		byNode[row[0]] = append(byNode[row[0]], row[1:])
	}
	for node, got := range byNode {
		if msg := check(node, got); msg != "" {
			return msg
		}
	}
	return ""
}

func (w *clusterWorkload) start(r *run, g *group) {
	c := r.newConductor()
	c.feeds(w.feeds...)
	c.every(w.clients[0].pace, w.clients[0].ticks)
	c.every(r.cfg.deployEvery, w.probe.ticks)
	g.go_(func() { r.queryLoop(w.clients[0]) })
	g.go_(func() { r.deployLoop(w.probe) })
}

func (w *clusterWorkload) drained() bool {
	if w.d.latest.Load() < w.feeds[1].f.next || w.ea.latest.Load() < w.feeds[1].f.next ||
		w.m[0].latest.Load() < w.feeds[0].f.next || w.m[1].latest.Load() < w.feeds[2].f.next {
		return false
	}
	for _, ql := range w.tracked {
		if ql.log.latest.Load() < w.feeds[3].f.next {
			return false
		}
	}
	return true
}

// settle has nothing to do: no node of the cluster stores anything.
func (w *clusterWorkload) settle(*run) error { return nil }

// recoverOnce restarts the coordinator: a new C joins the owners, learns
// the placements, redeploys d and answers its first federated statement.
func (w *clusterWorkload) recoverOnce(r *run) error {
	if err := w.c.close(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := w.newCoordinator(r); err != nil {
		return err
	}
	r.reopen.add(time.Since(t0))
	st := w.groupedStmt(8)
	_, rows, err := postQuery(r.http, w.c.url, st.sql)
	if err != nil {
		return err
	}
	if msg := st.check(nil, rows); msg != "" {
		return fmt.Errorf("first federated answer of the restarted coordinator: %s", msg)
	}
	r.recovery.add(time.Since(t0))
	return nil
}

func (w *clusterWorkload) close() error {
	var first error
	for _, n := range []*node{w.c, w.a, w.b} {
		if n != nil {
			if err := n.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	w.a, w.b, w.c = nil, nil, nil
	return first
}

func (w *clusterWorkload) finish(r *run, m metrics) {
	// The owners' outputs against the generated inputs.
	for i, l := range []*obsLog{w.m[0], w.ea, w.m[1], w.qb} {
		l.index()
		f := w.feeds[i].f
		for _, o := range l.rows {
			sv := o.a
			if l == w.ea {
				sv = o.b
			}
			msg := checkFeedWindow(f, clusterSource, min(o.mark, clusterSource), o.mark, sv)
			r.chk.ok(msg == "", "%s output hi=%d: %s", f.id, o.mark, msg)
		}
	}
	// The remote edge: every output of d over the elements A published,
	// in order, none missing, none twice.
	var hop []int64
	for _, o := range w.d.rows {
		msg := w.ea.window(o.mark, clusterHop, o.a, o.b)
		r.chk.ok(msg == "", "d over the remote edge: %s", msg)
		if msg == "" && r.inWindow(o.t) {
			hop = append(hop, o.t-w.ea.rows[w.ea.find(o.mark)].t)
		}
	}
	rep := replicationStats(w.c.c)
	r.chk.ok(rep.Resyncs == 0, "the edge re-synced %d times on a healthy network", rep.Resyncs)
	// The routed registered queries against B's outputs.
	var routedResults int64
	for _, ql := range w.tracked {
		for _, o := range ql.log.rows {
			msg := w.qb.window(o.mark, clusterQWindow, o.a, o.b)
			r.chk.ok(msg == "", "routed registered query: %s", msg)
		}
		routedResults += ql.calls.Load()
	}
	for _, n := range []*node{w.a, w.b, w.c} {
		r.queryErrors(n.c)
	}

	var lat latencies
	r.coverLatencies(w.feeds[1], &lat, w.d)
	var t2d []int64
	t2d = r.sendToDelivery(t2d, w.feeds[1], w.ea)
	r.resultMetrics(m, &lat)
	done := r.queryMetrics(m, w.clients)
	deploys := r.deployMetrics(m, w.probe)
	var emitted int64
	for _, fr := range w.feeds {
		for _, e := range fr.emits {
			if r.inWindow(e.due) {
				emitted++
			}
		}
	}
	r.ops = emitted + done + deploys
	r.opsUntraced = r.countBefore(w.feeds, w.clients)

	r.loadgenMetrics(m, w.feeds, 4*float64(r.cal.FeedRate))
	m.set("core.trigger_to_delivery_ms_p50", quantileOf(t2d, 0.5)/1e6, len(t2d))
	m.set("core.tier_hop_us_p50", quantileOf(hop, 0.5)/1e3, len(hop))
	coreCounts(m, w.a.c, w.b.c, w.c.c)
	r.checkNoDrops(m)
	r.webMetrics(m, &w.seams, w.clients)

	info := w.c.fed.Info()
	reg := w.c.c.Metrics()
	if n := reg.Counter("cluster_partial_queries").Value(); n > 0 {
		m.set("p2p.partial_bytes_per_query", float64(info.PartialBytes)/float64(n), int(n))
	}
	if n := reg.Counter("cluster_union_queries").Value(); n > 0 {
		m.set("p2p.union_bytes_per_query", float64(info.UnionBytes)/float64(n), int(n))
	}
	if routedResults > 0 {
		m.set("p2p.routed_bytes_per_result", float64(info.RoutedBytes)/float64(routedResults), int(routedResults))
	}
	m.set("p2p.resyncs", float64(rep.Resyncs), 1)
	m.set("p2p.dedup_dropped", float64(rep.DuplicatesDropped), 1)
	if r.tr != nil {
		w.edgeMetrics(r, m)
		r.elementSpans(w.feeds[1:2], func(int) (*obsLog, *obsLog, string) { return w.ea, w.d, "" })
	}
}

// edgeMetrics reads the transport seam's view of the stream endpoint the
// remote edge polls.
func (w *clusterWorkload) edgeMetrics(r *run, m metrics) {
	ps := w.seams.transport.stats("/p2p/stream")
	if ps.count == 0 || len(w.ea.rows) == 0 {
		return
	}
	// Every output of ea crosses the edge once (the probe's edges, which
	// fetch qb's short window, ride the same endpoint and are counted in).
	delivered := float64(len(w.ea.rows))
	m.set("p2p.stream_poll_ms_p50", quantileOf(ps.ns, 0.5)/1e6, len(ps.ns))
	m.set("p2p.roundtrips_per_kelem", 1000*float64(ps.count)/delivered, int(ps.count))
	m.set("p2p.wire_bytes_per_elem", float64(ps.bytes)/delivered, int(delivered))
	// A response carries whole elements of nearly one size, so its length
	// gives the batch it delivered.
	o := w.ea.rows[len(w.ea.rows)-1]
	var one bytes.Buffer
	_ = stream.WriteElement(&one, stream.MustElement(ownerSchema, stream.Timestamp(o.ts), int64(0), o.mark, o.b))
	batches := make([]int64, 0, len(ps.sizes))
	for _, b := range ps.sizes {
		if b > 0 {
			batches = append(batches, b/int64(one.Len()))
		}
	}
	m.set("p2p.edge_batch_elems_p50", quantileOf(batches, 0.5), len(batches))
}

var ownerSchema = stream.MustSchema(
	stream.Field{Name: "node", Type: stream.TypeInt},
	stream.Field{Name: "hi", Type: stream.TypeInt},
	stream.Field{Name: "sv", Type: stream.TypeInt},
)
