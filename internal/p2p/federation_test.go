package p2p

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gsn/internal/core"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// The federation tests assemble real multi-node clusters in-process:
// every node is a full container serving its p2p interface on a real
// TCP listener, peered through Federation — the same wiring gsn.NewNode
// performs, minus the package (p2p tests cannot import the root package
// without a cycle).

var feedSchema = stream.MustSchema(
	stream.Field{Name: "room", Type: stream.TypeString},
	stream.Field{Name: "v", Type: stream.TypeInt},
	stream.Field{Name: "f", Type: stream.TypeFloat},
)

// feedWrapper replays a predetermined row list, one element per pulse —
// deterministic partitions for the equivalence tests. Floats are kept
// to dyadic fractions by the callers so partial-sum merges stay exact.
type feedWrapper struct {
	clock stream.Clock

	mu   sync.Mutex
	rows [][]stream.Value
	i    int
}

func (w *feedWrapper) Kind() string                  { return "feed" }
func (w *feedWrapper) Schema() *stream.Schema        { return feedSchema }
func (w *feedWrapper) Start(wrappers.EmitFunc) error { return nil }
func (w *feedWrapper) Stop() error                   { return nil }
func (w *feedWrapper) Produce() (stream.Element, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.i >= len(w.rows) {
		return stream.Element{}, fmt.Errorf("feed exhausted after %d rows", w.i)
	}
	row := w.rows[w.i]
	w.i++
	return stream.MustElement(feedSchema, w.clock.Now(), row...), nil
}

// feedRegistry resolves wrapper="feed" addresses by their feed
// predicate, so one node can host several independently-driven sensors.
func feedRegistry(feeds map[string]*feedWrapper) *wrappers.Registry {
	reg := wrappers.NewRegistry()
	reg.Register("feed", func(cfg wrappers.Config) (wrappers.Wrapper, error) {
		key := cfg.Params.Get("feed", "")
		w, ok := feeds[key]
		if !ok {
			return nil, fmt.Errorf("no feed named %q", key)
		}
		return w, nil
	})
	return reg
}

func feedDescriptor(sensor, feedKey string) string {
	return `
<virtual-sensor name="` + sensor + `">
  <output-structure>
    <field name="room" type="varchar"/>
    <field name="v" type="integer"/>
    <field name="f" type="double"/>
  </output-structure>
  <storage size="1000"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="feed"><predicate key="feed" val="` + feedKey + `"/></address>
      <query>select room, v, f from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`
}

// fedNode is one cluster member: container + p2p server + federation.
type fedNode struct {
	t   *testing.T
	c   *core.Container
	fed *Federation
	p2p *Server
	srv *http.Server
	url string
}

// newFedNode binds the listener before building the container so the
// advertised NodeAddress (which directory publications carry, and which
// placement resolution depends on) is the node's real serving address.
func newFedNode(t *testing.T, name string, clock stream.Clock, reg *wrappers.Registry, httpc *http.Client) *fedNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	c, err := core.New(core.Options{
		Name:           name,
		Clock:          clock,
		SyncProcessing: true,
		Registry:       reg,
		NodeAddress:    url,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &fedNode{t: t, c: c, url: url}
	n.fed = NewFederation(c, httpc)
	c.SetCluster(n.fed)
	n.p2p = NewServer(c, "")
	n.srv = &http.Server{Handler: n.p2p.Handler()}
	go n.srv.Serve(ln)
	t.Cleanup(func() {
		n.srv.Close()
		n.p2p.Close()
		c.Close()
	})
	return n
}

// produce pulses one named sensor n times, advancing the shared clock.
func (n *fedNode) produce(clock *stream.ManualClock, sensor string, count int) {
	n.t.Helper()
	vs, ok := n.c.Sensor(sensor)
	if !ok {
		n.t.Fatalf("sensor %s not deployed on %s", sensor, n.url)
	}
	for i := 0; i < count; i++ {
		clock.Advance(time.Millisecond)
		if got := vs.Pulse(); got != 1 {
			n.t.Fatalf("pulse on %s injected %d elements", sensor, got)
		}
	}
}

// typedOf renders a relation's column names and rows with each value's
// dynamic type, for order- and type-exact comparison that ignores
// table qualifiers (a routed result legitimately loses them).
func typedOf(rel *sqlengine.Relation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q", rel.Names())
	for _, row := range rel.Rows {
		b.WriteString("\n")
		for _, v := range row {
			fmt.Fprintf(&b, " %T(%#v)", v, v)
		}
	}
	return b.String()
}

// TestFederationGroupByEquivalence is the distributed half of the
// GROUP BY equivalence property: a coordinator answering over 3 worker
// partitions via partial-aggregate shipping must produce byte-identical
// results to a single-node interpreted execution over the union stream
// (concatenated in the coordinator's contract order: local window
// first, then owners sorted by address). Partitions are skewed — one
// worker holds most rows, one holds a disjoint key set, one is empty —
// and the query list covers every mergeable aggregate, expression
// keys, WHERE, HAVING, ORDER BY/LIMIT, ungrouped folds and
// empty-after-WHERE synthesis. Non-distributable statements take the
// union fallback and must agree too.
func TestFederationGroupByEquivalence(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)

	// Skewed partitions over dyadic-fraction floats (exact float sums,
	// so byte-identity is achievable): worker 0 heavy on rooms a/b,
	// worker 1 holds the only c rows, worker 2 stays empty.
	partitions := [][][]stream.Value{
		{
			{"a", int64(1), 0.25}, {"a", int64(2), 0.5}, {"a", int64(3), -1.75},
			{"b", int64(10), 2.25}, {"b", int64(11), 0.0}, {"a", int64(4), 3.5},
			{"b", int64(12), -0.5}, {"a", int64(5), 1.25}, {"a", int64(6), 0.75},
			{"b", int64(13), 4.0},
		},
		{
			{"c", int64(100), 10.5}, {"c", int64(101), -2.25},
			{"b", int64(14), 1.5}, {"c", int64(102), 0.25},
		},
		{},
	}

	workers := make([]*fedNode, len(partitions))
	for i := range partitions {
		feeds := map[string]*feedWrapper{"metrics": {clock: clock, rows: partitions[i]}}
		w := newFedNode(t, fmt.Sprintf("worker%d", i), clock, feedRegistry(feeds), nil)
		if err := w.c.DeployXML([]byte(feedDescriptor("metrics", "metrics"))); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	coordRows := [][]stream.Value{
		{"a", int64(7), -0.25}, {"d", int64(1000), 0.5}, {"b", int64(15), 2.5},
	}
	coordFeeds := map[string]*feedWrapper{"metrics": {clock: clock, rows: coordRows}}
	coord := newFedNode(t, "coord", clock, feedRegistry(coordFeeds), nil)
	for _, w := range workers {
		coord.fed.AddPeer(w.url)
	}
	coord.fed.GossipRound()

	if owners := coord.fed.Owners("metrics"); len(owners) != len(workers) {
		t.Fatalf("owners of metrics = %v, want all %d workers", owners, len(workers))
	}
	for i, w := range workers {
		w.produce(clock, "metrics", len(partitions[i]))
	}

	// Reference: the union stream a single node would hold, concatenated
	// in the coordinator's contract order. Phase 1 has no local window.
	unionRelation := func(includeLocal bool) *sqlengine.Relation {
		order := append([]*fedNode{}, workers...)
		sort.Slice(order, func(i, j int) bool { return order[i].url < order[j].url })
		tab, ok := workers[0].c.Store().Table("METRICS")
		if !ok {
			t.Fatal("worker metrics table missing")
		}
		union := &sqlengine.Relation{Cols: sqlengine.ColumnsOfSchema(tab.Schema())}
		if includeLocal {
			local, ok := coord.c.Store().Table("METRICS")
			if !ok {
				t.Fatal("coordinator metrics table missing")
			}
			union.Rows = append(union.Rows, sqlengine.RowsOfSource(local)...)
		}
		for _, w := range order {
			wtab, ok := w.c.Store().Table("METRICS")
			if !ok {
				t.Fatalf("metrics table missing on %s", w.url)
			}
			union.Rows = append(union.Rows, sqlengine.RowsOfSource(wtab)...)
		}
		return union
	}

	queries := []string{
		// distributable: every mergeable aggregate, keys, filters
		"select room, count(*) as n from metrics group by room",
		"select room, count(f) as nf, sum(f) as s, avg(f) as a from metrics group by room",
		"select room, min(v) as mn, max(v) as mx, avg(v) as av from metrics group by room",
		"select room, first(v) as fv, last(v) as lv from metrics group by room",
		"select v % 3 as bucket, sum(v) as s from metrics group by v % 3",
		"select room, count(*) as n from metrics where v > 4 group by room",
		"select room, count(*) as n from metrics group by room having count(*) > 2",
		"select room, sum(v) as s from metrics group by room order by s desc limit 2",
		"select count(*) as n, sum(v) as s, min(f) as mn from metrics",
		"select room, count(*) as n from metrics where v > 100000 group by room",
		// not distributable: raw-row union fallback
		"select room, count(distinct v) as n from metrics group by room",
	}
	check := func(phase string, includeLocal bool) {
		t.Helper()
		union := unionRelation(includeLocal)
		for _, sql := range queries {
			stmt, err := sqlengine.ParseCached(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want, err := sqlengine.Execute(stmt, sqlengine.MapCatalog{"METRICS": union}, sqlengine.Options{Clock: clock})
			if err != nil {
				t.Fatalf("%s: reference execution: %v", sql, err)
			}
			got, err := coord.c.Query(sql)
			if err != nil {
				t.Fatalf("%s: coordinator: %v", sql, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s: %q diverged from single-node execution\ncluster:\n%s\nsingle-node:\n%s",
					phase, sql, got, want)
			}
		}
	}

	// Phase 1: the coordinator owns no partition — purely remote folds.
	check("remote-only", false)

	// Phase 2: the coordinator holds a partition of its own, so the
	// merge is local fold + shipped partials (and the union fallback
	// mixes local rows with fetched ones).
	if err := coord.c.DeployXML([]byte(feedDescriptor("metrics", "metrics"))); err != nil {
		t.Fatal(err)
	}
	coord.produce(clock, "metrics", len(coordRows))
	check("local+remote", true)

	info := coord.fed.Info()
	if info.PartialBytes == 0 {
		t.Error("partial transport moved 0 bytes despite distributable queries")
	}
	if info.UnionBytes == 0 {
		t.Error("union transport moved 0 bytes despite the DISTINCT fallback query")
	}
	if nodes := info.Placements["METRICS"]; len(nodes) != len(workers)+1 {
		t.Errorf("placements[METRICS] = %v, want %d nodes", nodes, len(workers)+1)
	}
	snap := coord.c.MetricsSnapshot()
	if n := snap["cluster_partial_queries"].(uint64); n < 2 {
		t.Errorf("cluster_partial_queries = %d, want >= 2", n)
	}
	if n := snap["cluster_union_queries"].(uint64); n < 2 {
		t.Errorf("cluster_union_queries = %d, want >= 2", n)
	}
}

// TestFederationUnboundGroupedStatement: a grouped statement that does
// not bind is not compiled, so it is never shipped as partial rollups —
// an owner asked for its partial refuses — and the coordinator still
// answers it: over the raw row union, on the interpreter, with the
// interpreter's rows or the interpreter's error text.
func TestFederationUnboundGroupedStatement(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{
		{"a", int64(1), 0.25}, {"b", int64(2), 0.5}, {"a", int64(3), 0.75}, {"b", int64(4), 1.0},
	}
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), nil)
	union := &sqlengine.Relation{}
	workers := make([]*fedNode, 2) // two owners: no whole-statement routing
	for i := range workers {
		w := newFedNode(t, fmt.Sprintf("worker%d", i), clock,
			feedRegistry(map[string]*feedWrapper{"metrics": {clock: clock, rows: rows}}), nil)
		if err := w.c.DeployXML([]byte(feedDescriptor("metrics", "metrics"))); err != nil {
			t.Fatal(err)
		}
		coord.fed.AddPeer(w.url)
		w.produce(clock, "metrics", len(rows))
		workers[i] = w
	}
	coord.fed.GossipRound()
	sort.Slice(workers, func(i, j int) bool { return workers[i].url < workers[j].url })
	for _, w := range workers {
		tab, _ := w.c.Store().Table("METRICS")
		union.Cols = sqlengine.ColumnsOfSchema(tab.Schema())
		union.Rows = append(union.Rows, sqlengine.RowsOfSource(tab)...)
	}

	for _, sql := range []string{
		"select room, count(*) as n, sum(v) as s from metrics where v > (select min(v) from metrics) group by room",
		"select room, frobnicate(v) as x, count(*) as n from metrics group by room",
	} {
		if _, err := workers[0].c.LocalPartial(sql); err == nil {
			t.Errorf("%s: an owner computed a partial rollup of a statement that does not bind", sql)
		}
		want, wantErr := sqlengine.ExecuteSQL(sql, sqlengine.MapCatalog{"METRICS": union}, sqlengine.Options{Clock: clock})
		got, gotErr := coord.c.Query(sql)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s:\ncluster error:     %v\ninterpreter error: %v", sql, gotErr, wantErr)
		} else if wantErr == nil && got.String() != want.String() {
			t.Errorf("%s:\ncluster:\n%s\ninterpreter over the union:\n%s", sql, got, want)
		}
	}
	reg := coord.c.Metrics()
	if p, u := reg.Counter("cluster_partial_queries").Value(), reg.Counter("cluster_union_queries").Value(); p != 0 || u != 2 {
		t.Errorf("cluster_partial_queries %d, cluster_union_queries %d; want 0 and 2", p, u)
	}
}

// TestFederationPartialBytesFlatInVolume pins what partial-aggregate
// shipping is for: the bytes it moves per query follow the group count,
// not the stream volume. Doubling an owner's window leaves them nearly
// flat (only the aggregates' digits grow) and a small fraction of the
// raw-row union fallback's, which doubles.
func TestFederationPartialBytesFlatInVolume(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	const rooms, base = 4, 200
	rows := make([][]stream.Value, 2*base)
	for i := range rows {
		rows[i] = []stream.Value{fmt.Sprintf("room%d", i%rooms), int64(i), 0.5}
	}
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), nil)
	// Two owners: with one, a statement that does not distribute is
	// routed whole instead of taking the union fallback.
	workers := make([]*fedNode, 2)
	for i := range workers {
		w := newFedNode(t, fmt.Sprintf("worker%d", i), clock,
			feedRegistry(map[string]*feedWrapper{"metrics": {clock: clock, rows: rows}}), nil)
		if err := w.c.DeployXML([]byte(feedDescriptor("metrics", "metrics"))); err != nil {
			t.Fatal(err)
		}
		coord.fed.AddPeer(w.url)
		workers[i] = w
	}
	coord.fed.GossipRound()

	measure := func() (partial, union float64) {
		t.Helper()
		for _, w := range workers {
			w.produce(clock, "metrics", base)
		}
		before := coord.fed.Info()
		for _, sql := range []string{
			"select room, count(*) as n, sum(v) as sv from metrics group by room",
			"select room, count(distinct v) as n from metrics group by room", // union fallback
		} {
			if _, err := coord.c.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		after := coord.fed.Info()
		return float64(after.PartialBytes - before.PartialBytes), float64(after.UnionBytes - before.UnionBytes)
	}
	p1, u1 := measure()
	p2, u2 := measure()
	if p1 == 0 || u1 == 0 {
		t.Fatalf("transports moved partial %v, union %v bytes", p1, u1)
	}
	if p2 > 1.5*p1 || u2 < 1.5*u1 || p2 > 0.2*u2 {
		t.Errorf("2x volume: partial %v -> %v bytes, union %v -> %v; want partial flat, union doubling, partial < 20%% of union",
			p1, p2, u1, u2)
	}
}

// TestFederationRoutedQuery: a non-distributable statement against a
// sensor with exactly one remote owner and no local window routes whole
// to the owner and comes back typed — identical to asking the owner
// directly.
func TestFederationRoutedQuery(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{
		{"x", int64(1), 0.5}, {"y", int64(2), 1.25}, {"x", int64(3), -0.75},
	}
	worker := newFedNode(t, "worker", clock,
		feedRegistry(map[string]*feedWrapper{"solo": {clock: clock, rows: rows}}), nil)
	if err := worker.c.DeployXML([]byte(feedDescriptor("solo", "solo"))); err != nil {
		t.Fatal(err)
	}
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), nil)
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()
	worker.produce(clock, "solo", len(rows))

	sql := "select room, v, f from solo order by v"
	want, err := worker.c.LocalQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.c.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if typedOf(got) != typedOf(want) {
		t.Errorf("routed result diverged\nrouted: %s\nowner:  %s", typedOf(got), typedOf(want))
	}
	if n := coord.c.MetricsSnapshot()["cluster_routed_queries"].(uint64); n != 1 {
		t.Errorf("cluster_routed_queries = %d, want 1", n)
	}
	if coord.fed.Info().RoutedBytes == 0 {
		t.Error("routed transport counted 0 bytes")
	}
}

// TestFederationRemoteCompositionEdge: a wrapper="local" source whose
// upstream lives on another node resolves through the cluster to a
// remote edge and behaves like an in-process subscription — elements
// land in the downstream source window, exactly once, through the
// ordinary quality chain.
func TestFederationRemoteCompositionEdge(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{
		{"a", int64(1), 0.25}, {"b", int64(2), 0.5}, {"a", int64(3), 0.75},
		{"b", int64(4), 1.0}, {"a", int64(5), 1.25},
	}
	producer := newFedNode(t, "producer", clock,
		feedRegistry(map[string]*feedWrapper{"src": {clock: clock, rows: rows}}), nil)
	if err := producer.c.DeployXML([]byte(feedDescriptor("src", "src"))); err != nil {
		t.Fatal(err)
	}
	consumer := newFedNode(t, "consumer", clock, wrappers.NewRegistry(), nil)
	consumer.fed.AddPeer(producer.url)
	consumer.fed.GossipRound()

	// The mirror's descriptor names only the upstream sensor — it does
	// not know (and must not care) that src lives on another node. The
	// poll predicate tunes the remote edge like an explicit remote
	// wrapper would.
	mirror := `
<virtual-sensor name="mirror">
  <output-structure>
    <field name="room" type="varchar"/>
    <field name="v" type="integer"/>
    <field name="f" type="double"/>
  </output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1000">
      <address wrapper="local">
        <predicate key="sensor" val="src"/>
        <predicate key="poll" val="40"/>
      </address>
      <query>select room, v, f from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`
	if err := consumer.c.DeployXML([]byte(mirror)); err != nil {
		t.Fatalf("deploying mirror over a remote upstream: %v", err)
	}
	if n := consumer.c.MetricsSnapshot()["cluster_remote_edges"].(uint64); n == 0 {
		t.Fatal("no cluster_remote_edges counted: the edge resolved in-process?")
	}

	producer.produce(clock, "src", len(rows))
	window := func() []int64 {
		tab, ok := consumer.c.Store().Table("MIRROR__IN__S")
		if !ok {
			return nil
		}
		var out []int64
		for _, e := range tab.Snapshot() {
			out = append(out, e.Value(1).(int64))
		}
		return out
	}
	waitForLong(t, 15*time.Second, func() bool { return len(window()) >= len(rows) }, "remote edge catch-up")
	got := window()
	if len(got) != len(rows) {
		t.Fatalf("mirror window holds %d elements, want %d", len(got), len(rows))
	}
	for i, v := range got {
		if want := rows[i][1].(int64); v != want {
			t.Errorf("window[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestFederationRoutedRegistration: registering a continuous query
// against a remotely-owned sensor forwards to the owner and streams
// result revisions back; unregistering stops the stream and tears the
// peer session down.
func TestFederationRoutedRegistration(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{
		{"a", int64(1), 0.5}, {"a", int64(2), 0.75}, {"b", int64(3), 1.0},
	}
	worker := newFedNode(t, "worker", clock,
		feedRegistry(map[string]*feedWrapper{"src": {clock: clock, rows: rows}}), nil)
	if err := worker.c.DeployXML([]byte(feedDescriptor("src", "src"))); err != nil {
		t.Fatal(err)
	}
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), nil)
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()

	// Produce before registering: the registration must seed an initial
	// result revision from the current window, so the first delivery
	// arrives without any further arrivals. This is what lets a session
	// re-created after a peer restart catch up between inserts.
	worker.produce(clock, "src", len(rows))

	var mu sync.Mutex
	var results []*sqlengine.Relation
	id, err := coord.c.RegisterQuery("src", "select count(*) as n from src", 1.0, func(rel *sqlengine.Relation) {
		mu.Lock()
		results = append(results, rel)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if id >= 0 {
		t.Fatalf("routed registration id = %d, want negative", id)
	}

	waitForLong(t, 15*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(results) == 0 {
			return false
		}
		last := results[len(results)-1]
		return len(last.Rows) == 1 && last.Rows[0][0] == int64(len(rows))
	}, "seeded initial routed result")

	if err := coord.c.UnregisterQuery(id); err != nil {
		t.Fatalf("unregister: %v", err)
	}
	if err := coord.c.UnregisterQuery(id); err == nil {
		t.Error("double unregister succeeded")
	}
	if n := coord.c.MetricsSnapshot()["cluster_routed_registrations"].(uint64); n != 1 {
		t.Errorf("cluster_routed_registrations = %d, want 1", n)
	}
}

// TestGossipLearnsPeersOfPeers: in a chain A–B–C where C knows only B,
// one gossip round puts A in C's peer table — a node named by a merged
// snapshot gossips from the next round on, not once something first
// queries it.
func TestGossipLearnsPeersOfPeers(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	a := newFedNode(t, "a", clock, feedRegistry(map[string]*feedWrapper{"src": {clock: clock}}), nil)
	if err := a.c.DeployXML([]byte(feedDescriptor("src", "src"))); err != nil {
		t.Fatal(err)
	}
	b := newFedNode(t, "b", clock, wrappers.NewRegistry(), nil)
	c := newFedNode(t, "c", clock, wrappers.NewRegistry(), nil)
	b.fed.AddPeer(a.url)
	b.fed.GossipRound()
	c.fed.AddPeer(b.url)
	c.fed.GossipRound()
	if got := c.fed.Peers(); !slices.Contains(got, a.url) || slices.Contains(got, c.url) {
		t.Fatalf("C's peers after one round = %v, want A (%s) and not C itself", got, a.url)
	}
}

// routedTransport counts what a coordinator's routed path puts on the
// wire: results polls in flight (and the most ever at once) and session
// registrations.
type routedTransport struct {
	base *http.Transport

	mu                    sync.Mutex
	inFlight, maxInFlight int
	registers             int
}

func (rt *routedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	results := req.URL.Path == "/p2p/results"
	if results {
		rt.inFlight++
		rt.maxInFlight = max(rt.maxInFlight, rt.inFlight)
	}
	if req.Method == http.MethodPost && req.URL.Path == "/p2p/register" {
		rt.registers++
	}
	rt.mu.Unlock()
	if results {
		defer func() {
			rt.mu.Lock()
			rt.inFlight--
			rt.mu.Unlock()
		}()
	}
	return rt.base.RoundTrip(req)
}

func (rt *routedTransport) counts() (inFlight, maxInFlight, registers int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.inFlight, rt.maxInFlight, rt.registers
}

// ownerLoops counts the goroutines running a routed results loop.
func ownerLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "p2p.(*ownerLoop).run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRoutedResultsShareOnePoll: five routed registrations on one owner
// (and a sixth, on a second sensor, listed first) ride one delivery loop
// and one results poll at a time. Each sees its revisions in order; an
// owner reaping one session makes that one register again and no other;
// a reaped session that cannot register again (its sensor undeployed)
// backs off alone while the others keep receiving; stop during an idle
// 25 s poll returns at once and no callback follows it; the last stop
// ends the loop.
func TestRoutedResultsShareOnePoll(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := make([][]stream.Value, 64)
	for i := range rows {
		rows[i] = []stream.Value{"a", int64(i + 1), 0.5}
	}
	worker := newFedNode(t, "worker", clock, feedRegistry(map[string]*feedWrapper{
		"src": {clock: clock, rows: rows}, "src2": {clock: clock},
	}), nil)
	for _, name := range []string{"src", "src2"} {
		if err := worker.c.DeployXML([]byte(feedDescriptor(name, name))); err != nil {
			t.Fatal(err)
		}
	}
	rt := &routedTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	t.Cleanup(rt.base.CloseIdleConnections)
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), &http.Client{Transport: rt, Timeout: 35 * time.Second})
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()
	worker.produce(clock, "src", 1)
	produced := int64(1)
	if n := ownerLoops(); n != 0 {
		t.Fatalf("%d results loops before any registration", n)
	}

	// The spare registration, on src2, comes first in every poll.
	spareSeeded := make(chan struct{})
	var seedOnce sync.Once
	stopSpare, err := coord.fed.RegisterRemote(worker.url, "src2", "select count(*) as n from src2", 1.0,
		func(*sqlengine.Relation) { seedOnce.Do(func() { close(spareSeeded) }) })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-spareSeeded:
	case <-time.After(15 * time.Second):
		t.Fatal("the spare registration got no seeded result")
	}

	const regs = 5
	var mu sync.Mutex
	got := make([][]int64, regs)
	delivered := func(i int) []int64 {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got[i])
	}
	stops := make([]func(), regs)
	for i := range stops {
		sql := fmt.Sprintf("select count(*) as n from src where v > %d", -i)
		stop, err := coord.fed.RegisterRemote(worker.url, "src", sql, 1.0, func(rel *sqlengine.Relation) {
			mu.Lock()
			got[i] = append(got[i], rel.Rows[0][0].(int64))
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		stops[i] = stop
	}
	caughtUp := func(what string, within time.Duration, regs ...int) {
		t.Helper()
		waitForLong(t, within, func() bool {
			for _, i := range regs {
				if d := delivered(i); len(d) == 0 || d[len(d)-1] != produced {
					return false
				}
			}
			return true
		}, what)
	}
	increasing := func(i int, strictly bool) {
		t.Helper()
		d := delivered(i)
		for j := 1; j < len(d); j++ {
			if d[j] < d[j-1] || (strictly && d[j] == d[j-1]) {
				t.Fatalf("registration %d delivered %v out of order", i, d)
			}
		}
	}
	produce := func(n int) {
		worker.produce(clock, "src", n)
		produced += int64(n)
	}

	produce(10)
	caughtUp("five registrations catch up", 15*time.Second, 0, 1, 2, 3, 4)
	for i := range regs {
		increasing(i, true)
	}
	if n := ownerLoops(); n != 1 {
		t.Fatalf("%d results loops for one owner, want 1", n)
	}

	// reap makes the owner's reaper drop the session of the i-th
	// registration in the loop's list (0 is the spare).
	coord.fed.mu.Lock()
	loop := coord.fed.routed[worker.url]
	coord.fed.mu.Unlock()
	reap := func(i int) {
		t.Helper()
		loop.mu.Lock()
		id := loop.regs[i].id
		loop.mu.Unlock()
		worker.p2p.sessions.mu.Lock()
		sess := worker.p2p.sessions.byID[id]
		worker.p2p.sessions.mu.Unlock()
		sess.mu.Lock()
		sess.lastPoll = time.Now().Add(-time.Hour)
		sess.mu.Unlock()
		worker.p2p.sweepSessions(time.Minute)
	}

	// The owner's reaper drops registration 0's session: only it
	// registers again, and all five keep receiving.
	_, _, before := rt.counts()
	reap(1)
	produce(5)
	caughtUp("catch-up after a reaped session", 15*time.Second, 0, 1, 2, 3, 4)
	if _, _, after := rt.counts(); after != before+1 {
		t.Fatalf("%d registrations after one session was reaped, want 1", after-before)
	}
	increasing(0, false) // the new session replays the current result once
	for i := 1; i < regs; i++ {
		increasing(i, true)
	}

	// The spare's sensor leaves the owner and its session is reaped: it
	// cannot register again, and backs off alone. The five, listed
	// after it, keep catching up within seconds.
	if err := worker.c.Undeploy("src2"); err != nil {
		t.Fatal(err)
	}
	_, _, before = rt.counts()
	reap(0)
	for range 3 {
		produce(5)
		caughtUp("catch-up beside a registration that cannot register again", 3*time.Second, 0, 1, 2, 3, 4)
	}
	if _, _, after := rt.counts(); after == before || after > before+12 {
		t.Fatalf("%d re-registration attempts for the spare, want a backed-off few", after-before)
	}
	increasing(0, false)
	for i := 1; i < regs; i++ {
		increasing(i, true)
	}

	// Stop registration 4 while the shared poll idles on the owner.
	waitForLong(t, 5*time.Second, func() bool { in, _, _ := rt.counts(); return in == 1 }, "an idle results poll")
	t0 := time.Now()
	stops[4]()
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("stop during an idle poll took %v", took)
	}
	frozen := len(delivered(4))
	produce(5)
	caughtUp("catch-up after a stop", 15*time.Second, 0, 1, 2, 3)
	if n := len(delivered(4)); n != frozen {
		t.Fatalf("registration 4 got %d callbacks after its stop returned", n-frozen)
	}
	if _, maxIn, _ := rt.counts(); maxIn != 1 {
		t.Fatalf("%d results polls in flight at once, want 1", maxIn)
	}

	stopSpare()
	for _, stop := range stops[:4] {
		stop()
	}
	if n := ownerLoops(); n != 0 {
		t.Fatalf("%d results loops after the last stop", n)
	}
	if n := worker.c.QueryRepositoryRef().Count(); n != 0 {
		t.Fatalf("owner still holds %d registered queries", n)
	}
}

// TestFederationUnreachableOwner pins partitioned-coordinator
// semantics: when any owner of the queried sensor is unreachable the
// query fails loudly, naming the node — a partial answer is never
// served as if it were complete.
func TestFederationUnreachableOwner(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{{"a", int64(1), 0.5}}
	worker := newFedNode(t, "worker", clock,
		feedRegistry(map[string]*feedWrapper{"metrics": {clock: clock, rows: rows}}), nil)
	if err := worker.c.DeployXML([]byte(feedDescriptor("metrics", "metrics"))); err != nil {
		t.Fatal(err)
	}
	ft := NewFaultTransport(nil)
	httpc := &http.Client{Transport: ft, Timeout: 10 * time.Second}
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), httpc)
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()
	worker.produce(clock, "metrics", len(rows))

	sql := "select room, count(*) as n from metrics group by room"
	if _, err := coord.c.Query(sql); err != nil {
		t.Fatalf("pre-partition query failed: %v", err)
	}

	ft.Partition(hostOf(t, worker.url))
	_, err := coord.c.Query(sql)
	if err == nil {
		t.Fatal("partitioned owner answered silently")
	}
	if !strings.Contains(err.Error(), worker.url) || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("error %q does not name the unreachable owner %s", err, worker.url)
	}
	ft.Heal()
	if _, err := coord.c.Query(sql); err != nil {
		t.Errorf("post-heal query failed: %v", err)
	}
}

// TestFederationNotFederatableShapes: cluster routing only understands
// single-base-table statements, so a join, compound or subquery that
// touches a remotely-owned table beyond that base must fail with an
// explicit error — never silently answer from the coordinator's local
// window. A remote base with a purely local subquery, by contrast, IS
// answerable: the union path federates the base rows and resolves the
// subquery through the local catalog.
func TestFederationNotFederatableShapes(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	workerRows := [][]stream.Value{{"a", int64(1), 0.5}, {"b", int64(2), 0.75}}
	worker := newFedNode(t, "worker", clock,
		feedRegistry(map[string]*feedWrapper{"rem": {clock: clock, rows: workerRows}}), nil)
	if err := worker.c.DeployXML([]byte(feedDescriptor("rem", "rem"))); err != nil {
		t.Fatal(err)
	}
	coordRows := [][]stream.Value{{"a", int64(1), 0.25}, {"c", int64(3), 1.0}}
	coord := newFedNode(t, "coord", clock,
		feedRegistry(map[string]*feedWrapper{"loc": {clock: clock, rows: coordRows}}), nil)
	if err := coord.c.DeployXML([]byte(feedDescriptor("loc", "loc"))); err != nil {
		t.Fatal(err)
	}
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()
	worker.produce(clock, "rem", len(workerRows))
	coord.produce(clock, "loc", len(coordRows))

	for _, sql := range []string{
		"select l.v, r.v from loc l, rem r",                   // join
		"select room from loc union select room from rem",     // compound
		"select room from loc where v in (select v from rem)", // subquery under a local base
	} {
		_, err := coord.c.Query(sql)
		if err == nil || !strings.Contains(err.Error(), "not federatable") {
			t.Errorf("%s: err = %v, want a not-federatable error", sql, err)
		}
	}

	got, err := coord.c.Query("select room, v from rem where v in (select v from loc) order by v")
	if err != nil {
		t.Fatalf("remote base with local subquery: %v", err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0] != "a" || got.Rows[0][1] != int64(1) {
		t.Errorf("union-with-local-subquery rows = %v, want [[a 1]]", got.Rows)
	}
}

func hostOf(t *testing.T, base string) string {
	t.Helper()
	const prefix = "http://"
	if !strings.HasPrefix(base, prefix) {
		t.Fatalf("unexpected base URL %q", base)
	}
	return strings.TrimPrefix(base, prefix)
}

// orderedDescriptor publishes sensor m over the feed with the integer
// fields hi = v, sv = 10v and k = 3, in the given order.
func orderedDescriptor(order ...string) string {
	exprs := map[string]string{"hi": "v", "sv": "v * 10", "k": "3"}
	var fields, sel []string
	for _, name := range order {
		fields = append(fields, `<field name="`+name+`" type="integer"/>`)
		sel = append(sel, exprs[name]+" as "+name)
	}
	return `
<virtual-sensor name="m">
  <output-structure>` + strings.Join(fields, "") + `</output-structure>
  <storage size="100"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="feed"><predicate key="feed" val="m"/></address>
      <query>select ` + strings.Join(sel, ", ") + ` from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`
}

// TestFederationRefusesOwnerSchemaMismatch: representative rows and
// union rows are read by position, so an owner whose base table has the
// same number of columns in another order must be refused, naming the
// owner — never merged into the wrong columns (hi % k computed from
// the owner's sv).
func TestFederationRefusesOwnerSchemaMismatch(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{{"a", int64(1), 0.5}, {"a", int64(2), 0.5}, {"a", int64(4), 0.5}}
	nodes := map[string]*fedNode{}
	for name, order := range map[string][]string{"a": {"hi", "sv", "k"}, "b": {"sv", "hi", "k"}} {
		n := newFedNode(t, name, clock, feedRegistry(map[string]*feedWrapper{"m": {clock: clock, rows: rows}}), nil)
		if err := n.c.DeployXML([]byte(orderedDescriptor(order...))); err != nil {
			t.Fatal(err)
		}
		n.produce(clock, "m", len(rows))
		nodes[name] = n
	}
	a, b := nodes["a"], nodes["b"]
	a.fed.AddPeer(b.url)
	a.fed.GossipRound()

	for _, sql := range []string{
		"select hi % k as r, count(*) as n from m group by hi % k", // partial rollups
		"select hi from m order by hi",                             // raw row union
	} {
		rel, err := a.c.Query(sql)
		if err == nil || !strings.Contains(err.Error(), b.url) {
			t.Errorf("%s: got %v, %v; want a refusal naming %s", sql, rel, err, b.url)
		}
	}
}
