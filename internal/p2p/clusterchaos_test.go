package p2p

import (
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/core"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// fedChaosDescriptor is the chaos producer's sensor: globally unique
// increasing integers over durable storage, so a restart replays the
// WAL under a bumped epoch and exactly-once stays checkable as a set
// comparison. (The name avoids hyphens so ad-hoc SQL can reference the
// table directly.)
const fedChaosDescriptor = `
<virtual-sensor name="chaossrc">
  <output-structure><field name="value" type="integer"/></output-structure>
  <storage permanent-storage="true" size="2000" sync="always"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="chaoscounter"/>
      <query>select value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`

// fedChaosProducer is a killable cluster member: fixed address, fixed
// data directory, NodeAddress published to the directory — so restart()
// is a real peer restart as the cluster sees it: same placement, new
// epoch, replayed window, forgotten query sessions.
type fedChaosProducer struct {
	t       *testing.T
	dir     string
	clock   *stream.ManualClock
	counter *atomic.Int64

	addr string
	c    *core.Container
	srv  *http.Server
}

func newFedChaosProducer(t *testing.T, clock *stream.ManualClock) *fedChaosProducer {
	t.Helper()
	p := &fedChaosProducer{
		t:       t,
		dir:     t.TempDir(),
		clock:   clock,
		counter: &atomic.Int64{},
	}
	p.start()
	t.Cleanup(p.stop)
	return p
}

func (p *fedChaosProducer) start() {
	p.t.Helper()
	listen := p.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		p.t.Fatalf("listen %s: %v", listen, err)
	}
	p.addr = ln.Addr().String()
	c, err := core.New(core.Options{
		Name:           "producer",
		Clock:          p.clock,
		DataDir:        p.dir,
		SyncProcessing: true,
		Registry:       counterRegistry(p.counter),
		NodeAddress:    "http://" + p.addr,
	})
	if err != nil {
		p.t.Fatal(err)
	}
	if err := c.DeployXML([]byte(fedChaosDescriptor)); err != nil {
		p.t.Fatal(err)
	}
	p.c = c
	p.srv = &http.Server{Handler: NewServer(c, "").Handler()}
	go p.srv.Serve(ln)
}

func (p *fedChaosProducer) stop() {
	if p.srv != nil {
		p.srv.Close()
		p.srv = nil
	}
	if p.c != nil {
		p.c.Close()
		p.c = nil
	}
}

func (p *fedChaosProducer) restart() {
	p.t.Helper()
	p.stop()
	p.start()
}

func (p *fedChaosProducer) url() string { return "http://" + p.addr }

func (p *fedChaosProducer) produce(n int) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		p.clock.Advance(time.Millisecond)
		if got := p.c.Pulse(); got != 1 {
			p.t.Fatalf("pulse injected %d elements", got)
		}
	}
}

// TestClusterChaos is the cluster-level mirror of TestNetChaos: a
// 4-node federation — producer, two consumers whose wrapper="local"
// edges resolve across the network, and a coordinator running partial
// queries and two routed continuous registrations sharing one results
// poll — under rounds of
// partitions, dropped and torn stream responses, and full producer
// restarts (same datadir, bumped epoch). The contract:
//
//  1. exactly-once — after every heal every consumer's mirror window
//     holds every produced value exactly once;
//  2. health ladder — sustained disconnection degrades the consumer,
//     and health converges back to healthy after every heal;
//  3. partitioned-coordinator semantics — a query spanning an
//     unreachable owner fails naming the node, never silently partial,
//     and agrees with ground truth again after the heal;
//  4. the routed registrations survive producer restarts (their
//     sessions are lost; the shared poll loop transparently
//     re-registers each);
//  5. placement is not stale after a restart: the directory still maps
//     the sensor to exactly its (restarted) owner.
func TestClusterChaos(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	producer := newFedChaosProducer(t, clock)
	ft := NewFaultTransport(nil)
	httpc := &http.Client{Transport: ft, Timeout: 35 * time.Second}

	consumer := newFedNode(t, "consumer", clock, wrappers.NewRegistry(), httpc)
	consumer2 := newFedNode(t, "consumer2", clock, wrappers.NewRegistry(), httpc)
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), httpc)
	for _, n := range []*fedNode{consumer, consumer2, coord} {
		n.fed.AddPeer(producer.url())
		n.fed.GossipRound()
	}

	// The cross-node composition edge: the descriptor names only the
	// upstream sensor; placement resolution turns it into a remote edge
	// through the fault transport.
	mirror := `
<virtual-sensor name="mirror">
  <output-structure><field name="value" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="2000">
      <address wrapper="local">
        <predicate key="sensor" val="chaossrc"/>
        <predicate key="poll" val="40"/>
        <predicate key="degrade-after" val="2"/>
      </address>
      <query>select value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`
	if err := consumer.c.DeployXML([]byte(mirror)); err != nil {
		t.Fatalf("consumer deploy: %v", err)
	}
	if err := consumer2.c.DeployXML([]byte(strings.Replace(mirror, `name="mirror"`, `name="mirror2"`, 1))); err != nil {
		t.Fatalf("consumer2 deploy: %v", err)
	}
	for _, n := range []*fedNode{consumer, consumer2} {
		if got := n.c.MetricsSnapshot()["cluster_remote_edges"].(uint64); got != 1 {
			t.Fatalf("cluster_remote_edges = %d, want 1", got)
		}
	}

	// Two routed continuous registrations: counts over the producer's
	// window, streamed back to the coordinator through the one results
	// poll it runs for the producer. Their peer sessions die with every
	// producer restart; the shared loop must re-register both.
	var regMu sync.Mutex
	var lastCount [2]int64
	var regIDs [2]int64
	for i, sql := range []string{
		"select count(*) as n from chaossrc",
		"select count(*) as n from chaossrc where value > 0",
	} {
		id, err := coord.c.RegisterQuery("chaossrc", sql, 1.0, func(rel *sqlengine.Relation) {
			if len(rel.Rows) == 1 {
				if n, ok := rel.Rows[0][0].(int64); ok {
					regMu.Lock()
					lastCount[i] = n
					regMu.Unlock()
				}
			}
		})
		if err != nil {
			t.Fatalf("routed registration: %v", err)
		}
		if id >= 0 {
			t.Fatalf("routed registration id = %d, want negative", id)
		}
		regIDs[i] = id
	}
	routedCaughtUp := func(want int64) bool {
		regMu.Lock()
		defer regMu.Unlock()
		return lastCount[0] == want && lastCount[1] == want
	}

	windowOf := func(n *fedNode, table string) []int64 {
		tab, ok := n.c.Store().Table(table)
		if !ok {
			return nil
		}
		var out []int64
		for _, e := range tab.Snapshot() {
			out = append(out, e.Value(0).(int64))
		}
		return out
	}
	mirrors := []struct {
		node  *fedNode
		table string
	}{
		{consumer, "MIRROR__IN__S"},
		{consumer2, "MIRROR2__IN__S"},
	}

	const countSQL = "select count(*) as n from chaossrc"

	type chaosCase struct {
		name  string
		arm   func()
		fails bool // the consumer's stream fetches fail outright
	}
	arsenal := []chaosCase{
		{"partition", func() { ft.Partition(producer.addr) }, true},
		{"drop-stream", func() { ft.Inject(NetFault{Path: "/p2p/stream", Count: -1, Drop: true}) }, true},
		{"torn-body", func() { ft.Inject(NetFault{Path: "/p2p/stream", Count: -1, TruncateBody: 7, Torn: true}) }, true},
	}
	rng := rand.New(rand.NewSource(11))
	total := 0
	produce := func(n int) {
		producer.produce(n)
		total += n
	}

	sawDegraded := false
	for round := 0; round < 6; round++ {
		produce(4) // calm traffic

		if round == 2 || round == 4 {
			// Full peer restart: WAL replay restores the window under a
			// bumped epoch; the routed-query session is forgotten.
			producer.restart()
		}

		fc := arsenal[rng.Intn(len(arsenal))]
		armed := ft.Requests()
		fc.arm()
		// Faults apply from the next request — wait for a fresh faulted
		// cycle before pushing storm traffic.
		waitForLong(t, 10*time.Second, func() bool {
			return ft.Requests() >= armed+2
		}, fc.name+": post-arm poll cycle")
		produce(4) // traffic through the storm

		if fc.fails {
			waitForLong(t, 10*time.Second, func() bool {
				return consumer.c.Health().State == core.Degraded
			}, fc.name+": degraded consumer health")
			sawDegraded = true
		}
		if fc.name == "partition" {
			// Partitioned-coordinator semantics: the query must fail
			// naming the unreachable owner, never answer partially.
			if _, err := coord.c.Query(countSQL); err == nil {
				t.Fatalf("round %d: query answered despite partitioned owner", round)
			} else if !strings.Contains(err.Error(), producer.url()) || !strings.Contains(err.Error(), "unreachable") {
				t.Errorf("round %d: error %q does not name the partitioned owner", round, err)
			}
		}

		ft.Clear()
		ft.Heal()

		// Exactly-once catch-up and health convergence after the heal,
		// on every consumer independently.
		want := total
		for _, m := range mirrors {
			m := m
			waitForLong(t, 20*time.Second, func() bool {
				return len(windowOf(m.node, m.table)) >= want
			}, fc.name+": catch-up after heal ("+m.table+")")
			waitForLong(t, 10*time.Second, func() bool {
				return m.node.c.Health().State == core.Healthy
			}, fc.name+": health convergence ("+m.table+")")
			got := windowOf(m.node, m.table)
			seen := make(map[int64]int, len(got))
			for _, v := range got {
				seen[v]++
			}
			if len(got) != want {
				t.Fatalf("round %d (%s): %s holds %d elements, want %d", round, fc.name, m.table, len(got), want)
			}
			for v := int64(1); v <= int64(want); v++ {
				if seen[v] != 1 {
					t.Fatalf("round %d (%s): %s delivered value %d %d times", round, fc.name, m.table, v, seen[v])
				}
			}
		}

		// The healed coordinator agrees with ground truth via partial
		// shipping (the producer's durable window survived restarts).
		rel, err := coord.c.Query(countSQL)
		if err != nil {
			t.Fatalf("round %d (%s): healed query: %v", round, fc.name, err)
		}
		if len(rel.Rows) != 1 || rel.Rows[0][0] != int64(total) {
			t.Fatalf("round %d (%s): count = %v, want %d", round, fc.name, rel.Rows, total)
		}

		// Invariant 4: the routed registrations caught up too — across
		// restarts that means their sessions were transparently re-created.
		waitForLong(t, 20*time.Second, func() bool {
			return routedCaughtUp(int64(total))
		}, fc.name+": routed registration catch-up")
	}
	if !sawDegraded {
		t.Error("no round exercised the degraded health path")
	}

	// Invariant 5: placement is not stale after restarts — the
	// coordinator still maps the sensor to exactly its owner.
	coord.fed.GossipRound()
	if nodes := coord.fed.Info().Placements["CHAOSSRC"]; len(nodes) != 1 || nodes[0] != producer.url() {
		t.Errorf("placements[CHAOSSRC] = %v, want exactly [%s]", nodes, producer.url())
	}

	// The replication counters witnessed the chaos: two restarts mean at
	// least two epoch re-syncs on the consumer's remote edge.
	snap := consumer.c.MetricsSnapshot()
	if n := snap["p2p_resyncs_total"].(uint64); n < 2 {
		t.Errorf("p2p_resyncs_total = %d, want >= 2", n)
	}
	if n := snap["p2p_fetch_failures_total"].(uint64); n == 0 {
		t.Error("p2p_fetch_failures_total = 0 despite injected faults")
	}
	csnap := coord.c.MetricsSnapshot()
	if n := csnap["cluster_partial_queries"].(uint64); n < 6 {
		t.Errorf("cluster_partial_queries = %d, want >= 6", n)
	}
	if n := csnap["cluster_routed_registrations"].(uint64); n != 2 {
		t.Errorf("cluster_routed_registrations = %d, want 2", n)
	}
	for _, id := range regIDs {
		if err := coord.c.UnregisterQuery(id); err != nil {
			t.Errorf("unregister routed query: %v", err)
		}
	}
}
