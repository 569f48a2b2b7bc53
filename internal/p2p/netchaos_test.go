package p2p

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
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

// counterSchema/counterWrapper: a pull-driven producer of globally
// unique increasing integers. The counter lives outside the wrapper, so
// it survives producer-container restarts — which makes "every produced
// value arrives exactly once" checkable as a plain set comparison.
var counterSchema = stream.MustSchema(stream.Field{Name: "value", Type: stream.TypeInt})

type counterWrapper struct {
	clock stream.Clock
	n     *atomic.Int64
}

func (w *counterWrapper) Kind() string                  { return "chaoscounter" }
func (w *counterWrapper) Schema() *stream.Schema        { return counterSchema }
func (w *counterWrapper) Start(wrappers.EmitFunc) error { return nil }
func (w *counterWrapper) Stop() error                   { return nil }
func (w *counterWrapper) Produce() (stream.Element, error) {
	return stream.MustElement(counterSchema, w.clock.Now(), w.n.Add(1)), nil
}

func counterRegistry(counter *atomic.Int64) *wrappers.Registry {
	reg := wrappers.NewRegistry()
	reg.Register("chaoscounter", func(cfg wrappers.Config) (wrappers.Wrapper, error) {
		return &counterWrapper{clock: cfg.Clock, n: counter}, nil
	})
	return reg
}

const chaosProducerDescriptor = `
<virtual-sensor name="chaos-src">
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

// chaosProducer is a killable producer node: a container over a fixed
// data directory serving its p2p interface on a fixed address, so
// restart() is a real peer restart — same URL, replayed WAL, bumped
// epoch.
type chaosProducer struct {
	t       *testing.T
	dir     string
	clock   *stream.ManualClock
	counter *atomic.Int64
	signKey string

	addr string
	c    *core.Container
	srv  *http.Server
}

func newChaosProducer(t *testing.T, signKey string) *chaosProducer {
	t.Helper()
	p := &chaosProducer{
		t:       t,
		dir:     t.TempDir(),
		clock:   stream.NewManualClock(1_000_000),
		counter: &atomic.Int64{},
		signKey: signKey,
	}
	p.start()
	t.Cleanup(p.stop)
	return p
}

func (p *chaosProducer) start() {
	p.t.Helper()
	c, err := core.New(core.Options{
		Name:           "producer",
		Clock:          p.clock,
		DataDir:        p.dir,
		SyncProcessing: true,
		Registry:       counterRegistry(p.counter),
	})
	if err != nil {
		p.t.Fatal(err)
	}
	signID := ""
	if p.signKey != "" {
		signID = "link"
		if err := c.Keys().Add("link", []byte(p.signKey)); err != nil {
			p.t.Fatal(err)
		}
	}
	if err := c.DeployXML([]byte(chaosProducerDescriptor)); err != nil {
		p.t.Fatal(err)
	}
	listen := p.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		p.t.Fatalf("listen %s: %v", listen, err)
	}
	p.addr = ln.Addr().String()
	p.c = c
	p.srv = &http.Server{Handler: NewServer(c, signID).Handler()}
	go p.srv.Serve(ln)
}

func (p *chaosProducer) stop() {
	if p.srv != nil {
		p.srv.Close()
		p.srv = nil
	}
	if p.c != nil {
		p.c.Close()
		p.c = nil
	}
}

func (p *chaosProducer) restart() {
	p.t.Helper()
	p.stop()
	p.start()
}

func (p *chaosProducer) url() string { return "http://" + p.addr }

// produce advances the clock and pulses n unique values through the
// producer pipeline.
func (p *chaosProducer) produce(n int) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		p.clock.Advance(time.Millisecond)
		if got := p.c.Pulse(); got != 1 {
			p.t.Fatalf("pulse injected %d elements", got)
		}
	}
}

// chaosConsumer builds a consumer container whose remote wrapper runs
// through the given fault transport, mirroring the producer's
// chaos-src sensor.
func chaosConsumer(t *testing.T, producerURL, signKey string, ft *FaultTransport) *core.Container {
	t.Helper()
	reg := wrappers.NewRegistry()
	consumer, err := core.New(core.Options{
		Name:           "consumer",
		SyncProcessing: true,
		Registry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { consumer.Close() })
	keyParam := ""
	if signKey != "" {
		if err := consumer.Keys().Add("link", []byte(signKey)); err != nil {
			t.Fatal(err)
		}
		keyParam = `<predicate key="key-id" val="link"/>`
	}
	httpc := &http.Client{Transport: ft, Timeout: 35 * time.Second}
	if err := RegisterRemoteHTTP(reg, nil, consumer.Keys(), httpc); err != nil {
		t.Fatal(err)
	}
	desc := `
<virtual-sensor name="mirror">
  <output-structure><field name="value" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="src1" storage-size="2000">
      <address wrapper="remote">
        <predicate key="url" val="` + producerURL + `"/>
        <predicate key="vs" val="chaos-src"/>
        <predicate key="poll" val="40"/>
        <predicate key="degrade-after" val="2"/>
        ` + keyParam + `
      </address>
      <query>select value from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>`
	if err := consumer.DeployXML([]byte(desc)); err != nil {
		t.Fatalf("consumer deploy: %v", err)
	}
	return consumer
}

// mirrorValues reads the consumer's replicated window — the source
// window table the remote wrapper feeds, which holds each delivered
// element exactly once (the OUTPUT table re-emits the window per
// trigger by design, so it is not the exactly-once surface).
func mirrorValues(t *testing.T, consumer *core.Container) []int64 {
	t.Helper()
	tab, ok := consumer.Store().Table("MIRROR__IN__SRC1")
	if !ok {
		t.Fatal("consumer source window table missing")
	}
	var out []int64
	for _, e := range tab.Snapshot() {
		out = append(out, e.Value(0).(int64))
	}
	return out
}

func waitForLong(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNetChaos is the network mirror of core.TestChaos: a two-node
// replication pipeline under rounds of randomized partitions, black
// holes, torn/corrupted responses and real peer restarts. The contract:
//
//  1. exactly-once — after every heal the consumer's window holds every
//     produced value exactly once (none lost, none duplicated),
//  2. sustained disconnection degrades the consumer's health, and
//  3. health converges back to healthy after every heal.
//
// The stream is HMAC-signed, so injected corruption surfaces as a
// verification failure and is retried like any network error.
func TestNetChaos(t *testing.T) {
	const secret = "chaos-secret"
	producer := newChaosProducer(t, secret)
	ft := NewFaultTransport(nil)
	consumer := chaosConsumer(t, producer.url(), secret, ft)

	// The fault arsenal. Every entry but the delay makes stream fetches
	// fail outright, so health degradation is deterministic per round.
	type netFaultCase struct {
		name  string
		arm   func()
		fails bool
	}
	arsenal := []netFaultCase{
		{"partition", func() { ft.Partition(producer.addr) }, true},
		{"drop-stream", func() { ft.Inject(NetFault{Path: "/p2p/stream", Count: -1, Drop: true}) }, true},
		{"torn-body", func() { ft.Inject(NetFault{Path: "/p2p/stream", Count: -1, TruncateBody: 7, Torn: true}) }, true},
		{"corrupt-body", func() { ft.Inject(NetFault{Path: "/p2p/stream", Count: -1, Corrupt: true, CorruptAt: 2}) }, true},
		{"delay", func() { ft.Inject(NetFault{Path: "/p2p/stream", Count: -1, Delay: 100 * time.Millisecond}) }, false},
	}
	rng := rand.New(rand.NewSource(7))
	total := 0
	produce := func(n int) {
		producer.produce(n)
		total += n
	}

	sawDegraded := false
	for round := 0; round < 6; round++ {
		produce(4) // calm traffic

		if round == 2 || round == 4 {
			// A real peer restart: WAL replay restores the window under a
			// bumped epoch, forcing the consumer through a counted re-sync.
			producer.restart()
		}

		fc := arsenal[rng.Intn(len(arsenal))]
		armed := ft.Requests()
		fc.arm()
		// Faults apply from the next request; the poll that was already
		// in flight when we armed sails through clean. Wait for a fresh,
		// faulted poll cycle so the storm traffic truly hits the fault.
		waitForLong(t, 10*time.Second, func() bool {
			return ft.Requests() >= armed+2
		}, fc.name+": post-arm poll cycle")
		produce(4) // traffic through the storm

		if fc.fails {
			// Invariant 2: sustained disconnection surfaces as degraded.
			waitForLong(t, 10*time.Second, func() bool {
				return consumer.Health().State == core.Degraded
			}, fc.name+": degraded health")
			sawDegraded = true
		}

		ft.Clear()
		ft.Heal()

		// Invariant 1+3: after the heal the consumer catches up completely
		// and health converges. The wrapper's backoff may be at its cap, so
		// give recovery a generous deadline.
		want := total
		waitForLong(t, 20*time.Second, func() bool {
			return len(mirrorValues(t, consumer)) >= want
		}, fc.name+": catch-up after heal")
		waitForLong(t, 10*time.Second, func() bool {
			return consumer.Health().State == core.Healthy
		}, fc.name+": health convergence")

		// Exactly-once, checked every round: each produced value present
		// exactly once, nothing else.
		got := mirrorValues(t, consumer)
		seen := make(map[int64]int, len(got))
		for _, v := range got {
			seen[v]++
		}
		if len(got) != want {
			t.Fatalf("round %d (%s): window holds %d elements, want %d", round, fc.name, len(got), want)
		}
		for v := int64(1); v <= int64(want); v++ {
			if seen[v] != 1 {
				t.Fatalf("round %d (%s): value %d delivered %d times", round, fc.name, v, seen[v])
			}
		}
	}
	if !sawDegraded {
		t.Error("no round exercised the degraded health path")
	}

	// The replication counters must have witnessed the chaos: two peer
	// restarts mean at least two epoch-mismatch re-syncs, and each
	// re-sync re-serves the window, so duplicates were dropped.
	snap := consumer.MetricsSnapshot()
	if n := snap["p2p_resyncs_total"].(uint64); n < 2 {
		t.Errorf("p2p_resyncs_total = %d, want >= 2", n)
	}
	if n := snap["p2p_epoch_mismatches"].(uint64); n < 2 {
		t.Errorf("p2p_epoch_mismatches = %d, want >= 2", n)
	}
	if n := snap["p2p_duplicates_dropped"].(uint64); n == 0 {
		t.Error("p2p_duplicates_dropped = 0 despite re-syncs over a delivered window")
	}
	if n := snap["p2p_fetch_failures_total"].(uint64); n == 0 {
		t.Error("p2p_fetch_failures_total = 0 despite injected faults")
	}
}

// TestEqualTimestampReconnect pins the loss bug that motivated the
// sequence protocol: two elements sharing one timestamp, with the
// connection cut between them. The old timestamp cursor (fetch "ts >
// since") can never see the second element after resuming past the
// first — it was silently lost. The sequence cursor must deliver both
// exactly once.
func TestEqualTimestampReconnect(t *testing.T) {
	producer := newChaosProducer(t, "")
	ft := NewFaultTransport(nil)

	reg := wrappers.NewRegistry()
	httpc := &http.Client{Transport: ft, Timeout: 35 * time.Second}
	if err := RegisterRemoteHTTP(reg, nil, nil, httpc); err != nil {
		t.Fatal(err)
	}
	w, err := reg.New("remote", wrappers.Config{
		Name:   "r",
		Params: wrappers.Params{"url": producer.url(), "vs": "chaos-src", "poll": "30"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []int64
	if err := w.Start(func(e stream.Element) {
		mu.Lock()
		got = append(got, e.Value(0).(int64))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}

	// First element arrives; note the clock does NOT advance before the
	// second pulse, so both elements carry the same timestamp.
	if n := producer.c.Pulse(); n != 1 {
		t.Fatalf("pulse = %d", n)
	}
	waitFor(t, func() bool { return count() == 1 }, "first element")

	ft.Partition(producer.addr)
	rw := w.(*RemoteWrapper)
	waitFor(t, func() bool { return !rw.Connected() }, "disconnection noticed")
	if n := producer.c.Pulse(); n != 1 { // same timestamp as the first
		t.Fatalf("pulse = %d", n)
	}
	ft.Heal()

	waitFor(t, func() bool { return count() == 2 }, "equal-timestamp element after resume")
	time.Sleep(150 * time.Millisecond) // a duplicate would arrive promptly
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered %v, want exactly [1 2]", got)
	}
}

// TestRemoteWrapperStopPrompt: Stop must abandon an in-flight long poll
// immediately instead of waiting out the fetch, so undeploying a
// remote-backed sensor is prompt even against a stalled peer.
func TestRemoteWrapperStopPrompt(t *testing.T) {
	streaming := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/p2p/schema", func(w http.ResponseWriter, r *http.Request) {
		w.Write(stream.EncodeSchema(nil, counterSchema))
	})
	mux.HandleFunc("/p2p/stream", func(w http.ResponseWriter, r *http.Request) {
		select {
		case streaming <- struct{}{}:
		default:
		}
		<-r.Context().Done() // stall forever
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	reg := wrappers.NewRegistry()
	if err := RegisterRemoteHTTP(reg, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	w, err := reg.New("remote", wrappers.Config{
		Name:   "r",
		Params: wrappers.Params{"url": srv.URL, "vs": "x", "poll": "25000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(func(stream.Element) {}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-streaming:
	case <-time.After(5 * time.Second):
		t.Fatal("wrapper never reached the stream endpoint")
	}

	start := time.Now()
	if err := w.Stop(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Stop blocked %v behind a stalled long poll", elapsed)
	}
}

// TestFetchSeqSignatureFaults covers the signature path under injected
// faults at the client level: a corrupted signed body fails MAC
// verification, and an unsigned peer is rejected by a strict client on
// the sequence protocol.
func TestFetchSeqSignatureFaults(t *testing.T) {
	c, srv := producerNode(t, "shared-secret")
	c.Pulse()

	ft := NewFaultTransport(nil)
	good := &Client{
		Base: srv.URL,
		HTTP: &http.Client{Transport: ft, Timeout: 5 * time.Second},
		Keys: keyringWith(t, "link", "shared-secret"), RequireSignature: true,
	}
	page, err := good.FetchSeq(context.Background(), "remote-temp", 0, 0)
	if err != nil || len(page.Elems) != 1 {
		t.Fatalf("baseline FetchSeq = %+v, %v", page, err)
	}

	ft.Inject(NetFault{Path: "/p2p/stream", Count: -1, Corrupt: true, CorruptAt: 2})
	if _, err := good.FetchSeq(context.Background(), "remote-temp", 0, 0); err == nil {
		t.Error("corrupted signed body accepted")
	}
	ft.Clear()
	if _, err := good.FetchSeq(context.Background(), "remote-temp", 0, 0); err != nil {
		t.Errorf("healed fetch failed: %v", err)
	}

	_, unsignedSrv := producerNode(t, "")
	strict := &Client{Base: unsignedSrv.URL, Keys: keyringWith(t, "link", "x"), RequireSignature: true}
	if _, err := strict.FetchSeq(context.Background(), "remote-temp", 0, 0); err == nil {
		t.Error("unsigned response accepted by strict client on FetchSeq")
	}
}

// TestRemoteWrapperRetriesSignatureFailure: a MAC failure must behave
// exactly like a network error — counted, nothing delivered, cursor
// unmoved — so the retry after the corruption clears delivers the
// element exactly once.
func TestRemoteWrapperRetriesSignatureFailure(t *testing.T) {
	const secret = "retry-secret"
	producer := newChaosProducer(t, secret)
	ft := NewFaultTransport(nil)

	reg := wrappers.NewRegistry()
	httpc := &http.Client{Transport: ft, Timeout: 35 * time.Second}
	if err := RegisterRemoteHTTP(reg, nil, keyringWith(t, "link", secret), httpc); err != nil {
		t.Fatal(err)
	}
	w, err := reg.New("remote", wrappers.Config{
		Name:   "r",
		Params: wrappers.Params{"url": producer.url(), "vs": "chaos-src", "poll": "30", "key-id": "link"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Element already waiting, corruption armed for the first three
	// stream fetches: each returns a non-empty body whose MAC cannot
	// verify.
	producer.produce(1)
	ft.Inject(NetFault{Path: "/p2p/stream", Count: 3, Corrupt: true, CorruptAt: 2})

	var received atomic.Int64
	if err := w.Start(func(stream.Element) { received.Add(1) }); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	waitFor(t, func() bool { return received.Load() == 1 }, "delivery after corruption cleared")
	rw := w.(*RemoteWrapper)
	stats := rw.ReplicationStats()
	if stats.Failures < 3 {
		t.Errorf("failures = %d, want >= 3 (each corrupted fetch counted)", stats.Failures)
	}
	time.Sleep(150 * time.Millisecond) // a double-delivery would land here
	if got := received.Load(); got != 1 {
		t.Errorf("delivered %d copies, want exactly 1", got)
	}
}

// TestNetChaosTruncatedQueryAnswer: an owner's answer cut short on the
// wire never decodes into a smaller answer. A federated statement —
// partial rollups, a raw row union, a routed statement — whose answer
// is truncated fails naming the owner; a routed registration whose
// results poll is truncated retries, and every revision it delivers is
// whole.
func TestNetChaosTruncatedQueryAnswer(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	var solo [][]stream.Value
	for v := int64(1); v <= 5; v++ {
		solo = append(solo, []stream.Value{"x", v, 0.5})
	}
	worker := newFedNode(t, "worker", clock, feedRegistry(map[string]*feedWrapper{
		"m":    {clock: clock, rows: [][]stream.Value{{"a", int64(1), 0.5}, {"b", int64(2), 0.25}}},
		"solo": {clock: clock, rows: solo},
	}), nil)
	for _, name := range []string{"m", "solo"} {
		if err := worker.c.DeployXML([]byte(feedDescriptor(name, name))); err != nil {
			t.Fatal(err)
		}
	}
	ft := NewFaultTransport(nil)
	coord := newFedNode(t, "coord", clock, feedRegistry(map[string]*feedWrapper{
		"m": {clock: clock, rows: [][]stream.Value{{"a", int64(3), 1.5}}},
	}), &http.Client{Transport: ft, Timeout: 10 * time.Second})
	if err := coord.c.DeployXML([]byte(feedDescriptor("m", "m"))); err != nil {
		t.Fatal(err)
	}
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()
	worker.produce(clock, "m", 2)
	coord.produce(clock, "m", 1)
	worker.produce(clock, "solo", 2)

	answered := func() uint64 {
		info := coord.fed.Info()
		return info.PartialBytes + info.UnionBytes + info.RoutedBytes
	}
	for _, sql := range []string{
		"select room, count(*) as n from m group by room", // partial rollups
		"select room, v from m order by v",                // raw row union
		"select room, v from solo order by v",             // routed statement
	} {
		before := answered()
		want, err := coord.c.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		size := int(answered() - before)
		for _, cut := range []int{-1, 1, size / 2, size - 1} {
			ft.Inject(NetFault{Path: "/p2p/query", TruncateBody: cut})
			if rel, err := coord.c.Query(sql); err == nil || !strings.Contains(err.Error(), worker.url) {
				t.Errorf("%s cut to %d of %d bytes: got %v, %v; want an error naming %s", sql, cut, size, rel, err, worker.url)
			}
		}
		if got, err := coord.c.Query(sql); err != nil || typedOf(got) != typedOf(want) {
			t.Errorf("%s after the faults: got %v, %v; want %v", sql, got, err, want)
		}
	}

	// Three truncated results polls before the seeded revision arrives,
	// two more before the last one.
	truncatePolls := func(cuts ...int) {
		for _, cut := range cuts {
			ft.Inject(NetFault{Path: "/p2p/results", TruncateBody: cut})
		}
	}
	var mu sync.Mutex
	var delivered []*sqlengine.Relation
	truncatePolls(-1, 20, 40)
	requests := ft.Requests()
	id, err := coord.c.RegisterQuery("solo", "select count(*) as n, sum(v) as s from solo", 1.0, func(rel *sqlengine.Relation) {
		mu.Lock()
		delivered = append(delivered, rel)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.c.UnregisterQuery(id)
	lastCount := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		if len(delivered) == 0 {
			return 0
		}
		n, _ := delivered[len(delivered)-1].Rows[0][0].(int64)
		return n
	}
	waitForLong(t, 15*time.Second, func() bool { return lastCount() == 2 }, "the seeded revision past three truncated polls")
	if polls := ft.Requests() - requests; polls < 5 {
		t.Errorf("%d requests delivered the first revision; want the register and four polls", polls)
	}
	truncatePolls(-1, 30)
	worker.produce(clock, "solo", len(solo)-2)
	waitForLong(t, 15*time.Second, func() bool { return lastCount() == int64(len(solo)) }, "the last revision past two truncated polls")

	mu.Lock()
	defer mu.Unlock()
	for _, rel := range delivered {
		if len(rel.Rows) != 1 || len(rel.Rows[0]) != 2 {
			t.Fatalf("delivered a partial result %v", rel)
		}
		n, _ := rel.Rows[0][0].(int64)
		if s, _ := rel.Rows[0][1].(int64); n < 1 || s != n*(n+1)/2 {
			t.Errorf("delivered a wrong result %v", rel)
		}
	}
}
