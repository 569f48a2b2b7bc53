package p2p

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gsn/internal/core"
	"gsn/internal/directory"
	"gsn/internal/integrity"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

const producerDescriptor = `
<virtual-sensor name="remote-temp">
  <output-structure><field name="temperature" type="integer"/></output-structure>
  <storage size="100"/>
  <metadata>
    <predicate key="type" val="temperature"/>
    <predicate key="location" val="bc143"/>
  </metadata>
  <input-stream name="in">
    <stream-source alias="s" storage-size="10">
      <address wrapper="mote">
        <predicate key="sensors" val="temperature"/>
        <predicate key="seed" val="11"/>
      </address>
      <query>select temperature from WRAPPER order by timed desc limit 1</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`

// producerNode spins up a container with one sensor and its p2p server.
func producerNode(t *testing.T, signKey string) (*core.Container, *httptest.Server) {
	t.Helper()
	c, err := core.New(core.Options{
		Name:           "producer",
		Clock:          stream.NewManualClock(1_000_000),
		SyncProcessing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if signKey != "" {
		if err := c.Keys().Add("link", []byte(signKey)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DeployXML([]byte(producerDescriptor)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c, map[bool]string{true: "link", false: ""}[signKey != ""]).Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// TestRouteTable pins the peer protocol's surface: the mux answers the
// seven documented method+path pairs and nothing else under /p2p/ —
// in particular none of the routes this protocol once had.
func TestRouteTable(t *testing.T) {
	want := map[string]bool{
		"GET /p2p/schema":           true,
		"GET /p2p/stream":           true,
		"GET /p2p/query":            true,
		"POST /p2p/register":        true,
		"GET /p2p/results":          true,
		"DELETE /p2p/register":      true,
		"POST /p2p/directory/merge": true,
	}
	got := Routes()
	for _, pair := range got {
		if !want[pair] {
			t.Errorf("Routes() lists %q, which is not documented", pair)
		}
	}
	if len(got) != len(want) {
		t.Errorf("Routes() = %v, want the %d documented pairs", got, len(want))
	}
	_, srv := producerNode(t, "")
	mux := srv.Config.Handler.(*http.ServeMux)
	paths := []string{"schema", "stream", "query", "register", "results", "directory/merge",
		"info", "sensors", "queryx", "partial", "cluster", "directory", ""}
	for _, method := range []string{"GET", "POST", "PUT", "DELETE"} {
		for _, path := range paths {
			pair := method + " /p2p/" + path
			_, pattern := mux.Handler(httptest.NewRequest(method, "/p2p/"+path, nil))
			if want[pair] && pattern != pair {
				t.Errorf("%s resolves to %q", pair, pattern)
			}
			if !want[pair] && pattern != "" {
				t.Errorf("%s is served by %q, want no route", pair, pattern)
			}
		}
	}
}

func TestSchemaFetch(t *testing.T) {
	_, srv := producerNode(t, "")
	client := &Client{Base: srv.URL}
	schema, err := client.Schema("remote-temp")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 1 || schema.Field(0).Name != "TEMPERATURE" {
		t.Errorf("schema = %s", schema)
	}
	if _, err := client.Schema("ghost"); err == nil {
		t.Error("missing sensor schema fetched")
	}
}

func TestFetchIncremental(t *testing.T) {
	c, srv := producerNode(t, "")
	client := &Client{Base: srv.URL}
	c.Pulse()
	c.Pulse()
	page, err := client.FetchSeq(context.Background(), "remote-temp", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Elems) != 2 || page.First != 1 || page.WindowLast != 2 {
		t.Fatalf("fetched %d elements, first %d, window last %d", len(page.Elems), page.First, page.WindowLast)
	}
	if !page.Schema.Equal(elemsSchema(t, page.Elems)) {
		t.Error("header schema does not match elements")
	}
	// Incremental: after the last sequence number, nothing new.
	again, err := client.FetchSeq(context.Background(), "remote-temp", page.WindowLast, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Elems) != 0 || again.Epoch != page.Epoch {
		t.Errorf("re-fetch returned %d elements, epoch %d -> %d", len(again.Elems), page.Epoch, again.Epoch)
	}
	// One more arrival is exactly what the cursor yields next.
	c.Pulse()
	next, err := client.FetchSeq(context.Background(), "remote-temp", page.WindowLast, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Elems) != 1 || next.First != 3 {
		t.Errorf("resumed fetch returned %d elements from %d, want 1 from 3", len(next.Elems), next.First)
	}
}

func elemsSchema(t *testing.T, elems []stream.Element) *stream.Schema {
	t.Helper()
	if len(elems) == 0 {
		t.Fatal("no elements")
	}
	return elems[0].Schema()
}

func TestFetchLongPollTimesOutEmpty(t *testing.T) {
	_, srv := producerNode(t, "")
	client := &Client{Base: srv.URL}
	start := time.Now()
	page, err := client.FetchSeq(context.Background(), "remote-temp", 0, 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Elems) != 0 {
		t.Fatalf("expected empty poll, got %d", len(page.Elems))
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("long-poll returned too fast: %v", elapsed)
	}
}

func TestSignedStreamVerification(t *testing.T) {
	c, srv := producerNode(t, "shared-secret")
	c.Pulse()

	// Client with the right key verifies.
	good := &Client{Base: srv.URL, Keys: keyringWith(t, "link", "shared-secret"), RequireSignature: true}
	if _, err := good.FetchSeq(context.Background(), "remote-temp", 0, 0); err != nil {
		t.Fatalf("verified fetch failed: %v", err)
	}
	// Client with the wrong key refuses.
	bad := &Client{Base: srv.URL, Keys: keyringWith(t, "link", "wrong-secret"), RequireSignature: true}
	if _, err := bad.FetchSeq(context.Background(), "remote-temp", 0, 0); err == nil {
		t.Error("tampered-key fetch succeeded")
	}
	// Client expecting signatures rejects unsigned nodes.
	_, unsignedSrv := producerNode(t, "")
	strict := &Client{Base: unsignedSrv.URL, Keys: keyringWith(t, "link", "x"), RequireSignature: true}
	if _, err := strict.FetchSeq(context.Background(), "remote-temp", 0, 0); err == nil {
		t.Error("unsigned response accepted by strict client")
	}
}

func keyringWith(t *testing.T, id, secret string) *integrity.KeyRing {
	t.Helper()
	kr := integrity.NewKeyRing()
	if err := kr.Add(id, []byte(secret)); err != nil {
		t.Fatal(err)
	}
	return kr
}

func TestDirectoryGossipOverHTTP(t *testing.T) {
	c, srv := producerNode(t, "")
	// Producer publishes its sensor in its own directory on deploy;
	// give the entry a node address by republishing.
	c.Directory().Publish("REMOTE-TEMP", srv.URL,
		map[string]string{"type": "temperature", "location": "bc143"}, time.Hour)

	local := directory.NewRegistry(stream.NewManualClock(1_000_000), time.Hour)
	local.Publish("my-own", "http://me", map[string]string{"type": "camera"}, 0)

	client := &Client{Base: srv.URL}
	adopted, _, err := client.Gossip(local)
	if err != nil {
		t.Fatal(err)
	}
	if adopted == 0 {
		t.Fatal("gossip adopted nothing")
	}
	// The deploy-time auto-publication (empty node) gossips over too;
	// what matters is that the addressable entry arrived.
	got := local.Query(map[string]string{"type": "temperature"})
	var addressable bool
	for _, e := range got {
		if e.Node == srv.URL {
			addressable = true
		}
	}
	if !addressable {
		t.Fatalf("local directory after gossip lacks addressable entry: %+v", got)
	}
	// Push direction: the producer learned about my-own.
	remote := c.Directory().Snapshot()
	found := false
	for _, e := range remote {
		if e.Sensor == "MY-OWN" {
			found = true
		}
	}
	if !found {
		t.Errorf("peer did not adopt pushed entries: %+v", remote)
	}
}

func TestRemoteWrapperDirectURL(t *testing.T) {
	producer, srv := producerNode(t, "")
	reg := wrappers.NewRegistry()
	if err := RegisterRemoteHTTP(reg, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	w, err := reg.New("remote", wrappers.Config{
		Name:   "r1",
		Params: wrappers.Params{"url": srv.URL, "vs": "remote-temp", "poll": "50"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Schema().Len() != 1 {
		t.Fatalf("remote schema = %s", w.Schema())
	}
	got := make(chan stream.Element, 16)
	if err := w.Start(func(e stream.Element) { got <- e }); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	producer.Pulse()
	select {
	case e := <-got:
		if v, _ := e.ValueByName("temperature"); v == nil {
			t.Errorf("remote element = %v", e)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("remote wrapper never delivered")
	}
}

func TestRemoteWrapperLogicalAddressing(t *testing.T) {
	producer, srv := producerNode(t, "")
	// Local directory knows the remote sensor with its node address.
	dir := directory.NewRegistry(stream.SystemClock(), time.Hour)
	dir.Publish("REMOTE-TEMP", srv.URL,
		map[string]string{"type": "temperature", "location": "bc143"}, 0)

	reg := wrappers.NewRegistry()
	if err := RegisterRemoteHTTP(reg, dir, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 1 address: wrapper="remote" with predicates.
	w, err := reg.New("remote", wrappers.Config{
		Name:   "r2",
		Params: wrappers.Params{"type": "temperature", "location": "bc143", "poll": "50"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rw := w.(*RemoteWrapper)
	base, vs := rw.Peer()
	if base != srv.URL || vs != "REMOTE-TEMP" {
		t.Fatalf("resolved peer = %s %s", base, vs)
	}
	got := make(chan stream.Element, 4)
	w.Start(func(e stream.Element) { got <- e })
	defer w.Stop()
	producer.Pulse()
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("logically addressed wrapper never delivered")
	}
}

func TestRemoteWrapperResolutionErrors(t *testing.T) {
	reg := wrappers.NewRegistry()
	RegisterRemoteHTTP(reg, directory.NewRegistry(stream.SystemClock(), time.Hour), nil, nil)
	if _, err := reg.New("remote", wrappers.Config{
		Params: wrappers.Params{"type": "nothing-matches"}}); err == nil {
		t.Error("unresolvable predicates accepted")
	}
	if _, err := reg.New("remote", wrappers.Config{
		Params: wrappers.Params{"url": "http://127.0.0.1:1", "vs": "x", "poll": "10"}}); err == nil {
		t.Error("unreachable peer accepted at deploy time")
	}
	regNoDir := wrappers.NewRegistry()
	RegisterRemoteHTTP(regNoDir, nil, nil, nil)
	if _, err := regNoDir.New("remote", wrappers.Config{
		Params: wrappers.Params{"type": "temperature"}}); err == nil {
		t.Error("logical addressing without directory accepted")
	}
}

func TestEndToEndFederation(t *testing.T) {
	// Producer node with a mote-backed sensor; consumer node deploys a
	// virtual sensor over the remote wrapper — the paper's "new sensor
	// network based on data produced by other sensor networks". Both
	// nodes must share a time base for directory TTLs, so the producer
	// runs on the system clock here.
	producer, err := core.New(core.Options{Name: "producer", SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.DeployXML([]byte(producerDescriptor)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(producer, "").Handler())
	defer srv.Close()

	consumerDir := directory.NewRegistry(stream.SystemClock(), time.Hour)
	consumerReg := wrappers.Default().Clone()
	if err := RegisterRemoteHTTP(consumerReg, consumerDir, nil, nil); err != nil {
		t.Fatal(err)
	}
	consumer, err2 := core.New(core.Options{
		Name:      "consumer",
		Registry:  consumerReg,
		Directory: consumerDir,
	})
	if err2 != nil {
		t.Fatal(err2)
	}
	defer consumer.Close()

	// Learn the producer's sensors via gossip.
	producer.Directory().Publish("REMOTE-TEMP", srv.URL,
		map[string]string{"type": "temperature", "location": "bc143"}, time.Hour)
	if _, _, err := (&Client{Base: srv.URL}).Gossip(consumerDir); err != nil {
		t.Fatal(err)
	}

	err = consumer.DeployXML([]byte(`
<virtual-sensor name="mirror">
  <output-structure><field name="temperature" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="src1" storage-size="10">
      <address wrapper="remote">
        <predicate key="type" val="temperature"/>
        <predicate key="location" val="bc143"/>
        <predicate key="poll" val="50"/>
      </address>
      <query>select temperature from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>`))
	if err != nil {
		t.Fatalf("consumer deploy: %v", err)
	}

	producer.Pulse()
	deadline := time.Now().Add(3 * time.Second)
	for {
		rel, err := consumer.Query("select count(*) from mirror")
		if err == nil && rel.Rows[0][0].(int64) > 0 {
			break
		}
		if time.Now().After(deadline) {
			vs, _ := consumer.Sensor("mirror")
			t.Fatalf("mirror never produced: %+v", vs.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
