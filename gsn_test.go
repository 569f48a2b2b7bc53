package gsn

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/p2p"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// facadeDescriptor passes the latest tick through: storage-size="1"
// (GSN's default) makes the source query see only the newest element,
// so each trigger emits exactly one output row.
const facadeDescriptor = `
<virtual-sensor name="quick">
  <output-structure><field name="tick" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="timer"/>
      <query>select tick from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`

func newTestNode(t *testing.T) *Node {
	t.Helper()
	node, err := NewNode(NodeOptions{
		Name:           "facade-test",
		Clock:          NewManualClock(1_000_000),
		SyncProcessing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

func TestNodeDeployQuerySubscribe(t *testing.T) {
	node := newTestNode(t)
	if err := node.DeployXML([]byte(facadeDescriptor)); err != nil {
		t.Fatal(err)
	}
	var events atomic.Int64
	id, err := node.Subscribe("quick", func(Event) { events.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		node.Pulse()
	}
	rel, err := node.Query("select count(*) from quick")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != int64(3) {
		t.Errorf("count = %v", rel.Rows[0][0])
	}
	node.Container().Notifier().Flush(time.Second)
	if events.Load() != 3 {
		t.Errorf("events = %d", events.Load())
	}
	if err := node.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	names := node.SensorNames()
	if len(names) != 1 || names[0] != "QUICK" {
		t.Errorf("names = %v", names)
	}
	st, err := node.SensorStats("quick")
	if err != nil || st.Outputs != 3 {
		t.Errorf("stats = %+v, %v", st, err)
	}
	if _, err := node.SensorStats("ghost"); err == nil {
		t.Error("stats for missing sensor")
	}
}

func TestNodeDeployDirSorted(t *testing.T) {
	dir := t.TempDir()
	for i, name := range []string{"b-second", "a-first"} {
		doc := strings.Replace(facadeDescriptor, `name="quick"`,
			fmt.Sprintf("name=%q", name), 1)
		if err := os.WriteFile(filepath.Join(dir, name+".xml"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	// A non-descriptor file must be ignored.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not xml"), 0o644)

	node := newTestNode(t)
	deployed, err := node.DeployDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(deployed) != 2 || deployed[0] != "a-first" || deployed[1] != "b-second" {
		t.Errorf("deployed = %v", deployed)
	}
}

func TestNodeDeployDirStopsOnError(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "bad.xml"), []byte("<broken"), 0o644)
	node := newTestNode(t)
	if _, err := node.DeployDir(dir); err == nil {
		t.Error("broken descriptor directory deployed")
	}
}

func TestNodeListenServesAPI(t *testing.T) {
	node := newTestNode(t)
	if err := node.DeployXML([]byte(facadeDescriptor)); err != nil {
		t.Fatal(err)
	}
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node.Pulse()
	resp, err := httpGet("http://" + addr + "/api/sensors")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "QUICK") {
		t.Errorf("api response = %.200s", resp)
	}
}

// countingTransport counts round trips before delegating to the
// default transport.
type countingTransport struct{ calls atomic.Int64 }

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.calls.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestJoinClusterUsesPeerHTTP: a node turned clustered at runtime must
// route federation traffic through NodeOptions.PeerHTTP exactly like a
// NewNode-configured peer list does — tests and operators thread fault
// injection and TLS config through that client.
func TestJoinClusterUsesPeerHTTP(t *testing.T) {
	owner, err := NewNode(NodeOptions{Name: "owner", SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	addr, err := owner.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ct := &countingTransport{}
	late, err := NewNode(NodeOptions{
		Name:     "late",
		PeerHTTP: &http.Client{Transport: ct, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	late.JoinCluster("http://" + addr)
	late.GossipRound()
	if ct.calls.Load() == 0 {
		t.Fatal("JoinCluster federation bypassed NodeOptions.PeerHTTP")
	}
}

// TestGossipWithUsesPeerHTTP: a node has one peer table, so
// NodeOptions.PeerHTTP (fault injection, TLS config) covers GossipWith
// like every other peer call — and gossiping alone does not make the
// node clustered; JoinCluster does, safely beside a running round.
func TestGossipWithUsesPeerHTTP(t *testing.T) {
	owner, err := NewNode(NodeOptions{Name: "owner", SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	addr, err := owner.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ft := p2p.NewFaultTransport(nil)
	node, err := NewNode(NodeOptions{
		Name:     "gossiper",
		PeerHTTP: &http.Client{Transport: ft, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.GossipWith("http://" + addr); err != nil {
		t.Fatal(err)
	}
	ft.Partition(addr)
	if _, err := node.GossipWith("http://" + addr); err == nil {
		t.Fatal("GossipWith reached a partitioned peer: it bypassed NodeOptions.PeerHTTP")
	}
	ft.Heal()
	if _, err := node.GossipWith("http://" + addr); err != nil {
		t.Fatalf("GossipWith after heal: %v", err)
	}
	if node.Container().Cluster() != nil {
		t.Fatal("GossipWith alone made the node clustered")
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); node.JoinCluster("http://" + addr) }()
	go func() { defer wg.Done(); node.GossipRound() }()
	wg.Wait()
	if node.Container().Cluster() == nil {
		t.Fatal("JoinCluster left the node standalone")
	}
}

func TestTwoNodeFederationViaFacade(t *testing.T) {
	producer, err := NewNode(NodeOptions{Name: "prod", SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.DeployXML([]byte(facadeDescriptor)); err != nil {
		t.Fatal(err)
	}
	addr, err := producer.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Publish with the real address, then let a consumer discover it.
	producer.Container().Directory().Publish("QUICK", "http://"+addr,
		map[string]string{"kind": "tick-source"}, time.Hour)

	consumer, err := NewNode(NodeOptions{Name: "cons"})
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	if _, err := consumer.GossipWith("http://" + addr); err != nil {
		t.Fatal(err)
	}
	err = consumer.DeployXML([]byte(`
<virtual-sensor name="mirror">
  <output-structure><field name="tick" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="10">
      <address wrapper="remote">
        <predicate key="kind" val="tick-source"/>
        <predicate key="poll" val="50"/>
      </address>
      <query>select tick from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
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
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("mirror never received data")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRegisterCustomWrapper(t *testing.T) {
	schema := stream.MustSchema(stream.Field{Name: "v", Type: stream.TypeInt})
	err := RegisterWrapper("facade-test-const", func(cfg WrapperConfig) (Wrapper, error) {
		return &constWrapper{cfg: cfg, schema: schema}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	node := newTestNode(t)
	err = node.DeployXML([]byte(`
<virtual-sensor name="custom">
  <output-structure><field name="v" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="facade-test-const"/>
      <query>select v from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`))
	if err != nil {
		t.Fatal(err)
	}
	node.Pulse()
	rel, err := node.Query("select v from custom")
	if err != nil || rel.Rows[0][0] != int64(42) {
		t.Errorf("custom wrapper value = %v, %v", rel.Rows, err)
	}
}

// constWrapper is the smallest possible custom platform adapter,
// demonstrating the paper's ~low-effort wrapper claim.
type constWrapper struct {
	cfg    WrapperConfig
	schema *Schema
}

func (w *constWrapper) Kind() string                  { return "facade-test-const" }
func (w *constWrapper) Schema() *Schema               { return w.schema }
func (w *constWrapper) Start(wrappers.EmitFunc) error { return nil }
func (w *constWrapper) Stop() error                   { return nil }
func (w *constWrapper) Produce() (Element, error) {
	return stream.NewElement(w.schema, w.cfg.Clock.Now(), int64(42))
}

func httpGet(url string) (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

func TestFacadeParseDescriptor(t *testing.T) {
	d, err := ParseDescriptor([]byte(facadeDescriptor))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "quick" {
		t.Errorf("name = %q", d.Name)
	}
	if _, err := ParseDescriptor([]byte("<broken")); err == nil {
		t.Error("broken descriptor parsed")
	}
}

func TestFacadeRedeployAndUndeploy(t *testing.T) {
	node := newTestNode(t)
	if err := node.DeployXML([]byte(facadeDescriptor)); err != nil {
		t.Fatal(err)
	}
	d, _ := ParseDescriptor([]byte(facadeDescriptor))
	if err := node.Redeploy(d); err != nil {
		t.Fatalf("Redeploy: %v", err)
	}
	if err := node.Undeploy("quick"); err != nil {
		t.Fatalf("Undeploy: %v", err)
	}
	if names := node.SensorNames(); len(names) != 0 {
		t.Errorf("names after undeploy = %v", names)
	}
	if err := node.Undeploy("quick"); err == nil {
		t.Error("double undeploy succeeded")
	}
}

func TestFacadeClockHelpers(t *testing.T) {
	mc := NewManualClock(100)
	if mc.Now() != 100 {
		t.Errorf("manual clock = %v", mc.Now())
	}
	if SystemClock().Now() == 0 {
		t.Error("system clock returned zero")
	}
}

func TestNodeDeployDirPriorityOrder(t *testing.T) {
	dir := t.TempDir()
	low := strings.Replace(facadeDescriptor, `name="quick"`, `name="low-prio"`, 1)
	high := strings.Replace(facadeDescriptor, `<virtual-sensor name="quick">`,
		`<virtual-sensor name="high-prio" priority="99">`, 1)
	os.WriteFile(filepath.Join(dir, "a-low.xml"), []byte(low), 0o644)
	os.WriteFile(filepath.Join(dir, "z-high.xml"), []byte(high), 0o644)

	node := newTestNode(t)
	deployed, err := node.DeployDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Despite sorting last by file name, the priority-99 sensor deploys
	// first (the paper's priority attribute).
	if len(deployed) != 2 || deployed[0] != "high-prio" || deployed[1] != "low-prio" {
		t.Errorf("deploy order = %v", deployed)
	}
}

// TestNodeDeployDirTopological: a directory whose file names sort the
// composition graph leaf-first still comes up in one pass — the batch
// is topologically ordered by local dependencies.
func TestNodeDeployDirTopological(t *testing.T) {
	dir := t.TempDir()
	downstream := `
<virtual-sensor name="derived">
  <output-structure><field name="tick" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="local"><predicate key="sensor" val="quick"/></address>
      <query>select tick + 1 as tick from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`
	// "a-" sorts before "z-": the dependent's file comes first.
	os.WriteFile(filepath.Join(dir, "a-derived.xml"), []byte(downstream), 0o644)
	os.WriteFile(filepath.Join(dir, "z-quick.xml"), []byte(facadeDescriptor), 0o644)

	node := newTestNode(t)
	deployed, err := node.DeployDir(dir)
	if err != nil {
		t.Fatalf("DeployDir: %v", err)
	}
	if len(deployed) != 2 || deployed[0] != "quick" || deployed[1] != "derived" {
		t.Fatalf("deploy order = %v", deployed)
	}
	node.Pulse()
	st, err := node.SensorStats("derived")
	if err != nil || st.Outputs != 1 {
		t.Errorf("derived stats = %+v, %v", st, err)
	}
	if g := node.Graph(); len(g["DERIVED"]) != 1 || g["DERIVED"][0] != "QUICK" {
		t.Errorf("graph = %v", g)
	}
	if _, err := node.UndeployCascade("quick"); err != nil {
		t.Fatalf("UndeployCascade: %v", err)
	}
	if names := node.SensorNames(); len(names) != 0 {
		t.Errorf("sensors remain: %v", names)
	}
}
