package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/notify"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/vsensor"
)

// tierDescriptor builds one tier of a local composition chain: name
// consumes upstream's output (value column) and re-emits it shifted by
// +1, so values record the number of tiers an element crossed.
func tierDescriptor(name, upstream string) string {
	return fmt.Sprintf(`
<virtual-sensor name="%s">
  <output-structure>
    <field name="value" type="integer"/>
  </output-structure>
  <storage size="100"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="local"><predicate key="sensor" val="%s"/></address>
      <query>select value + 1 as value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, name, upstream)
}

// rootDescriptor is the physical tier: a timer wrapper driven by Pulse.
func rootDescriptor(name string) string {
	return fmt.Sprintf(`
<virtual-sensor name="%s">
  <output-structure>
    <field name="value" type="integer"/>
  </output-structure>
  <storage size="100"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="timer"/>
      <query>select tick as value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, name)
}

func deployChain(t *testing.T, c *Container, names ...string) {
	t.Helper()
	deploy(t, c, rootDescriptor(names[0]))
	for i := 1; i < len(names); i++ {
		deploy(t, c, tierDescriptor(names[i], names[i-1]))
	}
}

// TestLocalCompositionThreeTiers: elements propagate through a
// three-tier local chain synchronously, each tier applying its own
// processing (value+1 per hop).
func TestLocalCompositionThreeTiers(t *testing.T) {
	c := testContainer(t)
	deployChain(t, c, "t0", "t1", "t2")

	for i := 0; i < 5; i++ {
		if n := c.Pulse(); n != 1 { // only the root has a pull-capable wrapper
			t.Fatalf("Pulse injected %d", n)
		}
	}
	for tier, want := range map[string]int64{"t0": 5, "t1": 6, "t2": 7} {
		vs, ok := c.Sensor(tier)
		if !ok {
			t.Fatalf("%s not deployed", tier)
		}
		if st := vs.Stats(); st.Outputs != 5 || st.Errors != 0 {
			t.Fatalf("%s stats = %+v", tier, st)
		}
		e, ok := vs.Output().Latest()
		if !ok {
			t.Fatalf("%s has no output", tier)
		}
		if got := e.Value(0).(int64); got != want { // tick 5 crossed N tiers
			t.Errorf("%s latest = %d, want %d", tier, got, want)
		}
	}

	graph := c.Graph()
	if len(graph["T1"]) != 1 || graph["T1"][0] != "T0" || len(graph["T2"]) != 1 || graph["T2"][0] != "T1" {
		t.Errorf("graph = %v", graph)
	}
	if deps := c.Dependents("t0"); len(deps) != 1 || deps[0] != "T1" {
		t.Errorf("dependents(t0) = %v", deps)
	}
}

// TestLocalCompositionBatchPropagation: a burst injected at the root
// crosses downstream tiers through the batch path.
func TestLocalCompositionBatchPropagation(t *testing.T) {
	c := testContainer(t)
	root := strings.Replace(rootDescriptor("t0"),
		`<address wrapper="timer"/>`,
		`<address wrapper="mote"><predicate key="sensors" val="temperature"/></address>`, 1)
	root = strings.Replace(root, "select tick as value", "select temperature as value", 1)
	deploy(t, c, root)
	deploy(t, c, tierDescriptor("t1", "t0"))

	if n := c.PulseBatch(16); n != 16 {
		t.Fatalf("PulseBatch injected %d", n)
	}
	vs, _ := c.Sensor("t1")
	if st := vs.Stats(); st.Outputs == 0 || st.Errors != 0 {
		t.Fatalf("t1 stats after burst = %+v", st)
	}
	if live := vs.Output().Len(); live == 0 {
		t.Error("t1 received nothing from the burst")
	}
}

// TestDeployRejectsDanglingDependency: a local source naming an
// undeployed sensor is rejected at deploy time.
func TestDeployRejectsDanglingDependency(t *testing.T) {
	c := testContainer(t)
	err := c.DeployXML([]byte(tierDescriptor("t1", "ghost")))
	if err == nil || !strings.Contains(err.Error(), "not deployed") {
		t.Fatalf("dangling dependency error = %v", err)
	}
	if got := c.Store().List(); len(got) != 0 {
		t.Errorf("tables leaked: %v", got)
	}
}

// TestDeployAllTopologicalOrder: a batch handed over downstream-first
// still deploys, and an in-batch cycle is rejected with a clear error.
func TestDeployAllTopologicalOrder(t *testing.T) {
	c := testContainer(t)
	parse := func(xml string) *vsensor.Descriptor {
		d, err := vsensor.Parse([]byte(xml))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	deployed, err := c.DeployAll([]*vsensor.Descriptor{
		parse(tierDescriptor("t2", "t1")),
		parse(tierDescriptor("t1", "t0")),
		parse(rootDescriptor("t0")),
	})
	if err != nil {
		t.Fatalf("DeployAll: %v", err)
	}
	if len(deployed) != 3 || deployed[0] != "t0" || deployed[1] != "t1" || deployed[2] != "t2" {
		t.Fatalf("deploy order = %v", deployed)
	}
	if c.Pulse() != 1 {
		t.Fatal("chain not wired")
	}
	if vs, _ := c.Sensor("t2"); vs.Stats().Outputs != 1 {
		t.Error("t2 produced nothing")
	}

	// A cyclic batch must fail before deploying anything.
	c2 := testContainer(t)
	_, err = c2.DeployAll([]*vsensor.Descriptor{
		parse(tierDescriptor("a", "b")),
		parse(tierDescriptor("b", "a")),
	})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle error = %v", err)
	}
	if len(c2.Sensors()) != 0 {
		t.Error("cyclic batch partially deployed")
	}
}

// TestUndeployRefusesAndCascades: an upstream with dependents refuses
// plain Undeploy; UndeployCascade removes the whole subtree leaf-first
// and counts the cascaded removals.
func TestUndeployRefusesAndCascades(t *testing.T) {
	c := testContainer(t)
	deployChain(t, c, "t0", "t1", "t2")

	if err := c.Undeploy("t0"); err == nil || !strings.Contains(err.Error(), "dependents") {
		t.Fatalf("undeploy with dependents = %v", err)
	}
	if _, ok := c.Sensor("t0"); !ok {
		t.Fatal("refused undeploy still removed the sensor")
	}

	removed, err := c.UndeployCascade("t0")
	if err != nil {
		t.Fatalf("UndeployCascade: %v", err)
	}
	if len(removed) != 3 || removed[0] != "T2" || removed[1] != "T1" || removed[2] != "T0" {
		t.Fatalf("cascade order = %v", removed)
	}
	if got := len(c.Sensors()); got != 0 {
		t.Errorf("%d sensors remain", got)
	}
	if got := c.Metrics().Counter("cascade_undeploys").Value(); got != 2 {
		t.Errorf("cascade_undeploys = %d, want 2", got)
	}
	if got := c.Store().List(); len(got) != 0 {
		t.Errorf("tables remain: %v", got)
	}
}

// TestLocalEdgesDeliverInSubscriptionOrder: sibling downstream sensors
// of one upstream evaluate — and so publish — in the order their edges
// subscribed, on every delivery.
func TestLocalEdgesDeliverInSubscriptionOrder(t *testing.T) {
	c := testContainer(t)
	deployChain(t, c, "t0", "d1")
	deploy(t, c, tierDescriptor("d2", "t0"))
	var order []string
	if _, err := c.Subscribe("", notify.FuncChannel{Fn: func(ev notify.Event) error {
		if ev.Sensor != "T0" {
			order = append(order, ev.Sensor)
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Pulse()
	}
	if !c.Notifier().Flush(time.Second) {
		t.Fatal("notifications did not drain")
	}
	if len(order) != 200 {
		t.Fatalf("%d downstream events, want 200", len(order))
	}
	for i, s := range order {
		if want := []string{"D1", "D2"}[i%2]; s != want {
			t.Fatalf("event %d came from %s, want %s: siblings ran out of subscription order", i, s, want)
		}
	}
}

// TestRedeployPreservesState is the tentpole acceptance scenario:
// redeploying the middle tier of a chain with an unchanged output
// schema preserves its output rows, keeps every registered client
// query and subscription delivering, and downstream tiers keep
// receiving — zero unregistrations.
func TestRedeployPreservesState(t *testing.T) {
	c := testContainer(t)
	deployChain(t, c, "t0", "t1", "t2")

	var evals atomic.Int64
	qid, err := c.RegisterQuery("t1", "select count(*) as n from T1", 1,
		func(*sqlengine.Relation) { evals.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	var notified atomic.Int64
	sid, err := c.Subscribe("t1", notify.FuncChannel{ChannelName: "test",
		Fn: func(notify.Event) error { notified.Add(1); return nil }})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		c.Pulse()
	}
	if !c.Notifier().Flush(time.Second) {
		t.Fatal("notifications did not drain")
	}
	rowsBefore := mustSensor(t, c, "t1").Output().Len()
	evalsBefore, notifiedBefore := evals.Load(), notified.Load()
	if rowsBefore != 4 || evalsBefore == 0 || notifiedBefore == 0 {
		t.Fatalf("setup: rows=%d evals=%d notified=%d", rowsBefore, evalsBefore, notifiedBefore)
	}

	// Same output schema, different processing: +10 per hop instead of +1.
	changed := strings.Replace(tierDescriptor("t1", "t0"),
		"value + 1 as value", "value + 10 as value", 1)
	desc, err := vsensor.Parse([]byte(changed))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Redeploy(desc); err != nil {
		t.Fatalf("Redeploy: %v", err)
	}

	// Output rows survived the swap.
	if got := mustSensor(t, c, "t1").Output().Len(); got != rowsBefore {
		t.Errorf("t1 rows after swap = %d, want %d (state lost)", got, rowsBefore)
	}
	if got := c.QueryRepositoryRef().Count(); got != 1 {
		t.Fatalf("registered queries after swap = %d, want 1 (unregistered by redeploy)", got)
	}

	c.Pulse() // tick 5 through the new t1 processing
	if !c.Notifier().Flush(time.Second) {
		t.Fatal("notifications did not drain")
	}
	if got := evals.Load(); got <= evalsBefore {
		t.Error("registered query stopped evaluating after the swap")
	}
	if got := notified.Load(); got <= notifiedBefore {
		t.Error("notification subscription stopped after the swap")
	}
	e, ok := mustSensor(t, c, "t1").Output().Latest()
	if !ok || e.Value(0).(int64) != 15 { // 5 + 10
		t.Errorf("t1 latest after swap = %v, want 15", e.Value(0))
	}
	e, ok = mustSensor(t, c, "t2").Output().Latest()
	if !ok || e.Value(0).(int64) != 16 { // downstream kept its edge
		t.Errorf("t2 latest after swap = %v, want 16", e.Value(0))
	}
	if got := mustSensor(t, c, "t2").Output().Len(); got != 5 {
		t.Errorf("t2 rows = %d, want 5 (downstream missed the post-swap element)", got)
	}
	if got := c.Metrics().Counter("redeploys_preserved").Value(); got != 1 {
		t.Errorf("redeploys_preserved = %d", got)
	}
	if err := c.UnregisterQuery(qid); err != nil {
		t.Errorf("query id invalidated by swap: %v", err)
	}
	if err := c.Unsubscribe(sid); err != nil {
		t.Errorf("subscription id invalidated by swap: %v", err)
	}
}

// TestRedeployPreservesWAL: a permanent sensor's on-disk log keeps
// accumulating across a preserved redeploy (same table, same WAL).
func TestRedeployPreservesWAL(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{
		Name:           "wal-node",
		Clock:          stream.NewManualClock(1_000_000),
		SyncProcessing: true,
		DataDir:        dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	perm := strings.Replace(rootDescriptor("t0"), `<storage size="100"/>`,
		`<storage size="100" permanent-storage="true"/>`, 1)
	deploy(t, c, perm)
	for i := 0; i < 3; i++ {
		c.Pulse()
	}
	desc, err := vsensor.Parse([]byte(perm))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Redeploy(desc); err != nil {
		t.Fatalf("Redeploy: %v", err)
	}
	for i := 0; i < 2; i++ {
		c.Pulse()
	}
	if got := mustSensor(t, c, "t0").Output().Len(); got != 5 {
		t.Fatalf("rows after preserved redeploy = %d, want 5", got)
	}
	// A fresh container must replay all five rows from the preserved WAL.
	c.Close()
	c2, err := New(Options{Name: "wal-node-2", Clock: stream.NewManualClock(2_000_000),
		SyncProcessing: true, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	deploy(t, c2, perm)
	if got := mustSensor(t, c2, "t0").Output().Len(); got != 5 {
		t.Errorf("rows replayed after restart = %d, want 5 (WAL lost in redeploy)", got)
	}
}

// TestRedeployFailureKeepsOldServing is the satellite regression test:
// a replacement descriptor that cannot deploy (unknown wrapper) leaves
// the old sensor running and serving — not gone, as the old
// undeploy+deploy implementation did.
func TestRedeployFailureKeepsOldServing(t *testing.T) {
	c := testContainer(t)
	deployChain(t, c, "t0", "t1")
	c.Pulse()

	bad := strings.Replace(rootDescriptor("t0"), `wrapper="timer"`, `wrapper="warp-drive"`, 1)
	desc, err := vsensor.Parse([]byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Redeploy(desc); err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("redeploy with unknown wrapper = %v", err)
	}
	vs, ok := c.Sensor("t0")
	if !ok {
		t.Fatal("old sensor gone after failed redeploy")
	}
	before := vs.Stats().Outputs
	c.Pulse()
	if got := mustSensor(t, c, "t0").Stats().Outputs; got != before+1 {
		t.Errorf("old sensor not serving after failed redeploy: outputs %d → %d", before, got)
	}
	if got := mustSensor(t, c, "t1").Stats().Outputs; got == 0 {
		t.Error("downstream lost its feed after failed redeploy")
	}
}

// TestRedeploySchemaChangeRefusedWithDependents: changing an output
// schema out from under downstream local windows is rejected.
func TestRedeploySchemaChangeRefusedWithDependents(t *testing.T) {
	c := testContainer(t)
	deployChain(t, c, "t0", "t1")

	changed := strings.Replace(rootDescriptor("t0"),
		`<field name="value" type="integer"/>`,
		`<field name="value" type="double"/>`, 1)
	desc, err := vsensor.Parse([]byte(changed))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Redeploy(desc); err == nil || !strings.Contains(err.Error(), "consume it") {
		t.Fatalf("schema change with dependents = %v", err)
	}
	if _, ok := c.Sensor("t0"); !ok {
		t.Fatal("refused redeploy removed the sensor")
	}
}

// TestRedeployCycleRejected: a swap may not close a dependency cycle.
func TestRedeployCycleRejected(t *testing.T) {
	c := testContainer(t)
	deployChain(t, c, "t0", "t1")

	// t0 must not become a consumer of t1 (t1 already consumes t0).
	cyclic := tierDescriptor("t0", "t1")
	desc, err := vsensor.Parse([]byte(cyclic))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Redeploy(desc); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle-closing redeploy = %v", err)
	}
	c.Pulse()
	if got := mustSensor(t, c, "t1").Stats().Outputs; got != 1 {
		t.Errorf("chain broken by refused redeploy: t1 outputs = %d", got)
	}
}

// TestLocalSelfDependencyRejected: validation refuses a sensor whose
// local source names itself.
func TestLocalSelfDependencyRejected(t *testing.T) {
	_, err := vsensor.Parse([]byte(tierDescriptor("self", "self")))
	if err == nil || !strings.Contains(err.Error(), "own sensor") {
		t.Fatalf("self-dependency = %v", err)
	}
}

// TestConcurrentLifecycleRace exercises Deploy/Redeploy/UndeployCascade
// racing Pulse, ad-hoc queries and registered-query sweeps under the
// race detector, including tearing down and rebuilding the middle tier
// of a three-sensor chain while elements flow.
func TestConcurrentLifecycleRace(t *testing.T) {
	c, err := New(Options{Name: "race-node"}) // async: repository pool + supervision live
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deployChain(t, c, "t0", "t1", "t2")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	run(func() { c.Pulse() })
	run(func() { c.PulseBatch(8) })
	run(func() { c.Query(`select count(*) from "t0"`) })
	rng := rand.New(rand.NewSource(42))
	var rngMu sync.Mutex
	run(func() {
		rngMu.Lock()
		sensor := []string{"t0", "t1", "t2"}[rng.Intn(3)]
		rngMu.Unlock()
		if id, err := c.RegisterQuery(sensor, "select count(*) as n from "+strings.ToUpper(sensor), 1, nil); err == nil {
			time.Sleep(time.Millisecond)
			c.UnregisterQuery(id)
		}
	})

	mid, err := vsensor.Parse([]byte(tierDescriptor("t1", "t0")))
	if err != nil {
		t.Fatal(err)
	}
	tail, err := vsensor.Parse([]byte(tierDescriptor("t2", "t1")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := c.Redeploy(mid); err != nil {
			t.Fatalf("iteration %d: redeploy mid: %v", i, err)
		}
		if i%5 == 4 {
			// Tear down the middle of the chain (cascades through t2),
			// then rebuild both tiers.
			if _, err := c.UndeployCascade("t1"); err != nil {
				t.Fatalf("iteration %d: cascade: %v", i, err)
			}
			if err := c.Deploy(mid); err != nil {
				t.Fatalf("iteration %d: rebuild t1: %v", i, err)
			}
			if err := c.Deploy(tail); err != nil {
				t.Fatalf("iteration %d: rebuild t2: %v", i, err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if _, ok := c.Sensor("t2"); !ok {
		t.Fatal("chain incomplete after churn")
	}
}

func mustSensor(t *testing.T, c *Container, name string) *VirtualSensor {
	t.Helper()
	vs, ok := c.Sensor(name)
	if !ok {
		t.Fatalf("sensor %s not deployed", name)
	}
	return vs
}
