package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/notify"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/vsensor"
	"gsn/internal/wrappers"
)

// moteAvgDescriptor mirrors the paper's Figure 1: an averaged
// temperature over a window, fed by a (simulated, pull-only) mote.
const moteAvgDescriptor = `
<virtual-sensor name="avg-temp">
  <life-cycle pool-size="4" />
  <output-structure>
    <field name="TEMPERATURE" type="double"/>
  </output-structure>
  <storage size="50" />
  <input-stream name="in">
    <stream-source alias="src1" storage-size="10">
      <address wrapper="mote">
        <predicate key="sensors" val="temperature"/>
        <predicate key="seed" val="7"/>
      </address>
      <query>select avg(temperature) from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>`

func testContainer(t *testing.T) *Container {
	t.Helper()
	c, err := New(Options{
		Name:           "test-node",
		Clock:          stream.NewManualClock(1_000_000),
		SyncProcessing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func deploy(t *testing.T, c *Container, xml string) {
	t.Helper()
	if err := c.DeployXML([]byte(xml)); err != nil {
		t.Fatalf("DeployXML: %v", err)
	}
}

func TestDeployPulseQuery(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)

	if n := c.Pulse(); n != 1 {
		t.Fatalf("Pulse injected %d", n)
	}
	vs, ok := c.Sensor("avg-temp")
	if !ok {
		t.Fatal("sensor not found")
	}
	st := vs.Stats()
	if st.Triggers != 1 || st.Outputs != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}

	rel, err := c.Query(`select count(*) from "avg-temp"`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if rel.Rows[0][0] != int64(1) {
		t.Errorf("output rows = %v", rel.Rows[0][0])
	}

	// Averaged temperature should be a plausible double (mote reports
	// tenths of °C as integers; AVG yields a float).
	rel2, err := c.Query(`select temperature from "avg-temp"`)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rel2.Rows[0][0].(float64)
	if !ok || v < 100 || v > 350 {
		t.Errorf("temperature = %v (%T)", rel2.Rows[0][0], rel2.Rows[0][0])
	}
}

func TestWindowedAverageConverges(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	for i := 0; i < 30; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("avg-temp")
	st := vs.Stats()
	if st.Outputs != 30 {
		t.Fatalf("outputs = %d", st.Outputs)
	}
	// Source window is 10 elements: the window table must be bounded.
	if st.Sources[0].WindowLive != 10 {
		t.Errorf("source window live = %d, want 10", st.Sources[0].WindowLive)
	}
	// Output storage window is 50.
	if st.OutputLive != 30 {
		t.Errorf("output live = %d, want 30", st.OutputLive)
	}
}

// TestDeployIgnoresRetiredLanesAttr: a descriptor written for the
// removed ingest-lane tier (lanes="auto") still deploys and ingests
// through the one write path under sync="durable"; no lane counter
// survives in the metrics snapshot. The paper's pool-size is ignored
// the same way, even at a value its old validation refused.
func TestDeployIgnoresRetiredLanesAttr(t *testing.T) {
	c, err := New(Options{
		Name:           "durable-node",
		Clock:          stream.NewManualClock(1_000_000),
		SyncProcessing: true,
		DataDir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deploy(t, c, strings.NewReplacer(
		`<storage size="50" />`, `<storage size="50" permanent-storage="true" sync="durable" lanes="auto"/>`,
		`pool-size="4"`, `pool-size="99999"`).Replace(moteAvgDescriptor))

	for i := 0; i < 20; i++ {
		c.Pulse()
	}
	vs, ok := c.Sensor("avg-temp")
	if !ok {
		t.Fatal("sensor not found")
	}
	if st := vs.Stats(); st.Outputs != 20 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for k := range c.MetricsSnapshot() {
		if strings.HasPrefix(k, "lane_") {
			t.Errorf("metrics snapshot still carries %s", k)
		}
	}
	rel, err := c.Query(`select count(*) from "avg-temp"`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != int64(20) {
		t.Errorf("output rows = %v, want 20", rel.Rows[0][0])
	}
}

func TestDeployValidationAtomicity(t *testing.T) {
	c := testContainer(t)
	bad := strings.Replace(moteAvgDescriptor, `wrapper="mote"`, `wrapper="warp-drive"`, 1)
	if err := c.DeployXML([]byte(bad)); err == nil {
		t.Fatal("unknown wrapper deployed")
	}
	// Nothing may remain: the same name must deploy cleanly afterwards.
	if got := c.Store().List(); len(got) != 0 {
		t.Fatalf("tables leaked by failed deploy: %v", got)
	}
	deploy(t, c, moteAvgDescriptor)
}

// twoSourceDescriptor is a two-source stream: the mote source "temps" and a
// second source "lights" whose seed predicate and stream query vary.
func twoSourceDescriptor(lightSeed, streamQuery string) string {
	return fmt.Sprintf(`
<virtual-sensor name="pair">
  <output-structure>
    <field name="t" type="double"/>
    <field name="l" type="double"/>
  </output-structure>
  <input-stream name="rooms">
    <stream-source alias="temps" storage-size="5">
      <address wrapper="mote">
        <predicate key="sensors" val="temperature"/><predicate key="seed" val="1"/>
      </address>
      <query>select avg(temperature) as t from WRAPPER</query>
    </stream-source>
    <stream-source alias="lights" storage-size="5">
      <address wrapper="mote">
        <predicate key="sensors" val="light"/><predicate key="seed" val=%q/>
      </address>
      <query>select avg(light) as l from WRAPPER</query>
    </stream-source>
    <query>%s</query>
  </input-stream>
</virtual-sensor>`, lightSeed, streamQuery)
}

// TestFailedDeployDropsEarlierSourceWindows: a stream whose second
// source cannot be built — before or after its window is created —
// leaves no window behind, so the corrected descriptor deploys without
// a restart.
func TestFailedDeployDropsEarlierSourceWindows(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	before := fmt.Sprint(c.Store().List())
	const query = "select temps.t, lights.l from temps, lights"
	for _, bad := range []string{
		twoSourceDescriptor("notanint", query),
		strings.Replace(twoSourceDescriptor("2", query), `val="light"/>`,
			`val="light"/><predicate key="gap-timeout" val="soon"/>`, 1),
	} {
		if err := c.DeployXML([]byte(bad)); err == nil {
			t.Fatalf("a source that cannot be built deployed:\n%s", bad)
		}
		if after := fmt.Sprint(c.Store().List()); after != before {
			t.Fatalf("failed deploy left tables: %s, was %s", after, before)
		}
	}
	deploy(t, c, twoSourceDescriptor("2", query))
}

// TestStreamQueryRefusedAtDeploy: a stream query that does not bind
// over its sources' results, or cannot fill the output structure, is
// refused at deploy, naming the sensor and the stream, and leaves no
// table behind; so is a source query whose result has no layout.
func TestStreamQueryRefusedAtDeploy(t *testing.T) {
	c := testContainer(t)
	for _, q := range []string{
		"select nosuch from temps, lights",
		"select temps.t, lights.l from temps join lights on temps.t = lights.l",
		"select temps.t from temps, lights",
		"select * from temps, temps",
	} {
		err := c.DeployXML([]byte(twoSourceDescriptor("2", q)))
		if err == nil || !strings.Contains(err.Error(), "PAIR/rooms: stream query refused") {
			t.Errorf("%s: deploy error = %v", q, err)
		}
		if got := c.Store().List(); len(got) != 0 {
			t.Fatalf("%s: refused deploy left tables %v", q, got)
		}
	}
	noLayout := strings.Replace(twoSourceDescriptor("2", "select temps.t, lights.l from temps, lights"),
		"select avg(light) as l from WRAPPER", "select q.* from (select * from WRAPPER) d", 1)
	if err := c.DeployXML([]byte(noLayout)); err == nil || !strings.Contains(err.Error(), "PAIR/rooms/LIGHTS: source query") {
		t.Errorf("source without a layout: deploy error = %v", err)
	}
	if got := c.Store().List(); len(got) != 0 {
		t.Fatalf("refused deploy left tables %v", got)
	}
	deploy(t, c, twoSourceDescriptor("2", "select temps.t, lights.l from temps, lights"))
}

// TestRedeployToUnboundStreamQueryRestores: redeploying a running
// sensor to a stream query that does not bind is refused on both
// redeploy paths — the preserving swap (same output structure) and the
// full replace — with the old configuration still serving.
func TestRedeployToUnboundStreamQueryRestores(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	for _, bad := range []string{
		strings.Replace(moteAvgDescriptor, "select * from src1", "select nosuch from src1", 1),
		strings.NewReplacer("select * from src1", "select nosuch from src1",
			`name="TEMPERATURE"`, `name="CELSIUS"`).Replace(moteAvgDescriptor),
	} {
		desc, err := vsensor.Parse([]byte(bad))
		if err != nil {
			t.Fatal(err)
		}
		err = c.Redeploy(desc)
		if err == nil || !strings.Contains(err.Error(), "still serving") {
			t.Fatalf("Redeploy error = %v", err)
		}
		vs, ok := c.Sensor("avg-temp")
		if !ok {
			t.Fatal("sensor gone after a failed redeploy")
		}
		outputs := vs.Stats().Outputs
		for i := 0; i < 3; i++ {
			c.Pulse()
		}
		if st := vs.Stats(); st.Outputs != outputs+3 || st.Errors != 0 {
			t.Fatalf("sensor after a refused redeploy: %+v, want %d outputs", st, outputs+3)
		}
	}
}

// twoFieldDescriptor is moteAvgDescriptor with a second output field,
// so that a stream query can yield fewer columns than the output.
var twoFieldDescriptor = strings.NewReplacer(
	`<field name="TEMPERATURE" type="double"/>`,
	`<field name="TEMPERATURE" type="double"/><field name="N" type="integer"/>`,
	"select avg(temperature) from WRAPPER",
	"select avg(temperature) as temperature, count(*) as n from WRAPPER").Replace(moteAvgDescriptor)

// TestRefusedRedeployKeepsTheRunningSensor: a replacement that cannot
// be built is refused while the running sensor serves on untouched, on
// the preserving path and on the full replace alike — the same runtime,
// its windows' rows, the store's tables, the registered queries — and
// the next pulse produces an output.
func TestRefusedRedeployKeepsTheRunningSensor(t *testing.T) {
	fewerColumns := strings.Replace(twoFieldDescriptor, "select * from src1", "select temperature from src1", 1)
	cases := []struct {
		name string
		xml  string
		edit func(*vsensor.Descriptor)
	}{
		{name: "unknown wrapper kind",
			xml: strings.Replace(twoFieldDescriptor, `wrapper="mote"`, `wrapper="warp-drive"`, 1)},
		{name: "bad source storage-size", xml: twoFieldDescriptor,
			edit: func(d *vsensor.Descriptor) { d.Streams[0].Sources[0].StorageSize = "ten rows" }},
		{name: "unknown sync policy", xml: twoFieldDescriptor,
			edit: func(d *vsensor.Descriptor) { d.Storage.Sync = "sometimes" }},
		{name: "bad flush-interval", xml: twoFieldDescriptor,
			edit: func(d *vsensor.Descriptor) { d.Storage.FlushInterval = "soon" }},
		{name: "stream query does not bind",
			xml: strings.Replace(twoFieldDescriptor, "select * from src1", "select nosuch from src1", 1)},
		{name: "fewer columns than the output", xml: fewerColumns},
		{name: "fewer columns with a schema change",
			xml: strings.Replace(fewerColumns, `name="N" type="integer"`, `name="N" type="double"`, 1)},
	}
	c := testContainer(t)
	deploy(t, c, twoFieldDescriptor)
	if _, err := c.RegisterQuery("avg-temp", "select max(n) from \"avg-temp\"", 1, func(*sqlengine.Relation) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.Pulse()
	}
	rows := func(t *testing.T, table string) []string {
		t.Helper()
		rel, err := c.Query("select * from \"" + table + "\"")
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rel.Rows))
		for i, r := range rel.Rows {
			out[i] = fmt.Sprint(r...)
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			desc, err := vsensor.Parse([]byte(tc.xml))
			if err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				tc.edit(desc)
			}
			vs := mustSensor(t, c, "avg-temp")
			window, output := rows(t, "AVG-TEMP__IN__SRC1"), rows(t, "AVG-TEMP")
			tables, queries, st := fmt.Sprint(c.Store().List()), c.QueryRepositoryRef().Count(), vs.Stats()

			err = c.Redeploy(desc)
			if err == nil || !strings.Contains(err.Error(), "still serving") {
				t.Errorf("Redeploy error = %v", err)
			}
			if got := mustSensor(t, c, "avg-temp"); got != vs {
				t.Errorf("the refused redeploy replaced the runtime")
			}
			if got := rows(t, "AVG-TEMP__IN__SRC1"); fmt.Sprint(got) != fmt.Sprint(window) {
				t.Errorf("source window %d rows → %d", len(window), len(got))
			}
			if got := rows(t, "AVG-TEMP"); fmt.Sprint(got) != fmt.Sprint(output) {
				t.Errorf("output %d rows → %d", len(output), len(got))
			}
			if got := fmt.Sprint(c.Store().List()); got != tables {
				t.Errorf("tables %s → %s", tables, got)
			}
			if got := c.QueryRepositoryRef().Count(); got != queries {
				t.Errorf("registered queries %d → %d", queries, got)
			}
			if got := vs.Stats().Dropped; got != st.Dropped {
				t.Errorf("dropped %d → %d", st.Dropped, got)
			}
			c.Pulse()
			if got := vs.Stats(); got.Outputs != st.Outputs+1 || got.Errors != 0 {
				t.Errorf("after a pulse %+v, want %d outputs", got, st.Outputs+1)
			}
		})
	}
}

// TestRedeployConstructsEachWrapperOnce: a preserving redeploy builds
// its replacement once — each wrapper factory is called once, not once
// to check the descriptor and again to run it.
func TestRedeployConstructsEachWrapperOnce(t *testing.T) {
	var calls atomic.Int64
	reg := wrappers.Default().Clone()
	if err := reg.Register("counted-mote", func(cfg wrappers.Config) (wrappers.Wrapper, error) {
		calls.Add(1)
		return wrappers.Default().New("mote", cfg)
	}); err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Clock: stream.NewManualClock(1_000_000), Registry: reg, SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	counted := strings.Replace(moteAvgDescriptor, `wrapper="mote"`, `wrapper="counted-mote"`, 1)
	deploy(t, c, counted)
	desc, err := vsensor.Parse([]byte(strings.Replace(counted, `val="7"`, `val="8"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	if err := c.Redeploy(desc); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Counter("redeploys_preserved").Value(); got != 1 {
		t.Fatalf("redeploys_preserved = %d, want 1", got)
	}
	if got := calls.Load() - before; got != 1 {
		t.Fatalf("the redeploy called the wrapper factory %d times, want 1", got)
	}
}

// noStartWrapper is a mote whose Start fails: the one wrapper step a
// build cannot check.
type noStartWrapper struct{ wrappers.Wrapper }

func (noStartWrapper) Start(wrappers.EmitFunc) error { return fmt.Errorf("device busy") }

// TestRedeployRestoresWhenTheReplacementCannotStart: a wrapper whose
// Start fails is found only after the old runtime has stopped, so the
// old configuration is rebuilt — adopting the preserved output table on
// the preserving path — and serves on.
func TestRedeployRestoresWhenTheReplacementCannotStart(t *testing.T) {
	reg := wrappers.Default().Clone()
	if err := reg.Register("no-start", func(cfg wrappers.Config) (wrappers.Wrapper, error) {
		w, err := wrappers.Default().New("mote", cfg)
		return noStartWrapper{w}, err
	}); err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Clock: stream.NewManualClock(1_000_000), Registry: reg, SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deploy(t, c, moteAvgDescriptor)
	if _, err := c.RegisterQuery("avg-temp", `select count(*) from "avg-temp"`, 1, func(*sqlengine.Relation) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Pulse()
	}
	noStart := strings.Replace(moteAvgDescriptor, `wrapper="mote"`, `wrapper="no-start"`, 1)
	for _, tc := range []struct {
		name, xml string
		rows      int // output rows after the restore
	}{
		{"preserving", noStart, 5},
		{"full replace", strings.Replace(noStart, `<storage size="50" />`, `<storage size="40" />`, 1), 0},
	} {
		desc, err := vsensor.Parse([]byte(tc.xml))
		if err != nil {
			t.Fatal(err)
		}
		err = c.Redeploy(desc)
		if err == nil || !strings.Contains(err.Error(), "old configuration restored") || !strings.Contains(err.Error(), "device busy") {
			t.Fatalf("%s: Redeploy error = %v", tc.name, err)
		}
		vs := mustSensor(t, c, "avg-temp")
		if got := vs.Output().Len(); got != tc.rows {
			t.Fatalf("%s: restored output holds %d rows, want %d", tc.name, got, tc.rows)
		}
		c.Pulse()
		if st := vs.Stats(); st.Outputs != 1 || st.Errors != 0 {
			t.Fatalf("%s: restored sensor after a pulse: %+v", tc.name, st)
		}
	}
	if got := fmt.Sprint(c.Store().List()); got != "[AVG-TEMP AVG-TEMP__IN__SRC1]" {
		t.Errorf("tables after the restores: %s", got)
	}
}

func TestDuplicateDeployRejected(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	if err := c.DeployXML([]byte(moteAvgDescriptor)); err == nil {
		t.Fatal("duplicate deploy succeeded")
	}
}

func TestUndeployCleansUp(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	c.Pulse()
	if err := c.Undeploy("AVG-TEMP"); err != nil {
		t.Fatalf("Undeploy: %v", err)
	}
	if _, ok := c.Sensor("avg-temp"); ok {
		t.Error("sensor still visible")
	}
	if got := c.Store().List(); len(got) != 0 {
		t.Errorf("tables remain: %v", got)
	}
	if len(c.Directory().Query(map[string]string{"name": "AVG-TEMP"})) != 0 {
		t.Error("directory entry remains")
	}
	if err := c.Undeploy("avg-temp"); err == nil {
		t.Error("double undeploy succeeded")
	}
}

func TestRedeployChangesConfiguration(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	c.Pulse()

	changed := strings.Replace(moteAvgDescriptor, `storage-size="10"`, `storage-size="3"`, 1)
	desc, err := vsensor.Parse([]byte(changed))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Redeploy(desc); err != nil {
		t.Fatalf("Redeploy: %v", err)
	}
	for i := 0; i < 10; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("avg-temp")
	if live := vs.Stats().Sources[0].WindowLive; live != 3 {
		t.Errorf("window after redeploy = %d, want 3", live)
	}
	// Redeploy of a not-yet-deployed sensor acts as Deploy.
	if err := c.Undeploy("avg-temp"); err != nil {
		t.Fatal(err)
	}
	if err := c.Redeploy(desc); err != nil {
		t.Fatalf("Redeploy-as-deploy: %v", err)
	}
}

func TestDirectoryPublication(t *testing.T) {
	c := testContainer(t)
	withMeta := strings.Replace(moteAvgDescriptor, "<life-cycle",
		`<metadata><predicate key="type" val="temperature"/><predicate key="location" val="bc143"/></metadata><life-cycle`, 1)
	deploy(t, c, withMeta)
	got := c.Directory().Query(map[string]string{"type": "temperature", "location": "bc143"})
	if len(got) != 1 || got[0].Sensor != "AVG-TEMP" {
		t.Fatalf("directory query = %+v", got)
	}
}

func TestNotificationsOnOutput(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	var events atomic.Int64
	_, err := c.Subscribe("avg-temp", notify.FuncChannel{Fn: func(ev notify.Event) error {
		if ev.Sensor != "AVG-TEMP" {
			t.Errorf("event sensor = %q", ev.Sensor)
		}
		events.Add(1)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Pulse()
	}
	if !c.Notifier().Flush(time.Second) {
		t.Fatal("notifications did not drain")
	}
	if events.Load() != 5 {
		t.Errorf("events = %d, want 5", events.Load())
	}
}

func TestClientQueriesEvaluatePerTrigger(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	var results atomic.Int64
	id, err := c.RegisterQuery("avg-temp",
		`select temperature from "avg-temp" where temperature > 0`, 1,
		func(rel *sqlengine.Relation) { results.Add(int64(len(rel.Rows))) })
	if err != nil {
		t.Fatalf("RegisterQuery: %v", err)
	}
	for i := 0; i < 4; i++ {
		c.Pulse()
	}
	if results.Load() == 0 {
		t.Error("client query never produced rows")
	}
	stats := c.QueryRepositoryRef().Stats()
	if len(stats) != 1 || stats[0].Evaluations != 4 || stats[0].Errors != 0 {
		t.Errorf("query stats = %+v", stats)
	}
	if err := c.UnregisterQuery(id); err != nil {
		t.Fatal(err)
	}
	before := results.Load()
	c.Pulse()
	if results.Load() != before {
		t.Error("unregistered query still evaluates")
	}
	// Queries against undeployed sensors are rejected.
	if _, err := c.RegisterQuery("ghost", "select 1", 1, nil); err == nil {
		t.Error("query on undeployed sensor registered")
	}
}

func TestClientQuerySampling(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	if _, err := c.RegisterQuery("avg-temp", `select * from "avg-temp"`, 0.25, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		c.Pulse()
	}
	stats := c.QueryRepositoryRef().Stats()
	if ev := stats[0].Evaluations; ev < 50 || ev > 150 {
		t.Errorf("evaluations = %d of 400 at sampling 0.25", ev)
	}
}

func TestMultiSourceJoin(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, `
<virtual-sensor name="combined">
  <output-structure>
    <field name="t" type="double"/>
    <field name="l" type="double"/>
  </output-structure>
  <input-stream name="in">
    <stream-source alias="temps" storage-size="5">
      <address wrapper="mote">
        <predicate key="sensors" val="temperature"/><predicate key="seed" val="1"/>
      </address>
      <query>select avg(temperature) as t from WRAPPER</query>
    </stream-source>
    <stream-source alias="lights" storage-size="5">
      <address wrapper="mote">
        <predicate key="sensors" val="light"/><predicate key="seed" val="2"/>
      </address>
      <query>select avg(light) as l from WRAPPER</query>
    </stream-source>
    <query>select temps.t, lights.l from temps, lights</query>
  </input-stream>
</virtual-sensor>`)
	c.Pulse() // both sources produce once; two triggers fire
	vs, _ := c.Sensor("combined")
	st := vs.Stats()
	if st.Errors != 0 {
		t.Fatalf("errors: %+v (last: %s)", st, st.LastError)
	}
	if st.Outputs < 2 {
		t.Fatalf("outputs = %d", st.Outputs)
	}
	// The first trigger fires before the second source has any data
	// (its window is empty → NULL); the second trigger sees both.
	rel, err := c.Query(`select t, l from combined where l is not null and t is not null`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 {
		t.Errorf("complete combined rows = %v", rel.Rows)
	}
}

func TestSamplingRateReducesTriggers(t *testing.T) {
	c := testContainer(t)
	sampled := strings.Replace(moteAvgDescriptor, `storage-size="10"`,
		`storage-size="10" sampling-rate="0.2"`, 1)
	deploy(t, c, sampled)
	for i := 0; i < 200; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("avg-temp")
	st := vs.Stats()
	if st.Triggers < 15 || st.Triggers > 85 {
		t.Errorf("triggers = %d of 200 at sampling 0.2", st.Triggers)
	}
	src := st.Sources[0]
	if src.Sampled.In != 200 || src.Sampled.Out != st.Triggers {
		t.Errorf("sampler stats = %+v, triggers %d", src.Sampled, st.Triggers)
	}
}

func TestStreamCountBound(t *testing.T) {
	c := testContainer(t)
	bounded := strings.Replace(moteAvgDescriptor, `<input-stream name="in">`,
		`<input-stream name="in" count="5">`, 1)
	deploy(t, c, bounded)
	for i := 0; i < 20; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("avg-temp")
	if st := vs.Stats(); st.Triggers != 5 {
		t.Errorf("triggers = %d with count=5", st.Triggers)
	}
}

func TestRateBound(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	c, err := New(Options{Clock: clock, SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// rate=2/s: pulsing every 100 simulated ms must shed ~80%.
	limited := strings.Replace(moteAvgDescriptor, `<input-stream name="in">`,
		`<input-stream name="in" rate="2">`, 1)
	if err := c.DeployXML([]byte(limited)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		clock.Advance(100 * time.Millisecond)
		c.Pulse()
	}
	vs, _ := c.Sensor("avg-temp")
	st := vs.Stats()
	// 10 simulated seconds at 2/s ≈ 20 triggers (+1 initial token).
	if st.Triggers < 15 || st.Triggers > 25 {
		t.Errorf("triggers = %d, want ≈20", st.Triggers)
	}
}

func TestAsyncPoolProcessing(t *testing.T) {
	c, err := New(Options{Clock: stream.SystemClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeployXML([]byte(moteAvgDescriptor)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("avg-temp")
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := vs.Stats()
		if st.Outputs+st.Dropped+st.Coalesced >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := vs.Stats(); st.Errors != 0 {
		t.Errorf("errors = %d (%s)", st.Errors, st.LastError)
	}
}

func TestContainerCloseIdempotent(t *testing.T) {
	c, err := New(Options{Clock: stream.NewManualClock(0), SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeployXML([]byte(moteAvgDescriptor)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.DeployXML([]byte(moteAvgDescriptor)); err == nil {
		t.Error("deploy after close succeeded")
	}
}

func TestQueryUnknownTable(t *testing.T) {
	c := testContainer(t)
	if _, err := c.Query("select * from nothing_here"); err == nil {
		t.Error("query against missing table succeeded")
	}
}

func fixtureRel(names []string, rows ...[]stream.Value) *sqlengine.Relation {
	rel := sqlengine.NewRelation(names...)
	for _, row := range rows {
		rel.AddRow(row...)
	}
	return rel
}

func TestElementsFromRelationMapping(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeInt},
		stream.Field{Name: "b", Type: stream.TypeString},
	)
	convert := func(rel *sqlengine.Relation, now stream.Timestamp) ([]stream.Element, error) {
		m, err := newOutputMap(schema, rel.Cols)
		if err != nil {
			return nil, err
		}
		return m.elements(schema, rel.Rows, now)
	}
	// Name-based (shuffled column order) with TIMED honoured.
	rel := fixtureRel([]string{"B", "A", "TIMED"},
		[]stream.Value{"x", int64(1), int64(12345)})
	elems, err := convert(rel, 999)
	if err != nil {
		t.Fatal(err)
	}
	if elems[0].Value(0) != int64(1) || elems[0].Value(1) != "x" {
		t.Errorf("name-based mapping = %v", elems[0])
	}
	if elems[0].Timestamp() != 12345 {
		t.Errorf("TIMED not honoured: %v", elems[0].Timestamp())
	}
	// Positional (non-matching names).
	rel2 := fixtureRel([]string{"COL1", "COL2"}, []stream.Value{int64(5), "y"})
	elems2, err := convert(rel2, 777)
	if err != nil {
		t.Fatal(err)
	}
	if elems2[0].Value(0) != int64(5) || elems2[0].Timestamp() != 777 {
		t.Errorf("positional mapping = %v", elems2[0])
	}
	// Arity failure, found from the columns alone.
	if _, err := newOutputMap(schema, fixtureRel([]string{"ONLY"}).Cols); err == nil {
		t.Error("narrow relation accepted")
	}
	// Type failure.
	rel4 := fixtureRel([]string{"A", "B"}, []stream.Value{"not-an-int", "z"})
	if _, err := convert(rel4, 0); err == nil {
		t.Error("type-mismatched row accepted")
	}
}

func TestProcessingPanicRecovered(t *testing.T) {
	// A query that errors at runtime (not parse time) must not take the
	// worker down: subsequent pulses keep working.
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	for i := 0; i < 3; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("avg-temp")
	if st := vs.Stats(); st.Outputs != 3 {
		t.Fatalf("outputs = %d", st.Outputs)
	}
}

func ExampleContainer_Query() {
	clock := stream.NewManualClock(1_000_000)
	c, _ := New(Options{Clock: clock, SyncProcessing: true})
	defer c.Close()
	c.DeployXML([]byte(`
<virtual-sensor name="ticks">
  <output-structure><field name="tick" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="10">
      <address wrapper="timer"/>
      <query>select tick from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`))
	for i := 0; i < 3; i++ {
		c.Pulse()
	}
	rel, _ := c.Query("select max(tick) from ticks")
	fmt.Println(rel.Rows[0][0])
	// Output: 3
}
