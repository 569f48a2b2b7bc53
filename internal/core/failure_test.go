package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gsn/internal/stream"
	"gsn/internal/vsensor"
	"gsn/internal/wrappers"
)

// flakyWrapper fails Produce a configurable number of times and then
// recovers; it also counts Start/Stop calls so supervision behaviour is
// observable.
type flakyWrapper struct {
	schema *stream.Schema
	clock  stream.Clock

	mu       sync.Mutex
	failures int
	starts   int
	stops    int
	produced int
}

func (f *flakyWrapper) Kind() string           { return "flaky" }
func (f *flakyWrapper) Schema() *stream.Schema { return f.schema }

func (f *flakyWrapper) Start(emit wrappers.EmitFunc) error {
	f.mu.Lock()
	f.starts++
	f.mu.Unlock()
	return nil
}

func (f *flakyWrapper) Stop() error {
	f.mu.Lock()
	f.stops++
	f.mu.Unlock()
	return nil
}

func (f *flakyWrapper) Produce() (stream.Element, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures > 0 {
		f.failures--
		return stream.Element{}, fmt.Errorf("flaky: device read failed")
	}
	f.produced++
	return stream.NewElement(f.schema, f.clock.Now(), int64(f.produced))
}

func registryWithFlaky(t *testing.T, clock stream.Clock, failures int) (*wrappers.Registry, *flakyWrapper) {
	t.Helper()
	schema := stream.MustSchema(stream.Field{Name: "v", Type: stream.TypeInt})
	fw := &flakyWrapper{schema: schema, clock: clock, failures: failures}
	reg := wrappers.Default().Clone()
	if err := reg.Register("flaky", func(wrappers.Config) (wrappers.Wrapper, error) {
		return fw, nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg, fw
}

const flakyDescriptor = `
<virtual-sensor name="fragile">
  <output-structure><field name="v" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="flaky"/>
      <query>select v from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`

func TestWrapperReadFailuresAreCountedNotFatal(t *testing.T) {
	clock := stream.NewManualClock(0)
	reg, fw := registryWithFlaky(t, clock, 3)
	c, err := New(Options{Clock: clock, Registry: reg, SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeployXML([]byte(flakyDescriptor)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("fragile")
	st := vs.Stats()
	if st.Errors != 3 {
		t.Errorf("errors = %d, want 3 recorded read failures", st.Errors)
	}
	if st.Outputs != 3 {
		t.Errorf("outputs = %d, want 3 after recovery", st.Outputs)
	}
	if !strings.Contains(st.LastError, "device read failed") {
		t.Errorf("last error = %q", st.LastError)
	}
	_ = fw
}

func TestRuntimeQueryErrorDoesNotKillSensor(t *testing.T) {
	// sum(tag) over a varchar column parses fine but fails at runtime
	// once data arrives; the life-cycle manager must record the error
	// and keep the sensor alive.
	c := testContainer(t)
	err := c.DeployXML([]byte(`
<virtual-sensor name="bad-agg">
  <output-structure><field name="x" type="double"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="5">
      <address wrapper="rfid">
        <predicate key="presence" val="1"/>
        <predicate key="seed" val="2"/>
      </address>
      <query>select sum(tag_id) as x from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("bad-agg")
	st := vs.Stats()
	if st.Errors == 0 {
		t.Fatal("runtime aggregate error not recorded")
	}
	if st.Outputs != 0 {
		t.Errorf("outputs = %d for failing query", st.Outputs)
	}
	// The container itself is healthy: deploy something else.
	if err := c.DeployXML([]byte(moteAvgDescriptor)); err != nil {
		t.Fatal(err)
	}
}

func TestGapDetectionAndWrapperRestart(t *testing.T) {
	// Async container with a gap-timeout on the source: once the
	// wrapper goes silent, the supervision loop must restart it.
	reg, fw := registryWithFlaky(t, stream.SystemClock(), 0)
	c, err := New(Options{
		Registry:          reg,
		SuperviseInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.DeployXML([]byte(strings.Replace(flakyDescriptor,
		`<address wrapper="flaky"/>`,
		`<address wrapper="flaky"><predicate key="gap-timeout" val="50"/></address>`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Never pulse: the source stays silent past the 50ms gap-timeout.
	deadline := time.Now().Add(3 * time.Second)
	for {
		fw.mu.Lock()
		restarted := fw.starts >= 2 && fw.stops >= 1
		fw.mu.Unlock()
		if restarted {
			break
		}
		if time.Now().After(deadline) {
			fw.mu.Lock()
			t.Fatalf("wrapper not restarted: starts=%d stops=%d", fw.starts, fw.stops)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.Metrics().Counter("wrapper_restarts").Value() == 0 {
		t.Error("restart metric not incremented")
	}
}

func TestPermanentStorageViaDescriptor(t *testing.T) {
	dir := t.TempDir()
	clock := stream.NewManualClock(1_000_000)
	persistent := strings.Replace(moteAvgDescriptor, `<storage size="50" />`,
		`<storage permanent-storage="true" size="50"/>`, 1)

	c1, err := New(Options{Clock: clock, DataDir: dir, SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.DeployXML([]byte(persistent)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c1.Pulse()
	}
	c1.Close()

	// A new container over the same data dir replays the output log.
	c2, err := New(Options{Clock: clock, DataDir: dir, SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.DeployXML([]byte(persistent)); err != nil {
		t.Fatal(err)
	}
	rel, err := c2.Query(`select count(*) from "avg-temp"`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != int64(4) {
		t.Errorf("replayed rows = %v, want 4", rel.Rows[0][0])
	}
	// The log file is on disk under the canonical sensor name.
	if _, err := os.Stat(filepath.Join(dir, "AVG-TEMP.gsnlog")); err != nil {
		t.Errorf("log file missing: %v", err)
	}
}

func TestFileNotificationViaDescriptor(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "events.jsonl")
	withNotify := strings.Replace(moteAvgDescriptor, `<storage size="50" />`,
		fmt.Sprintf(`<storage size="50"/><notification channel="file" target=%q/>`, target), 1)
	c := testContainer(t)
	if err := c.DeployXML([]byte(withNotify)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Pulse()
	}
	if !c.Notifier().Flush(2 * time.Second) {
		t.Fatal("notifications did not drain")
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Errorf("notification file has %d lines, want 3", len(lines))
	}
}

func TestDisconnectBufferIntegration(t *testing.T) {
	// Directly exercise the per-source buffer through the sensor's
	// runtime: disconnect, feed, reconnect, and confirm ordered replay
	// into the window.
	c := testContainer(t)
	buffered := strings.Replace(moteAvgDescriptor, `storage-size="10"`,
		`storage-size="10" disconnect-buffer="5"`, 1)
	if err := c.DeployXML([]byte(buffered)); err != nil {
		t.Fatal(err)
	}
	vs, _ := c.Sensor("avg-temp")
	src := vs.streams[0].sources[0]

	src.buffer.SetConnected(false)
	for i := 0; i < 3; i++ {
		c.Pulse()
	}
	if got := vs.Stats().Sources[0].WindowLive; got != 0 {
		t.Fatalf("window received %d elements while disconnected", got)
	}
	if src.buffer.Buffered() != 3 {
		t.Fatalf("buffered = %d", src.buffer.Buffered())
	}
	src.buffer.SetConnected(true)
	if got := vs.Stats().Sources[0].WindowLive; got != 3 {
		t.Fatalf("window has %d after reconnect, want 3", got)
	}
	if vs.Stats().Triggers != 3 {
		t.Errorf("triggers = %d", vs.Stats().Triggers)
	}
}

func TestHoldLastRepairViaDescriptor(t *testing.T) {
	// A mote with 100% failure produces nothing; instead use the csv
	// wrapper with missing cells and the repair=hold-last predicate.
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(csvPath, []byte("v\n10\n\n30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := testContainer(t)
	err := c.DeployXML([]byte(fmt.Sprintf(`
<virtual-sensor name="repaired">
  <output-structure><field name="v" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="10">
      <address wrapper="csv">
        <predicate key="file" val=%q/>
        <predicate key="types" val="integer"/>
        <predicate key="repair" val="hold-last"/>
      </address>
      <query>select v from WRAPPER order by timed</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, csvPath)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Pulse()
	}
	rel, err := c.Query("select v from repaired order by timed")
	if err != nil {
		t.Fatal(err)
	}
	// Middle NULL row must have been repaired to the held value 10.
	for _, row := range rel.Rows {
		if row[0] == nil {
			t.Errorf("NULL survived hold-last repair: %v", rel.Rows)
		}
	}
}

func TestDescriptorRoundTripThroughRedeploy(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, moteAvgDescriptor)
	vs, _ := c.Sensor("avg-temp")
	// Export the running descriptor, re-parse it, redeploy it.
	data, err := vs.Descriptor().XML()
	if err != nil {
		t.Fatal(err)
	}
	desc, err := vsensor.Parse(data)
	if err != nil {
		t.Fatalf("exported descriptor does not re-parse: %v", err)
	}
	if err := c.Redeploy(desc); err != nil {
		t.Fatalf("redeploy of exported descriptor: %v", err)
	}
	c.Pulse()
	if st, _ := c.Sensor("avg-temp"); st.Stats().Outputs != 1 {
		t.Errorf("redeployed sensor stats = %+v", st.Stats())
	}
}

// slowDescriptor's source query joins the window with itself, so an
// evaluation takes a while; t is the newest timestamp it saw.
const slowDescriptor = `
<virtual-sensor name="slow">
  <output-structure><field name="n" type="integer"/><field name="t" type="integer"/></output-structure>
  <storage size="1000"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="100">
      <address wrapper="random-walk"><predicate key="seed" val="1"/></address>
      <query>select count(*) as n, max(a.timed) as t from WRAPPER a, WRAPPER b where a.value >= b.value</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`

// TestConcurrentArrivalsEvaluateOneAtATime: several goroutines deliver
// to one slow stream at once. Its evaluations never overlap — every
// output saw at least the window the one before it saw — every trigger
// is an output or coalesced into one, arrivals did coalesce, and the
// last output covers the last arrival.
func TestConcurrentArrivalsEvaluateOneAtATime(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	c, err := New(Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deploy(t, c, slowDescriptor)
	vs, _ := c.Sensor("slow")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				clock.Advance(time.Millisecond)
				vs.Pulse()
			}
		}()
	}
	wg.Wait()
	// The last arrivals may still be caught up on the stream's own
	// goroutine.
	waitFor(t, func() bool {
		st := vs.Stats()
		return st.Outputs+st.Coalesced+st.Dropped+st.Errors >= st.Triggers
	})
	st := vs.Stats()
	if st.Errors != 0 || st.Dropped != 0 || st.Triggers != 200 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Outputs+st.Coalesced != st.Triggers {
		t.Errorf("outputs %d + coalesced %d != triggers %d", st.Outputs, st.Coalesced, st.Triggers)
	}
	if st.Coalesced == 0 {
		t.Error("no arrival met a running evaluation")
	}
	outs := vs.Output().Snapshot()
	for i := 1; i < len(outs); i++ {
		if outs[i].Value(1).(int64) < outs[i-1].Value(1).(int64) {
			t.Fatalf("output %d saw an older window than output %d: evaluations overlapped", i, i-1)
		}
	}
	var newest int64
	for _, e := range vs.streams[0].sources[0].table.Snapshot() {
		newest = max(newest, int64(e.Timestamp()))
	}
	if last := outs[len(outs)-1].Value(1).(int64); last != newest {
		t.Errorf("last output saw arrivals up to %d, the window holds %d", last, newest)
	}
}

// TestRedeployWaitsForInlineEvaluation: a redeploy swap waits for the
// evaluation a producing goroutine is running on the old runtime, under
// SyncProcessing too, so once Redeploy returns the old runtime writes
// no more output.
func TestRedeployWaitsForInlineEvaluation(t *testing.T) {
	c, err := New(Options{SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deploy(t, c, slowDescriptor)
	old, _ := c.Sensor("slow")
	for i := 0; i < 100; i++ {
		old.Pulse() // fill the window: every evaluation is a full self-join
	}
	desc, err := vsensor.Parse([]byte(slowDescriptor))
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				old.Pulse()
			}
		}
	}()
	base := old.Stats().Outputs
	waitFor(t, func() bool { return old.Stats().Outputs > base+2 })
	if err := c.Redeploy(desc); err != nil {
		t.Fatal(err)
	}
	after := old.Stats().Outputs
	close(stop)
	<-done // the pulse in flight when Redeploy returned has finished
	if got := old.Stats().Outputs; got != after {
		t.Errorf("the old runtime wrote %d outputs after Redeploy returned", got-after)
	}
}

func TestSlideTriggersEveryNth(t *testing.T) {
	c := testContainer(t)
	slid := strings.Replace(moteAvgDescriptor, `storage-size="10"`,
		`storage-size="10" slide="3"`, 1)
	deploy(t, c, slid)
	for i := 0; i < 9; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("avg-temp")
	st := vs.Stats()
	if st.Triggers != 3 {
		t.Errorf("triggers = %d with slide=3 over 9 arrivals, want 3", st.Triggers)
	}
	// The window still advanced on every arrival.
	if st.Sources[0].Inserted != 9 {
		t.Errorf("window inserts = %d, want 9", st.Sources[0].Inserted)
	}
}

func TestSlideValidation(t *testing.T) {
	bad := strings.Replace(moteAvgDescriptor, `storage-size="10"`,
		`storage-size="10" slide="-2"`, 1)
	c := testContainer(t)
	if err := c.DeployXML([]byte(bad)); err == nil {
		t.Error("negative slide accepted")
	}
}
