package core

import (
	"fmt"
	"testing"
	"time"

	"gsn/internal/stream"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pipelineDescriptor builds a one-source sensor whose source query is
// given verbatim; both sensors in the equivalence test share the mote
// wrapper seed so they see identical readings.
func pipelineDescriptor(name, sourceQuery string) string {
	return fmt.Sprintf(`
<virtual-sensor name=%q>
  <output-structure>
    <field name="n" type="integer"/>
    <field name="a" type="double"/>
  </output-structure>
  <storage size="100"/>
  <input-stream name="in">
    <stream-source alias="src" storage-size="8">
      <address wrapper="mote">
        <predicate key="sensors" val="temperature"/>
        <predicate key="seed" val="11"/>
      </address>
      <query>%s</query>
    </stream-source>
    <query>select * from src</query>
  </input-stream>
</virtual-sensor>`, name, sourceQuery)
}

// TestIncrementalPipelineMatchesGeneral deploys the same workload
// two ways — incremental aggregates (agg-only query) and
// the general engine (derived-table FROM the compiler rejects) — and
// checks the incremental and general tiers produce identical outputs
// element for element.
func TestIncrementalPipelineMatchesGeneral(t *testing.T) {
	c := testContainer(t)
	aggQuery := "select count(temperature) as n, avg(temperature) as a from wrapper"
	generalQuery := "select count(temperature) as n, avg(temperature) as a from (select * from wrapper) wrapper"
	deploy(t, c, pipelineDescriptor("fast", aggQuery))
	deploy(t, c, pipelineDescriptor("slow", generalQuery))

	fast, _ := c.Sensor("fast")
	slow, _ := c.Sensor("slow")
	if fast.streams[0].sources[0].query.agg == nil {
		t.Fatal("agg-only source query should run incrementally")
	}
	if slow.streams[0].sources[0].query.plan != nil {
		t.Fatal("derived-table source query should NOT compile (it is the fallback control)")
	}

	for i := 0; i < 30; i++ {
		c.Pulse()
	}

	fe := fast.Output().Snapshot()
	se := slow.Output().Snapshot()
	if len(fe) == 0 || len(fe) != len(se) {
		t.Fatalf("output lengths: incremental=%d general=%d", len(fe), len(se))
	}
	for i := range fe {
		for j := 0; j < fe[i].Len(); j++ {
			fv, sv := fe[i].Value(j), se[i].Value(j)
			if ff, ok := fv.(float64); ok {
				sf, ok := sv.(float64)
				if !ok || ff-sf > 1e-9 || sf-ff > 1e-9 {
					t.Fatalf("element %d field %d: incremental %v vs general %v", i, j, fv, sv)
				}
				continue
			}
			if fv != sv {
				t.Fatalf("element %d field %d: incremental %v vs general %v", i, j, fv, sv)
			}
		}
	}

	if got := c.Metrics().Counter("source_eval_incremental").Value(); got == 0 {
		t.Error("incremental tier was never used")
	}
	if got := c.Metrics().Counter("source_eval_general").Value(); got == 0 {
		t.Error("general tier was never used")
	}
}

// TestCompiledStreamPlan checks the deploy-time compiled output-query
// path: a single-source stream whose source query compiles should also
// get a compiled stream plan, and still produce correct outputs.
func TestCompiledStreamPlan(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, pipelineDescriptor("planned", "select count(temperature) as n, avg(temperature) as a from wrapper"))
	vs, _ := c.Sensor("planned")
	if vs.streams[0].plan == nil {
		t.Fatal("single-source stream query should compile at deploy time")
	}
	for i := 0; i < 10; i++ {
		c.Pulse()
	}
	st := vs.Stats()
	if st.Errors != 0 {
		t.Fatalf("errors: %+v", st)
	}
	if st.Outputs != 10 {
		t.Fatalf("outputs = %d, want 10", st.Outputs)
	}
	latest, ok := vs.Output().Latest()
	if !ok {
		t.Fatal("no output")
	}
	// Window is a count window of 8: after 10 pulses COUNT must be 8.
	if latest.Value(0) != int64(8) {
		t.Errorf("count over 8-window = %v, want 8", latest.Value(0))
	}
}

// TestTriggerCoalescingCounts: in async mode a burst that outruns the
// single worker collapses into few evaluations, every trigger is
// accounted as output, drop or coalesce, and the final evaluation sees
// the complete window (no lost data).
func TestTriggerCoalescingCounts(t *testing.T) {
	c, err := New(Options{Clock: stream.SystemClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deploy(t, c, `
<virtual-sensor name="burst">
  <life-cycle pool-size="1"/>
  <output-structure><field name="n" type="integer"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1000">
      <address wrapper="random-walk"><predicate key="seed" val="3"/></address>
      <query>select count(*) as n from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`)
	const burst = 500
	for i := 0; i < burst; i++ {
		c.Pulse()
	}
	vs, _ := c.Sensor("burst")
	waitFor(t, func() bool {
		st := vs.Stats()
		return st.Outputs+st.Dropped+st.Coalesced >= burst
	})
	st := vs.Stats()
	if st.Triggers != burst {
		t.Fatalf("triggers = %d, want %d", st.Triggers, burst)
	}
	if st.Outputs+st.Dropped+st.Coalesced != burst {
		t.Errorf("accounting gap: outputs=%d dropped=%d coalesced=%d", st.Outputs, st.Dropped, st.Coalesced)
	}
	if c.Metrics().Counter("triggers_coalesced").Value() != st.Coalesced {
		t.Errorf("metrics counter %d != sensor stat %d",
			c.Metrics().Counter("triggers_coalesced").Value(), st.Coalesced)
	}
	// The last evaluation covers the burst: its COUNT reflects every
	// inserted element, proving coalescing loses evaluations, not data.
	waitFor(t, func() bool {
		latest, ok := vs.Output().Latest()
		return ok && latest.Value(0) == int64(burst)
	})
}
