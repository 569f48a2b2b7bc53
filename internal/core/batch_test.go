package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gsn/internal/stream"
)

// batchEquivDescriptor builds a sensor over a csv replay source with a
// quality chain (sampling + slide) so the batch path crosses every
// stage.
func batchEquivDescriptor(csvPath string) string {
	return fmt.Sprintf(`
<virtual-sensor name="beq">
  <output-structure>
    <field name="n" type="integer"/>
    <field name="a" type="double"/>
  </output-structure>
  <storage size="5"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="20" sampling-rate="0.8" slide="2">
      <address wrapper="csv">
        <predicate key="file" val=%q/>
        <predicate key="types" val="integer"/>
        <predicate key="seed" val="11"/>
      </address>
      <query>select count(*) as n, avg(v) as a from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, csvPath)
}

// TestBatchIngestEquivalence drives the same arrival sequence through
// the per-element ingress (Pulse) and the batch ingress (PulseBatch,
// arbitrary split) and asserts the observable state converges: source
// window contents, trigger counts and the final aggregate are
// identical. (Intermediate outputs may differ — a burst's triggers all
// see the full burst in the window, exactly as PR 1's coalescing
// already allows under load.)
func TestBatchIngestEquivalence(t *testing.T) {
	const rows = 60
	csvPath := filepath.Join(t.TempDir(), "r.csv")
	data := "v\n"
	for i := 1; i <= rows; i++ {
		data += fmt.Sprintf("%d\n", i)
	}
	if err := os.WriteFile(csvPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}

	newNode := func() *Container {
		c, err := New(Options{Clock: stream.NewManualClock(1000), SyncProcessing: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.DeployXML([]byte(batchEquivDescriptor(csvPath))); err != nil {
			t.Fatal(err)
		}
		return c
	}
	perElem := newNode()
	batched := newNode()

	// An arbitrary split of the 60 rows into bursts.
	splits := []int{1, 3, 7, 2, 12, 1, 9, 5, 20}
	total := 0
	for _, k := range splits {
		for i := 0; i < k; i++ {
			if n := perElem.Pulse(); n != 1 {
				t.Fatalf("Pulse injected %d", n)
			}
		}
		if n := batched.PulseBatch(k); n != k {
			t.Fatalf("PulseBatch(%d) injected %d", k, n)
		}
		total += k
	}
	if total != rows {
		t.Fatalf("split sums to %d, want %d", total, rows)
	}

	vsA := perElem.Sensors()[0]
	vsB := batched.Sensors()[0]

	// Identical source window contents (the sampler admitted the same
	// subset in the same order: same seed, same draw sequence).
	winA := vsA.streams[0].sources[0].table.Snapshot()
	winB := vsB.streams[0].sources[0].table.Snapshot()
	if len(winA) != len(winB) {
		t.Fatalf("window sizes diverged: %d vs %d", len(winA), len(winB))
	}
	for i := range winA {
		if winA[i].Value(0) != winB[i].Value(0) {
			t.Fatalf("window[%d] = %v vs %v", i, winA[i], winB[i])
		}
	}

	// Identical trigger counts: the batch terminal accounts one trigger
	// per slide boundary crossed, matching the per-element count. A
	// burst's crossings collapse into one evaluation, so
	// the batched node reports the surplus as Coalesced and produces
	// correspondingly fewer (identical-content) outputs.
	stA, stB := vsA.Stats(), vsB.Stats()
	if stA.Triggers != stB.Triggers {
		t.Fatalf("trigger counts diverged: %d vs %d", stA.Triggers, stB.Triggers)
	}
	if stA.Triggers == 0 {
		t.Fatal("no triggers fired; the test exercised nothing")
	}
	if stA.Errors != 0 || stB.Errors != 0 {
		t.Fatalf("errors: per-element %d (%s), batched %d (%s)",
			stA.Errors, stA.LastError, stB.Errors, stB.LastError)
	}
	if stA.Coalesced != 0 {
		t.Fatalf("per-element sync path coalesced %d triggers", stA.Coalesced)
	}
	if stB.Outputs+stB.Coalesced != stA.Outputs {
		t.Fatalf("batched outputs %d + coalesced %d != per-element outputs %d",
			stB.Outputs, stB.Coalesced, stA.Outputs)
	}
	if stB.Coalesced == 0 {
		t.Fatal("multi-crossing bursts coalesced nothing; sync batching exercised nothing")
	}

	// Identical final aggregate: both windows hold the same elements,
	// so the last evaluation agrees.
	lastA, okA := vsA.Output().Latest()
	lastB, okB := vsB.Output().Latest()
	if !okA || !okB {
		t.Fatal("no output produced")
	}
	if lastA.Value(0) != lastB.Value(0) || lastA.Value(1) != lastB.Value(1) {
		t.Fatalf("final aggregates diverged: %v vs %v", lastA, lastB)
	}
}

// TestBatchIngestRateLimit: the shared stream-level rate limiter must
// clip a burst mid-batch exactly where it would clip the element
// stream.
func TestBatchIngestRateLimit(t *testing.T) {
	const rows = 30
	csvPath := filepath.Join(t.TempDir(), "r.csv")
	data := "v\n"
	for i := 1; i <= rows; i++ {
		data += fmt.Sprintf("%d\n", i)
	}
	if err := os.WriteFile(csvPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	desc := fmt.Sprintf(`
<virtual-sensor name="rl">
  <output-structure><field name="n" type="integer"/></output-structure>
  <storage size="5"/>
  <input-stream name="in" rate="5">
    <stream-source alias="s" storage-size="100">
      <address wrapper="csv">
        <predicate key="file" val=%q/>
        <predicate key="types" val="integer"/>
      </address>
      <query>select count(*) as n from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, csvPath)

	clock := stream.NewManualClock(1000)
	c, err := New(Options{Clock: clock, SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeployXML([]byte(desc)); err != nil {
		t.Fatal(err)
	}
	// One burst of 30 against a 5/s bucket holding a single start-up
	// token plus nothing accrued: only the admitted prefix lands.
	c.PulseBatch(rows)
	vs := c.Sensors()[0]
	live := vs.streams[0].sources[0].table.Len()
	if live >= rows {
		t.Fatalf("rate limiter admitted the whole burst (%d)", live)
	}
	if live == 0 {
		t.Fatal("rate limiter rejected the whole burst; start-up token missing")
	}
}
