package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"gsn/internal/stream"
)

// historySensorXML deploys a mote-fed sensor whose 5-row window spills
// evicted rows into the on-disk history tier.
const historySensorXML = `
<virtual-sensor name="hist-temp">
  <output-structure>
    <field name="TEMPERATURE" type="double"/>
  </output-structure>
  <storage size="5" permanent-storage="true" sync="none" history="disk"/>
  <input-stream name="in">
    <stream-source alias="src1" storage-size="1">
      <address wrapper="mote">
        <predicate key="sensors" val="temperature"/>
        <predicate key="seed" val="7"/>
      </address>
      <query>select temperature from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>`

func historyContainer(t *testing.T, dir string) (*Container, *stream.ManualClock) {
	t.Helper()
	clock := stream.NewManualClock(1_000_000)
	c, err := New(Options{
		Name:           "hist-node",
		Clock:          clock,
		SyncProcessing: true,
		DataDir:        dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, clock
}

// pulseTicking injects n mote readings one millisecond apart, so each
// produced row carries a distinct TIMED value.
func pulseTicking(c *Container, clock *stream.ManualClock, n int) {
	for i := 0; i < n; i++ {
		clock.Advance(time.Millisecond)
		c.Pulse()
	}
}

// TestHistoryQueryServesEvictedRows: the ad-hoc query path must answer
// a WHERE TIMED BETWEEN query from the history tier — rows the 5-row
// hot window evicted long ago — merged with the live window.
func TestHistoryQueryServesEvictedRows(t *testing.T) {
	c, clock := historyContainer(t, t.TempDir())
	deploy(t, c, historySensorXML)
	pulseTicking(c, clock, 40)
	// Everything ever produced, not just the 5-row window.
	rel, err := c.Query(`select count(*) from "hist-temp" where timed between 0 and 99999999999`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != int64(40) {
		t.Fatalf("bounded count over both tiers = %v, want 40", rel.Rows[0][0])
	}
	// The 35 evicted rows share one data page, whose summary the count
	// folds without decoding a row.
	if m := c.MetricsSnapshot(); m["pages_folded"] != uint64(1) || m["pages_decoded"] != uint64(0) {
		t.Fatalf("pages folded %v, decoded %v; want 1 and 0", m["pages_folded"], m["pages_decoded"])
	}
	// The unbounded scan still sees only the hot window.
	rel, err = c.Query(`select count(*) from "hist-temp"`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != int64(5) {
		t.Fatalf("unbounded count = %v, want the 5-row window", rel.Rows[0][0])
	}
	// A bounded sub-range returns exactly the first nine readings (the
	// clock ticks 1ms per pulse from 1000000).
	rel, err = c.Query(`select count(*) from "hist-temp" where timed between 0 and 1000009`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != int64(9) {
		t.Fatalf("sub-range count = %v, want the 9 readings up to timed 1000009", rel.Rows[0][0])
	}
	// That page straddles the sub-range: it is decoded.
	if m := c.MetricsSnapshot(); m["pages_folded"] != uint64(1) || m["pages_decoded"] != uint64(1) {
		t.Fatalf("pages folded %v, decoded %v; want 1 and 1", m["pages_folded"], m["pages_decoded"])
	}
}

// TestUndeployRemovesHistoryFiles: undeploying a history sensor must
// unlink its pages and WAL (the operator removed the sensor, nothing
// may linger); container shutdown must keep them for the next start.
func TestUndeployRemovesHistoryFiles(t *testing.T) {
	dir := t.TempDir()
	c, clock := historyContainer(t, dir)
	deploy(t, c, historySensorXML)
	pulseTicking(c, clock, 20)
	hist := filepath.Join(dir, "HIST-TEMP.gsnhist")
	wal := filepath.Join(dir, "HIST-TEMP.gsnlog")
	if _, err := os.Stat(hist); err != nil {
		t.Fatalf("history file not created: %v", err)
	}
	if _, err := os.Stat(wal); err != nil {
		t.Fatalf("WAL not created: %v", err)
	}
	if err := c.Undeploy("hist-temp"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(hist); !os.IsNotExist(err) {
		t.Fatalf("undeploy left history file behind (stat err %v)", err)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("undeploy left WAL behind (stat err %v)", err)
	}
}

// TestShutdownKeepsHistoryFiles: Close is not an undeploy — the on-disk
// tiers survive and the next container serves the full history again.
func TestShutdownKeepsHistoryFiles(t *testing.T) {
	dir := t.TempDir()
	c, clock := historyContainer(t, dir)
	deploy(t, c, historySensorXML)
	pulseTicking(c, clock, 30)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "HIST-TEMP.gsnhist")); err != nil {
		t.Fatalf("shutdown removed the history file: %v", err)
	}

	c2, _ := historyContainer(t, dir)
	deploy(t, c2, historySensorXML)
	rel, err := c2.Query(`select count(*) from "hist-temp" where timed between 0 and 99999999999`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != int64(30) {
		t.Fatalf("restarted container serves %v historical rows, want 30", rel.Rows[0][0])
	}
}
