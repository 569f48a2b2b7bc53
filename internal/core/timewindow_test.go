package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// writeCSV writes a replay file of n rows under header; row(i) renders
// the i-th row ("" cells are NULL).
func writeCSV(t *testing.T, header string, n int, row func(i int) string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(header + "\n")
	for i := 0; i < n; i++ {
		b.WriteString(row(i) + "\n")
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// intRow is a replay row of one integer column, NULL every 13th row.
func intRow(i int) string {
	if i%13 == 12 {
		return ""
	}
	return fmt.Sprint((i*37)%101 - 50)
}

// csvSource renders a <stream-source> replaying an integer csv file.
func csvSource(alias, size, path, query string, loop bool) string {
	return fmt.Sprintf(`
    <stream-source alias=%q storage-size=%q>
      <address wrapper="csv">
        <predicate key="file" val=%q/>
        <predicate key="types" val="integer,integer"/>
        <predicate key="loop" val="%t"/>
      </address>
      <query>%s</query>
    </stream-source>`, alias, size, path, loop, query)
}

// pairDescriptor is a sensor whose input stream joins source a — one
// replayed value, the trigger — with source b, a maintained aggregate
// over a time window of bSize.
func pairDescriptor(aPath, bPath, bSize string, bLoop bool) string {
	return `
<virtual-sensor name="pair">
  <output-structure>
    <field name="v" type="integer"/><field name="n" type="integer"/><field name="hi" type="integer"/>
  </output-structure>
  <storage size="1000"/>
  <input-stream name="in">` +
		csvSource("a", "1", aPath, "select v from WRAPPER", true) +
		csvSource("b", bSize, bPath, "select count(*) as n, max(v) as hi from WRAPPER", bLoop) + `
    <query>select a.v as v, b.n as n, b.hi as hi from a, b</query>
  </input-stream>
</virtual-sensor>`
}

// TestTimeWindowMatchesCountWindow is the metamorphic pair: one reading
// per millisecond, a count window of N and a time window of N ms hold
// the same N rows, so their maintained source queries — unfiltered, and
// filtered by a WHERE that NULL rows fail — must produce identical
// output elements on every trigger.
func TestTimeWindowMatchesCountWindow(t *testing.T) {
	c := testContainer(t)
	clock := c.Clock().(*stream.ManualClock)
	path := writeCSV(t, "v", 300, intRow)
	const aggs = "select count(*) as n, sum(v) as s, avg(v) as a, min(v) as lo, max(v) as hi, last(v) as l from WRAPPER"
	shapes := map[string]string{"": aggs, "filtered-": aggs + " where v > -30 and not (v % 4 = 1)"}
	for prefix, query := range shapes {
		for name, size := range map[string]string{"bycount": "20", "bytime": "20ms"} {
			name = prefix + name
			deploy(t, c, fmt.Sprintf(`
<virtual-sensor name=%q>
  <output-structure>
    <field name="n" type="integer"/><field name="s" type="integer"/><field name="a" type="double"/>
    <field name="lo" type="integer"/><field name="hi" type="integer"/><field name="l" type="integer"/>
  </output-structure>
  <storage size="1000"/>
  <input-stream name="in">%s
    <query>select * from src</query>
  </input-stream>
</virtual-sensor>`, name, csvSource("src", size, path, query, false)))
			if vs, _ := c.Sensor(name); vs.streams[0].sources[0].query.agg == nil {
				t.Fatalf("%s: the aggregate source query should be maintained", name)
			}
		}
	}
	for i := 0; i < 200; i++ {
		clock.Advance(time.Millisecond)
		c.Pulse()
	}
	for prefix := range shapes {
		byCount, _ := c.Sensor(prefix + "bycount")
		byTime, _ := c.Sensor(prefix + "bytime")
		ce, te := byCount.Output().Snapshot(), byTime.Output().Snapshot()
		if len(ce) != 200 || len(te) != 200 {
			t.Fatalf("%soutputs: count window %d, time window %d, want 200 each", prefix, len(ce), len(te))
		}
		for i := range ce {
			if ce[i].String() != te[i].String() {
				t.Fatalf("%strigger %d: count window %v, time window %v", prefix, i, ce[i], te[i])
			}
		}
	}
	m := c.Metrics()
	if inc, other := m.Counter("source_eval_incremental").Value(),
		m.Counter("source_eval_compiled").Value()+m.Counter("source_eval_general").Value(); inc != 800 || other != 0 {
		t.Errorf("source evaluations: %d incremental, %d rescans; want 800 and 0", inc, other)
	}
}

// TestIdleTimeWindowSourceReadsEmpty: source b stops producing while the
// clock passes its window, so nothing but a read applies its retention.
// A trigger from source a must read b's maintained aggregate as COUNT 0
// and NULL — the interpreter's answer over the expired window — on the
// incremental tier.
func TestIdleTimeWindowSourceReadsEmpty(t *testing.T) {
	c := testContainer(t)
	clock := c.Clock().(*stream.ManualClock)
	deploy(t, c, pairDescriptor(writeCSV(t, "v", 50, intRow), writeCSV(t, "v", 5, intRow), "50ms", false))
	vs, _ := c.Sensor("pair")
	b := vs.streams[0].sources[1]
	if b.query.agg == nil {
		t.Fatal("b's aggregate over a time window should be maintained")
	}
	for i := 0; i < 5; i++ {
		clock.Advance(time.Millisecond)
		c.Pulse()
	}
	clock.Advance(100 * time.Millisecond)
	before := c.Metrics().Counter("source_eval_incremental").Value()
	if n := c.Pulse(); n != 1 {
		t.Fatalf("pulse injected %d elements, want only a's", n)
	}
	if got := c.Metrics().Counter("source_eval_incremental").Value() - before; got != 1 {
		t.Errorf("a's trigger read b on the incremental tier %d times, want 1", got)
	}
	latest, ok := vs.Output().Latest()
	if !ok || latest.Value(1) != int64(0) || latest.Value(2) != nil {
		t.Fatalf("latest output %v, want n = 0 and hi = NULL", latest)
	}
	var got *sqlengine.Relation
	b.table.ReadWindow(func(first uint64, live []stream.Element) { got = b.query.agg.Read(first, live, c.engineOpts()) })
	want, err := sqlengine.Execute(b.query.stmt, &windowCatalog{src: b}, c.engineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("maintained:\n%v\ninterpreter:\n%v", got, want)
	}
}

// TestGroupedQueryOverTimeWindowOutput: a registered grouped query over
// a sensor whose output storage is a time window is maintained, and
// tracks that window — groups emptied by clock gaps past it included —
// exactly as the interpreter does.
func TestGroupedQueryOverTimeWindowOutput(t *testing.T) {
	c := testContainer(t)
	clock := c.Clock().(*stream.ManualClock)
	path := writeCSV(t, "k,v", 300, func(i int) string { return fmt.Sprintf("%d,%s", i%4, intRow(i)) })
	deploy(t, c, fmt.Sprintf(`
<virtual-sensor name="tw">
  <output-structure><field name="k" type="integer"/><field name="v" type="integer"/></output-structure>
  <storage size="30ms"/>
  <input-stream name="in">%s
    <query>select * from src</query>
  </input-stream>
</virtual-sensor>`, csvSource("src", "1", path, "select k, v from WRAPPER", false)))
	const sql = "select k, count(*) as n, sum(v) as s, max(v) as hi from tw group by k having count(*) > 1 order by n desc, k"
	var got, want atomic.Value
	if _, err := c.RegisterQuery("tw", sql, 1, func(rel *sqlengine.Relation) { got.Store(rel.String()) }); err != nil {
		t.Fatal(err)
	}
	shadow := NewQueryRepository(nil, nil)
	if _, err := shadow.Register("tw", sql, 1, func(rel *sqlengine.Relation) { want.Store(rel.String()) }, nil); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Counter("client_query_incremental").Value()
	for i := 1; i <= 200; i++ {
		gap := time.Millisecond
		if i%37 == 0 {
			gap = 45 * time.Millisecond
		}
		clock.Advance(gap)
		c.Pulse()
		shadow.EvaluateForSerial("tw", c.Catalog(), c.engineOpts())
		if g, w := got.Load(), want.Load(); g != w {
			t.Fatalf("pulse %d:\nmaintained:\n%v\ninterpreter:\n%v", i, g, w)
		}
	}
	if n := c.Metrics().Counter("client_query_incremental").Value() - before; n != 200 {
		t.Errorf("incremental tier served %d of 200 evaluations", n)
	}
}

// TestTimeWindowMaintainerRace runs a maintained time-window source
// under the race detector: a goroutine inserts into it and moves the
// clock while another feeds the second source, whose triggers read the
// maintained aggregate on the delivering goroutine. Once all settles, the
// maintained answer is the interpreter's.
func TestTimeWindowMaintainerRace(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	c, err := New(Options{Name: "race", Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deploy(t, c, pairDescriptor(writeCSV(t, "v", 50, intRow), writeCSV(t, "v", 50, intRow), "20ms", true))
	vs, _ := c.Sensor("pair")
	a, b := vs.streams[0].sources[0], vs.streams[0].sources[1]
	var wg sync.WaitGroup
	for _, feed := range []func() error{
		func() error { // a's arrivals trigger evaluations that read b
			e, err := a.wrapper.(wrappers.Producer).Produce()
			if err == nil {
				vs.ingress(a, e)
			}
			return err
		},
		func() error { // b's arrivals and the clock move its window
			clock.Advance(time.Millisecond)
			e, err := b.wrapper.(wrappers.Producer).Produce()
			if err == nil {
				err = b.table.Insert(e)
			}
			return err
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := feed(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool {
		st := vs.Stats()
		return st.Outputs+st.Dropped+st.Coalesced+st.Errors >= st.Triggers
	})
	if st := vs.Stats(); st.Errors != 0 || st.Outputs == 0 {
		t.Fatalf("stats = %+v", st)
	}
	var got *sqlengine.Relation
	b.table.ReadWindow(func(first uint64, live []stream.Element) { got = b.query.agg.Read(first, live, c.engineOpts()) })
	want, err := sqlengine.Execute(b.query.stmt, &windowCatalog{src: b}, c.engineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("maintained:\n%v\ninterpreter:\n%v", got, want)
	}
	if c.Metrics().Counter("source_eval_incremental").Value() == 0 {
		t.Error("no trigger read the maintained source")
	}
}

// BenchmarkTimeWindowPulse is the paper's source shape: one mote reading
// per millisecond into a time window of N ms under `select
// avg(temperature) from WRAPPER`, one Pulse per op (sync processing,
// manual clock). The source is maintained, so ns/op is flat in N.
func BenchmarkTimeWindowPulse(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("live=%d", n), func(b *testing.B) {
			clock := stream.NewManualClock(1_000_000)
			c, err := New(Options{Clock: clock, SyncProcessing: true})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.DeployXML([]byte(strings.Replace(moteAvgDescriptor,
				`storage-size="10"`, fmt.Sprintf(`storage-size="%dms"`, n), 1))); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				clock.Advance(time.Millisecond)
				c.Pulse()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.Advance(time.Millisecond)
				c.Pulse()
			}
		})
	}
}
