package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"gsn/internal/stream"
)

// queryMixWorkload is query_mix: reads beside writes. Two feeds at a low
// fixed rate fill count-1000 memory windows that carry a thousand
// registered queries, while two closed-loop HTTP clients issue ad-hoc
// statements: 70 % over the hot windows (half of them repeated texts,
// so the statement and result caches see a stated 50 % reuse), 30 %
// TIMED ranges of a thousand rows over a history table that set-up
// pre-populated to several times the buffer pool and a trickle writer
// keeps evicting into. The SQL layers and the query repository do most
// of the work; the storage layer is read, hardly written.
type queryMixWorkload struct {
	station

	feeds   []*feedRun // q0, q1, then the trickle writer of h
	logs    []*obsLog  // outputs of q0, q1, h: mark hi, a v, b room
	tracked [][]*queryLog
	clients []*queryClient
	probe   *deployProbe

	histLo, histHi int64        // TIMED of the first and last pre-populated row
	unique         atomic.Int64 // statements drawn so far; makes a text unique
}

const (
	mixWindow     = 1000
	mixRegistered = 1000
	mixHistBurst  = 64
	// mixHistRows is the pre-populated size of h: at about 37 stored bytes
	// a row, 200k rows are some 900 pages of 8 KB — three and a half times
	// storage.DefaultPoolPages (256). The history file's real size is
	// printed with the run.
	mixHistRows  = 200_000
	mixRangeRows = 1000
	mixTrickleHz = 2 // bursts of the trickle writer per second
	mixClients   = 2
)

// mixRepeated is the pool of hot statements whose texts repeat: table,
// shape, floor.
var mixRepeated = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 300}, {0, 2, 0}, {1, 2, 0}, {0, 1, 500}, {1, 1, 200},
}

func mixSensorXML(name, feed, storage, source string) string {
	return fmt.Sprintf(`
<virtual-sensor name="%s">
  <output-structure>
    <field name="hi" type="integer"/>
    <field name="room" type="integer"/>
    <field name="v" type="integer"/>
  </output-structure>
  %s
  <input-stream name="in">
    <stream-source alias="s" %s>
      <address wrapper="feed"><predicate key="id" val="%s"/></address>
      <query>select seq as hi, room, v, timed from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, name, storage, source, feed)
}

func (w *queryMixWorkload) deployAll() error {
	memory := fmt.Sprintf(`<storage size="%d"/>`, mixWindow)
	disk := fmt.Sprintf(`<storage size="%d" permanent-storage="true" sync="interval" history="disk"/>`, mixWindow)
	for _, xml := range []string{
		mixSensorXML("q0", "fq0", memory, `storage-size="1"`),
		mixSensorXML("q1", "fq1", memory, `storage-size="1"`),
		// h takes its elements a burst at a time: the window holds one
		// burst and slides by one burst, so every element is output once.
		mixSensorXML("h", "fh", disk, fmt.Sprintf(`storage-size="%d" slide="%d"`, mixHistBurst, mixHistBurst)),
	} {
		if err := w.n.c.DeployXML([]byte(xml)); err != nil {
			return err
		}
	}
	return nil
}

// mixShapes is the registered-query pool the duplicate half draws from:
// the `queries` experiment's mixed set over this workload's schema,
// every statement projecting hi so what a result covers is observable.
var mixShapes = []string{
	"select count(*) as c, max(hi) as hi, avg(v) as a from %s",
	"select count(*) as c, max(hi) as hi, min(v) as lo, max(v) as up from %s",
	"select count(*) as c, max(hi) as hi, avg(v) as a from %s where v > 100",
	"select count(*) as c, max(hi) as hi, avg(v) as a from %s where v > 400",
	"select count(*) as c, max(hi) as hi, avg(v) as a from %s where v > 700",
	"select hi, v from %s where v > 950",
	"select max(hi) as hi, avg(v) as a from %s where v <= 500",
	"select count(*) as c, max(hi) as hi from %s where v between 200 and 600",
	"select hi, v, timed from %s where v > 900 order by v desc limit 5",
	"select room, count(*) as c, max(hi) as hi, sum(v) as s from %s group by room",
}

func mixRegisteredSQL(i int, table string) string {
	if i%2 == 0 {
		return fmt.Sprintf(mixShapes[(i/2)%len(mixShapes)], table)
	}
	// The upper bound exceeds the value domain: it only makes the text,
	// and with it the evaluation group, unique.
	return fmt.Sprintf("select count(*) as c, max(hi) as hi, avg(v) as a from %s where v > %d and v <= %d",
		table, (i%97)*10, vDomain+i)
}

// mixTrackedSQL are the registered queries whose every result is logged
// and checked, one per evaluator; each counts every row of the window.
var mixTrackedSQL = []string{
	"select count(*) as c, max(hi) as hi, sum(v) as s from %[1]s",
	"select count(*) as c, max(hi) as hi, sum(v) as s from %[1]s where v >= 0",
	"select count(*) as c, max(hi) as hi, sum(v) as s from %[1]s where v >= (select min(v) from %[1]s)",
}

func (w *queryMixWorkload) setup(r *run, dataDir string) error {
	w.station = station{name: "querymix", dir: dataDir, hub: newFeedHub(r.g)}
	if err := w.open(r); err != nil {
		return err
	}
	if err := w.deployAll(); err != nil {
		return err
	}
	rate := float64(r.cal.FeedRate)
	perFeed := int(rate*(r.cfg.window+r.cfg.warmup+time.Second).Seconds()) + 1024
	for _, name := range []string{"q0", "q1", "h"} {
		var fr *feedRun
		capacity := perFeed
		if name == "h" {
			fr = r.newFeedRun(w.hub.feed("fh", false), mixTrickleHz, mixHistBurst, perFeed)
			capacity = w.histRows(r) + 4*perFeed*mixHistBurst
		} else {
			fr = r.newFeedRun(w.hub.feed("f"+name, false), rate, 1, perFeed)
		}
		w.feeds = append(w.feeds, fr)
		w.logs = append(w.logs, r.newObsLog(capacity))
		if name == "h" {
			if err := w.populate(r); err != nil {
				return err
			}
		}
		if err := w.subscribeLog(r, name, w.logs[len(w.logs)-1]); err != nil {
			return err
		}
		if name == "h" {
			continue // h carries no registered queries
		}
		for q := 0; q < mixRegistered/2-len(mixTrackedSQL); q++ {
			if _, err := w.n.c.RegisterQuery(name, mixRegisteredSQL(q, name), 1, nil); err != nil {
				return err
			}
		}
		// The tracked queries register last: they are the callbacks the
		// result latency waits for.
		var tracked []*queryLog
		for _, sql := range mixTrackedSQL {
			ql, err := r.registerTracked(w.n.c, name, fmt.Sprintf(sql, name), perFeed)
			if err != nil {
				return err
			}
			tracked = append(tracked, ql)
		}
		w.tracked = append(w.tracked, tracked)
	}
	w.probe = newFeedProbe(w.n.c, w.hub)
	for i := 0; i < mixClients; i++ {
		w.clients = append(w.clients, &queryClient{
			url: w.n.url, pace: time.Second / time.Duration(r.cal.QueryRate), ticks: newTicks(),
			rng: rand.New(rand.NewSource(r.cfg.seed ^ int64(0x9e37+i))), http: r.http, next: w.nextStmt,
		})
	}
	return nil
}

// subscribeLog logs a sensor's outputs: mark hi, a v, b room.
func (w *queryMixWorkload) subscribeLog(r *run, sensor string, l *obsLog) error {
	return r.subscribeLog(w.n.c, sensor, l, func(e stream.Element) (int64, int64, int64) {
		return intCol(e, 0), intCol(e, 2), intCol(e, 1)
	})
}

func (w *queryMixWorkload) histRows(r *run) int {
	if r.cfg.smoke {
		return 20 * mixRangeRows
	}
	return mixHistRows
}

// populate fills h through its feed before the load starts, the rows one
// millisecond apart and ending just before the present. No subscriber is
// attached yet (a notification per row would double the set-up time):
// each burst is released when the table has counted the previous one,
// the log gets the rows as they were generated, and a query over the
// whole range confirms that the table holds exactly them.
func (w *queryMixWorkload) populate(r *run) error {
	f, l := w.feeds[2].f, w.logs[2]
	vs, _ := w.n.c.Sensor("h")
	rows := int64(w.histRows(r))
	w.histHi = int64(r.stamp(r.now())) - 1
	w.histLo = w.histHi - rows + 1
	deadline := time.Now().Add(60 * time.Second)
	for f.next < rows {
		if !f.emitBurst(mixHistBurst, stream.Timestamp(w.histLo+f.next), 1) {
			return fmt.Errorf("pre-populating h: its wrapper is not running")
		}
		for vs.Output().Stats().Inserted < uint64(f.next) {
			if time.Now().After(deadline) {
				return fmt.Errorf("pre-populating h: stuck at row %d of %d", f.next, rows)
			}
			runtime.Gosched()
		}
	}
	for seq := int64(1); seq <= f.next; seq++ {
		l.add(obs{ts: w.histLo + seq - 1, mark: seq, a: f.v(seq), b: f.room(seq)})
	}
	st, _ := rangeStmt("h", "hi", l, w.histLo, w.histLo+f.next-1)
	_, got, err := postQuery(r.http, w.n.url, st.sql)
	if err != nil {
		return err
	}
	if msg := st.check(nil, got); msg != "" {
		return fmt.Errorf("pre-populating h: %s", msg)
	}
	return nil
}

// nextStmt draws a client's next statement.
func (w *queryMixWorkload) nextStmt(n int, rng *rand.Rand) (stmt, bool) {
	if n%10 >= 7 {
		lo := w.histLo + rng.Int63n(w.histHi-w.histLo-mixRangeRows)
		return rangeStmt("h", "hi", w.logs[2], lo, lo+mixRangeRows-1)
	}
	// Hot window: three shapes over two tables. Half the draws come from
	// a pool of eight texts that repeat; the other half carry a bound
	// beyond the value domain that no other statement of the run has.
	k, shape, floor := rng.Intn(2), rng.Intn(3), rng.Intn(6)*100
	top := int64(vDomain)
	if hot := 7*(n/10) + n%10; hot%2 == 0 { // every second hot statement
		p := mixRepeated[rng.Intn(len(mixRepeated))]
		k, shape, floor = p[0], p[1], p[2]
	} else {
		top += w.unique.Add(1)
	}
	return hotStmt(fmt.Sprintf("q%d", k), w.logs[k], shape, int64(floor), top), true
}

// hotStmt builds one hot-window statement and its reference check.
// Shape 0 aggregates the whole window, shape 1 the rows with v >= floor,
// shape 2 groups the window by room; v < top holds for every row.
func hotStmt(table string, l *obsLog, shape int, floor, top int64) stmt {
	switch shape {
	case 0:
		return stmt{
			sql: fmt.Sprintf("select count(*) as c, max(hi) as hi, sum(v) as s from %s where v < %d", table, top),
			check: func(_ []string, rows [][]any) string {
				return checkLogAnswer(l, mixWindow, rows)
			},
		}
	case 1:
		return stmt{
			sql: fmt.Sprintf("select count(*) as c, max(hi) as hi, sum(v) as s from %s where v >= %d and v < %d", table, floor, top),
			check: func(_ []string, rows [][]any) string {
				v, msg := oneRow(rows, 3)
				if msg != "" {
					return msg
				}
				return l.filteredWindow(v[1], mixWindow, floor, v[0], v[2])
			},
		}
	}
	return stmt{
		sql: fmt.Sprintf("select room, count(*) as c, max(hi) as hi, sum(v) as s from %s where v < %d group by room order by room", table, top),
		check: func(_ []string, rows [][]any) string {
			v, msg := numRows(rows)
			if msg != "" {
				return msg
			}
			return l.groupedWindow(mixWindow, v, func(o obs) int64 { return o.b })
		},
	}
}

func (w *queryMixWorkload) start(r *run, g *group) {
	c := r.newConductor()
	c.feeds(w.feeds...)
	for _, qc := range w.clients {
		c.every(qc.pace, qc.ticks)
		g.go_(func() { r.queryLoop(qc) })
	}
	c.every(r.cfg.deployEvery, w.probe.ticks)
	g.go_(func() { r.deployLoop(w.probe) })
}

func (w *queryMixWorkload) drained() bool {
	for i, fr := range w.feeds {
		if w.logs[i].latest.Load() < fr.f.next {
			return false
		}
	}
	for i, tracked := range w.tracked {
		for _, ql := range tracked {
			if ql.log.latest.Load() < w.feeds[i].f.next {
				return false
			}
		}
	}
	return true
}

func (w *queryMixWorkload) settle(r *run) error {
	return r.fixTail(w.n.c, "h", w.feeds[2], mixHistBurst, w.drained)
}

func (w *queryMixWorkload) recoverOnce(r *run) error {
	return w.station.recoverOnce(r, w.deployAll, []string{"h"}, w.logs[2:])
}

func (w *queryMixWorkload) finish(r *run, m metrics) {
	var lat latencies
	var t2d []int64
	for i, l := range w.logs {
		l.index()
		f := w.feeds[i].f
		// Every output is an element of the feed, unchanged.
		for _, o := range l.rows {
			r.chk.ok(o.a == f.v(o.mark) && o.b == f.room(o.mark),
				"%s output hi=%d: (v=%d, room=%d), want (%d, %d)", f.id, o.mark, o.a, o.b, f.v(o.mark), f.room(o.mark))
		}
		if i == 2 {
			// Every pre-populated row and every trickled burst arrived.
			r.chk.ok(int64(len(l.rows)) == f.next, "h output %d rows, the feed sent %d", len(l.rows), f.next)
			continue
		}
		var cover []*obsLog
		for _, ql := range w.tracked[i] {
			for _, o := range ql.log.rows {
				msg := l.window(o.mark, mixWindow, o.a, o.b)
				r.chk.ok(msg == "", "registered query on %s: %s", f.id, msg)
			}
			cover = append(cover, ql.log)
		}
		r.coverLatencies(w.feeds[i], &lat, cover...)
		t2d = r.sendToDelivery(t2d, w.feeds[i], l)
	}
	r.queryErrors(w.n.c)
	r.resultMetrics(m, &lat)
	done := r.queryMetrics(m, w.clients)
	deploys := r.deployMetrics(m, w.probe)
	r.ops = int64(len(lat.ns)) + done + deploys
	r.opsUntraced = r.countBefore(w.feeds[:2], w.clients)

	r.loadgenMetrics(m, w.feeds[:2], 2*float64(r.cal.FeedRate))
	m.set("core.trigger_to_delivery_ms_p50", quantileOf(t2d, 0.5)/1e6, len(t2d))
	coreCounts(m, w.n.c)
	r.checkNoDrops(m)
	var trickled int64
	for _, e := range w.feeds[2].emits {
		if r.inWindow(e.due) {
			trickled += mixHistBurst
		}
	}
	r.storageMetrics(m, w.n.c, trickled, trickled*3*8)
	r.webMetrics(m, &w.seams, w.clients)
	if vs, ok := w.n.c.Sensor("h"); ok {
		if hs := vs.Output().Stats().History; hs != nil {
			r.facts["history_table_pages"] = hs.Pages
		}
	}
	r.facts["history_table_rows"] = len(w.logs[2].rows)
	if r.tr != nil {
		r.elementSpans(w.feeds[:2], func(i int) (*obsLog, *obsLog, string) {
			return w.logs[i], w.tracked[i][len(w.tracked[i])-1].log, ""
		})
	}
}
