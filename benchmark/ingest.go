package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"gsn/internal/stream"
)

// ingestWorkload is ingest_saturate: two closed-loop producers push
// 64-element bursts into four sensors whose source query is maintained
// incrementally, so almost all the work per burst is the storage
// layer's: every result row goes through the WAL (sync="always"), the
// count-1000 output windows evict continuously into the paged history
// tier, and checkpoints cycle. A producer sends a sensor's next burst
// once the stored result covering the previous one has been delivered,
// which puts the output table's write path inside the loop that sets
// throughput_eps. The window is followed by close/reopen cycles on the
// same data directory.
type ingestWorkload struct {
	station

	feeds   []*feedRun
	logs    []*obsLog // outputs of i0..i3: mark hi, a n, b sv
	clients []*queryClient
	probe   *deployProbe
	spanMs  int64        // width of the history ranges
	results atomic.Int64 // results delivered so far, over all four sensors
}

const (
	ingestSensors = 4
	ingestBurst   = 64
	ingestSource  = 100  // source window
	ingestWindow  = 1000 // output window; older rows live in the history tier

	// Per producer: one statement every ingestQueryEvery bursts, one deploy
	// every ingestDeployEvery, so the mix of work per element is fixed.
	ingestQueryEvery  = 128
	ingestDeployEvery = 1024
	ingestLapEvery    = 256 // results of all four sensors per reference lap
)

func ingestXML(i int) string {
	return fmt.Sprintf(`
<virtual-sensor name="i%d">
  <output-structure>
    <field name="n" type="integer"/>
    <field name="hi" type="integer"/>
    <field name="sv" type="integer"/>
  </output-structure>
  <storage size="%d" permanent-storage="true" sync="always" history="disk"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="%d">
      <address wrapper="feed"><predicate key="id" val="g%d"/></address>
      <query>select count(*) as n, max(seq) as hi, sum(v) as sv, max(timed) as timed from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, i, ingestWindow, ingestSource, i)
}

func (w *ingestWorkload) deployAll() error {
	for i := 0; i < ingestSensors; i++ {
		if err := w.n.c.DeployXML([]byte(ingestXML(i))); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestWorkload) setup(r *run, dataDir string) error {
	w.spanMs = r.cal.HistorySpanMs
	w.station = station{name: "ingest", dir: dataDir, hub: newFeedHub(r.g), queue: notifyQueueDeep}
	if err := w.open(r); err != nil {
		return err
	}
	if err := w.deployAll(); err != nil {
		return err
	}
	const capacity = 1 << 18
	for i := 0; i < ingestSensors; i++ {
		fr := r.newFeedRun(w.hub.feed(fmt.Sprintf("g%d", i), false), 0, ingestBurst, capacity)
		w.feeds = append(w.feeds, fr)
		l := r.newObsLog(capacity)
		w.logs = append(w.logs, l)
		err := r.subscribe(w.n.c, fmt.Sprintf("i%d", i), func(e stream.Element) {
			hi := intCol(e, 1)
			now := r.now()
			l.add(obs{t: now, ts: int64(e.Timestamp()), mark: hi, a: intCol(e, 0), b: intCol(e, 2)})
			fr.covered(hi)
			// The reference laps run on the results' clock, not on a timer.
			if w.results.Add(1)%ingestLapEvery == 0 {
				r.refTicks.fire(now)
			}
		})
		if err != nil {
			return err
		}
	}
	w.probe = newFeedProbe(w.n.c, w.hub)
	for i := 0; i < 2; i++ { // one per producer
		w.clients = append(w.clients, &queryClient{
			ask: askDirect(w.n.c), rng: rand.New(rand.NewSource(r.cfg.seed ^ int64(0x9e37+i))), next: w.nextStmt,
		})
	}
	return nil
}

// nextStmt draws the paced client's next statement: 80 % aggregates
// over an output table's hot window, 20 % TIMED ranges reaching into
// the rows the window has evicted to the history tier.
func (w *ingestWorkload) nextStmt(n int, rng *rand.Rand) (stmt, bool) {
	i := rng.Intn(ingestSensors)
	l := w.logs[i]
	if n%5 == 4 {
		// The newest second is still hot; end the range before it.
		return historyStmt(fmt.Sprintf("i%d", i), "hi", l, 1000+int64(rng.Intn(1000)), w.spanMs)
	}
	return stmt{
		sql:   fmt.Sprintf("select count(*) as c, max(hi) as hi, sum(n) as sn from i%d", i),
		check: func(_ []string, rows [][]any) string { return checkLogAnswer(l, ingestWindow, rows) },
	}, true
}

func (w *ingestWorkload) start(r *run, g *group) {
	queryEvery, deployEvery := ingestQueryEvery, ingestDeployEvery
	if r.cfg.smoke {
		// A smoke run is too short (and, under the race detector, too slow)
		// to reach the full intervals.
		queryEvery, deployEvery = 8, 32
	}
	g.go_(func() {
		r.ackedLoop(w.feeds[0], w.feeds[1], func(sent int) {
			if sent%queryEvery == 0 {
				r.askOnce(w.clients[0], r.now())
			}
		})
	})
	g.go_(func() {
		r.ackedLoop(w.feeds[2], w.feeds[3], func(sent int) {
			if sent%queryEvery == 0 {
				r.askOnce(w.clients[1], r.now())
			}
			if sent%deployEvery == 0 {
				r.deployOnce(w.probe, r.now())
			}
		})
	})
}

func (w *ingestWorkload) drained() bool {
	for i, fr := range w.feeds {
		if w.logs[i].latest.Load() < fr.f.next {
			return false
		}
	}
	return true
}

func (w *ingestWorkload) settle(r *run) error {
	for i, fr := range w.feeds {
		if err := r.fixTail(w.n.c, fmt.Sprintf("i%d", i), fr, 1, w.drained); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestWorkload) recoverOnce(r *run) error {
	tables := make([]string, ingestSensors)
	for i := range tables {
		tables[i] = fmt.Sprintf("i%d", i)
	}
	return w.station.recoverOnce(r, w.deployAll, tables, w.logs)
}

func (w *ingestWorkload) finish(r *run, m metrics) {
	var t2d []int64
	var stored int64
	var lat latencies
	for i, l := range w.logs {
		l.index()
		f := w.feeds[i].f
		for _, o := range l.rows {
			msg := checkFeedWindow(f, ingestSource, o.a, o.mark, o.b)
			r.chk.ok(msg == "", "i%d output hi=%d: %s", i, o.mark, msg)
			if r.inWindow(o.t) {
				stored++
			}
		}
		r.coverLatencies(w.feeds[i], &lat, l)
		t2d = r.sendToDelivery(t2d, w.feeds[i], l)
	}
	r.queryErrors(w.n.c)
	r.resultMetrics(m, &lat)
	done := r.queryMetrics(m, w.clients)
	deploys := r.deployMetrics(m, w.probe)
	// The operation here is the element: a burst is 64 of them.
	r.ops = lat.elems + done + deploys
	r.opsUntraced = ingestBurst*r.countBefore(w.feeds, nil) + r.countBefore(nil, w.clients)

	r.loadgenMetrics(m, w.feeds, 0)
	m.set("core.trigger_to_delivery_ms_p50", quantileOf(t2d, 0.5)/1e6, len(t2d))
	coreCounts(m, w.n.c)
	r.checkNoDrops(m)
	r.storageMetrics(m, w.n.c, stored, stored*3*8)
	r.webMetrics(m, &w.seams, w.clients)
	if r.tr != nil {
		r.elementSpans(w.feeds, func(i int) (*obsLog, *obsLog, string) {
			return w.logs[i], nil, fmt.Sprintf("I%d", i)
		})
	}
}
