package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"gsn/internal/stream"
)

// pipelineWorkload is pipeline_steady: eight first-tier sensors (six
// mote feeds, two 16 KB camera feeds at 1/50 the rate) whose source
// queries are split across the three evaluators, four second-tier
// sensors over wrapper="local" edges, 200 registered queries, FuncChannel
// subscribers, one SSE client, a paced ad-hoc query client and the
// deploy probe, all under an open-loop fixed-rate load.
type pipelineWorkload struct {
	station

	feeds   []*feedRun // 0..5 mote, 6..7 camera
	tier1   []*obsLog  // first-tier outputs: mark hi, a n, b sv
	tier2   [][]*obsLog
	tracked []*queryLog // one registered query per first-tier sensor
	clients []*queryClient
	probe   *deployProbe

	sse       []sseEvent
	sseCancel context.CancelFunc
	sseDone   chan struct{}
}

const (
	pipeSensors   = 8
	pipeSecond    = 4
	pipeWindow    = 100 // first-tier source and output windows
	pipeHopWindow = 10  // second-tier source window
	pipeGenerated = 192 // Figure 4 queries; with the 8 tracked ones, 200
)

// firstTierXML renders first-tier sensor i. The source queries compute
// the same aggregates in three ways so each evaluator carries a share:
// no WHERE (incremental maintainer), a WHERE (bound program), a
// subquery (interpreter).
func firstTierXML(i int) string {
	where, value, camera := "", "sum(v)", ""
	switch {
	case i >= 6:
		value, camera = "sum(length(image))", `<predicate key="camera" val="true"/>`
	case i >= 4:
		where = " where v >= (select min(v) from WRAPPER)"
	case i >= 2:
		where = " where v >= 0"
	}
	storage := fmt.Sprintf(`<storage size="%d"/>`, pipeWindow)
	if i%2 == 0 {
		history := ""
		if i < 4 {
			history = ` history="disk"`
		}
		storage = fmt.Sprintf(`<storage size="%d" permanent-storage="true" sync="interval"%s/>`, pipeWindow, history)
	}
	return fmt.Sprintf(`
<virtual-sensor name="a%d">
  <output-structure>
    <field name="n" type="integer"/>
    <field name="hi" type="integer"/>
    <field name="sv" type="integer"/>
  </output-structure>
  %s
  <input-stream name="in">
    <stream-source alias="s" storage-size="%d" sampling-rate="1" disconnect-buffer="16">
      <address wrapper="feed">
        <predicate key="id" val="f%d"/>%s
        <predicate key="repair" val="hold-last"/>
      </address>
      <query>select count(*) as n, max(seq) as hi, %s as sv, max(timed) as timed from WRAPPER%s</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, i, storage, pipeWindow, i, camera, value, where)
}

// secondTierXML renders second-tier sensor j: two input streams, one per
// upstream first-tier sensor (a_j and a_{j+4}), each a local composition
// edge.
func secondTierXML(j int) string {
	where := ""
	if j >= 2 {
		where = " where n > 0"
	}
	streamXML := func(k, upstream int) string {
		return fmt.Sprintf(`
  <input-stream name="in%d">
    <stream-source alias="u" storage-size="%d">
      <address wrapper="local"><predicate key="sensor" val="a%d"/></address>
      <query>select max(hi) as hi, count(*) as m, sum(n) as sn from WRAPPER%s</query>
    </stream-source>
    <query>select %d as k, hi, m, sn from u</query>
  </input-stream>`, k, pipeHopWindow, upstream, where, k)
	}
	return fmt.Sprintf(`
<virtual-sensor name="b%d">
  <output-structure>
    <field name="k" type="integer"/>
    <field name="hi" type="integer"/>
    <field name="m" type="integer"/>
    <field name="sn" type="integer"/>
  </output-structure>
  <storage size="50"/>%s%s
</virtual-sensor>`, j, streamXML(0, j), streamXML(1, j+pipeSecond))
}

func (w *pipelineWorkload) deployAll() error {
	for i := 0; i < pipeSensors; i++ {
		if err := w.n.c.DeployXML([]byte(firstTierXML(i))); err != nil {
			return err
		}
	}
	for j := 0; j < pipeSecond; j++ {
		if err := w.n.c.DeployXML([]byte(secondTierXML(j))); err != nil {
			return err
		}
	}
	return nil
}

func (w *pipelineWorkload) setup(r *run, dataDir string) error {
	w.station = station{name: "pipeline", dir: dataDir, hub: newFeedHub(r.g)}
	if err := w.open(r); err != nil {
		return err
	}
	if err := w.deployAll(); err != nil {
		return err
	}
	rate := float64(r.cal.FeedRate)
	perFeed := int(rate*(r.cfg.window+r.cfg.warmup+time.Second).Seconds()) + 1024
	for i := 0; i < pipeSensors; i++ {
		fr := r.newFeedRun(w.hub.feed(fmt.Sprintf("f%d", i), i >= 6), rate, 1, perFeed)
		if i >= 6 {
			fr = r.newFeedRun(fr.f, rate/50, 1, perFeed/50+64)
		}
		w.feeds = append(w.feeds, fr)
		l := r.newObsLog(perFeed)
		w.tier1 = append(w.tier1, l)
		if err := r.subscribeLog(w.n.c, fmt.Sprintf("a%d", i), l, func(e stream.Element) (int64, int64, int64) {
			return intCol(e, 1), intCol(e, 0), intCol(e, 2)
		}); err != nil {
			return err
		}
		ql, err := r.registerTracked(w.n.c, fmt.Sprintf("a%d", i),
			fmt.Sprintf("select count(*) as c, max(hi) as hi, sum(n) as sn from a%d", i), perFeed)
		if err != nil {
			return err
		}
		w.tracked = append(w.tracked, ql)
	}
	for j := 0; j < pipeSecond; j++ {
		pair := []*obsLog{r.newObsLog(perFeed), r.newObsLog(perFeed)}
		w.tier2 = append(w.tier2, pair)
		err := r.subscribe(w.n.c, fmt.Sprintf("b%d", j), func(e stream.Element) {
			k := intCol(e, 0)
			if k < 0 || k > 1 {
				r.chk.ok(false, "b%d produced k=%d", j, k)
				return
			}
			pair[k].add(obs{t: r.now(), ts: int64(e.Timestamp()), mark: intCol(e, 1), a: intCol(e, 2), b: intCol(e, 3)})
		})
		if err != nil {
			return err
		}
	}
	// The Figure 4 load: seeded three-predicate queries, each registered
	// twice (half the texts are duplicates), evaluated and discarded.
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0x4f1))
	for j := 0; j < pipeSecond; j++ {
		for _, q := range figure4Queries(rng, pipeGenerated/pipeSecond/2) {
			sql := fmt.Sprintf("select count(*) as c, avg(sn) as a from b%d where %s", j, q.where)
			for range 2 {
				if _, err := w.n.c.RegisterQuery(fmt.Sprintf("b%d", j), sql, q.sampling, nil); err != nil {
					return err
				}
			}
		}
	}
	w.probe = newFeedProbe(w.n.c, w.hub)
	w.clients = []*queryClient{{
		url: w.n.url, pace: time.Second / time.Duration(r.cal.QueryRate), ticks: newTicks(),
		rng: rand.New(rand.NewSource(r.cfg.seed ^ 0x9e37)), http: r.http, next: w.nextStmt,
	}}
	return nil
}

// nextStmt draws the paced client's next statement: 80 % hot-window
// aggregates over an output table or a source window, 20 % TIMED ranges
// over the two history tables.
func (w *pipelineWorkload) nextStmt(n int, rng *rand.Rand) (stmt, bool) {
	if n%5 == 4 {
		i := 2 * rng.Intn(2) // a0 or a2 keep history
		return historyStmt(fmt.Sprintf("a%d", i), "hi", w.tier1[i], 1, 2000)
	}
	i := rng.Intn(pipeSensors)
	if i < 6 && rng.Intn(2) == 0 {
		f := w.feeds[i].f
		return stmt{
			sql: fmt.Sprintf("select count(*) as c, max(seq) as hi, sum(v) as sv from A%d__IN__S where v >= 0", i),
			check: func(_ []string, rows [][]any) string {
				v, msg := oneRow(rows, 3)
				if msg != "" {
					return msg
				}
				return checkFeedWindow(f, pipeWindow, v[0], v[1], v[2])
			},
		}, true
	}
	l := w.tier1[i]
	return stmt{
		sql:   fmt.Sprintf("select count(*) as c, max(hi) as hi, sum(n) as sn from a%d", i),
		check: func(_ []string, rows [][]any) string { return checkLogAnswer(l, pipeWindow, rows) },
	}, true
}

func (w *pipelineWorkload) start(r *run, g *group) {
	c := r.newConductor()
	c.feeds(w.feeds...)
	c.every(w.clients[0].pace, w.clients[0].ticks)
	c.every(r.cfg.deployEvery, w.probe.ticks)
	g.go_(func() { r.queryLoop(w.clients[0]) })
	g.go_(func() { r.deployLoop(w.probe) })
	ctx, cancel := context.WithCancel(context.Background())
	w.sseCancel, w.sseDone = cancel, make(chan struct{})
	go func() {
		defer close(w.sseDone)
		w.sse = readSSE(ctx, r, w.n.url+"/api/events?vs=b0")
	}()
}

func (w *pipelineWorkload) drained() bool {
	for i, fr := range w.feeds {
		if w.tier2[i%pipeSecond][i/pipeSecond].latest.Load() < fr.f.next {
			return false
		}
	}
	return true
}

func (w *pipelineWorkload) settle(r *run) error {
	for _, i := range []int{0, 2} { // the tables that keep history
		if err := r.fixTail(w.n.c, fmt.Sprintf("a%d", i), w.feeds[i], 1, w.drained); err != nil {
			return err
		}
	}
	return nil
}

func (w *pipelineWorkload) recoverOnce(r *run) error {
	// The two tables that keep history: the hot window comes back from
	// the WAL tail, the rest from the history tier.
	return w.station.recoverOnce(r, w.deployAll, []string{"a0", "a2"}, []*obsLog{w.tier1[0], w.tier1[2]})
}

// stopSSE ends the SSE client and waits until its events are in w.sse.
func (w *pipelineWorkload) stopSSE() {
	if w.sseCancel != nil {
		w.sseCancel()
		<-w.sseDone
		w.sseCancel = nil
	}
}

func (w *pipelineWorkload) close() error {
	w.stopSSE()
	return w.station.close()
}

func (w *pipelineWorkload) finish(r *run, m metrics) {
	w.stopSSE()
	for _, l := range w.tier1 {
		l.index()
	}
	// First tier: every output against the generated inputs.
	for i, l := range w.tier1 {
		f := w.feeds[i].f
		for _, o := range l.rows {
			msg := ""
			if i >= 6 {
				if want := min(o.mark, pipeWindow); o.a != want || o.b != want*camBytes {
					msg = fmt.Sprintf("(n=%d, sv=%d), want (%d, %d)", o.a, o.b, want, want*camBytes)
				}
			} else {
				msg = checkFeedWindow(f, pipeWindow, o.a, o.mark, o.b)
			}
			r.chk.ok(msg == "", "a%d output hi=%d: %s", i, o.mark, msg)
		}
	}
	// Second tier: every output against the first-tier log it was
	// computed from, and the hop's delay.
	var hop []int64
	for j, pair := range w.tier2 {
		for k, l := range pair {
			up := w.tier1[j+k*pipeSecond]
			for _, o := range l.rows {
				msg := up.window(o.mark, pipeHopWindow, o.a, o.b)
				r.chk.ok(msg == "", "b%d stream %d: %s", j, k, msg)
				if msg == "" && r.inWindow(o.t) {
					hop = append(hop, o.t-up.rows[up.find(o.mark)].t)
				}
			}
		}
	}
	// Tracked registered queries: every result against the output log.
	for i, ql := range w.tracked {
		for _, o := range ql.log.rows {
			msg := w.tier1[i].window(o.mark, pipeWindow, o.a, o.b)
			r.chk.ok(msg == "", "registered query on a%d: %s", i, msg)
		}
	}
	r.queryErrors(w.n.c)

	// Result latency: due → second-tier subscriber.
	var lat latencies
	var t2d []int64
	for i, fr := range w.feeds {
		r.coverLatencies(fr, &lat, w.tier2[i%pipeSecond][i/pipeSecond])
		t2d = r.sendToDelivery(t2d, fr, w.tier1[i])
	}
	r.resultMetrics(m, &lat)
	done := r.queryMetrics(m, w.clients)
	deploys := r.deployMetrics(m, w.probe)
	r.ops = int64(len(lat.ns)) + done + deploys
	r.opsUntraced = r.countBefore(w.feeds, w.clients)

	offered := 6*float64(r.cal.FeedRate) + 2*float64(r.cal.FeedRate)/50
	r.loadgenMetrics(m, w.feeds, offered)
	m.set("core.trigger_to_delivery_ms_p50", quantileOf(t2d, 0.5)/1e6, len(t2d))
	m.set("core.tier_hop_us_p50", quantileOf(hop, 0.5)/1e3, len(hop))
	coreCounts(m, w.n.c)
	r.checkNoDrops(m)
	w.sseMetrics(r, m)
	var stored int64 // rows the window wrote to the four permanent tables
	for i := 0; i < pipeSensors; i += 2 {
		for _, o := range w.tier1[i].rows {
			if r.inWindow(o.t) {
				stored++
			}
		}
	}
	r.storageMetrics(m, w.n.c, stored, stored*3*8)
	r.webMetrics(m, &w.seams, w.clients)
	if r.tr != nil {
		r.elementSpans(w.feeds, func(i int) (*obsLog, *obsLog, string) {
			return w.tier1[i], w.tier2[i%pipeSecond][i/pipeSecond], fmt.Sprintf("A%d", i)
		})
	}
}

// --- SSE client ----------------------------------------------------------

// sseEvent is one event the SSE client received from /api/events.
type sseEvent struct {
	t     int64
	k, hi int64
}

// readSSE consumes the event stream until ctx is cancelled.
func readSSE(ctx context.Context, r *run, url string) []sseEvent {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil
	}
	resp, err := (&http.Client{}).Do(req) // no timeout: the stream stays open
	if err != nil {
		r.chk.ok(false, "sse: %v", err)
		return nil
	}
	defer resp.Body.Close()
	var out []sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Values map[string]float64 `json:"values"`
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			r.chk.ok(false, "sse: undecodable event %q", line)
			continue
		}
		out = append(out, sseEvent{t: r.now(), k: int64(ev.Values["K"]), hi: int64(ev.Values["HI"])})
	}
	return out
}

// sseMetrics compares what the SSE client received with what the
// FuncChannel subscriber of the same sensor received.
func (w *pipelineWorkload) sseMetrics(r *run, m metrics) {
	var lag []int64
	delivered, total := 0, 0
	for _, l := range w.tier2[0] {
		for _, o := range l.rows {
			if r.inWindow(o.t) {
				total++
			}
		}
	}
	for _, ev := range w.sse {
		if ev.k < 0 || ev.k > 1 {
			continue
		}
		l := w.tier2[0][ev.k]
		if i := l.find(ev.hi); i >= 0 && r.inWindow(l.rows[i].t) {
			delivered++
			lag = append(lag, ev.t-l.rows[i].t)
		}
	}
	m.set("web.sse_lag_ms_p50", quantileOf(lag, 0.5)/1e6, len(lag))
	if total > 0 {
		m.set("web.sse_delivered_ratio", float64(delivered)/float64(total), total)
	}
}
