package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/core"
	"gsn/internal/notify"
	"gsn/internal/stream"
)

// emitRec is one call into a feed's emit function.
type emitRec struct {
	seq        int64 // last seq the call carried
	due        int64 // when the call was due (open loop) or submitted (closed loop)
	start, end int64 // the emit call itself
}

// feedRun is a feed under load. One goroutine owns it: the conductor
// (open loop) or a producer (closed loop).
type feedRun struct {
	f      *feed
	period time.Duration // open loop: time between emits
	burst  int           // elements per emit
	emits  []emitRec

	// Closed loop on results: ready releases the next burst once a result
	// covering want (the previous burst's last seq) has been delivered.
	want  atomic.Int64
	ready chan struct{}
}

// newFeedRun prepares a feed that emits burst elements at a time,
// emitsPerSec times a second (0 = closed loop).
func (r *run) newFeedRun(f *feed, emitsPerSec float64, burst, capacity int) *feedRun {
	fr := &feedRun{f: f, burst: burst, emits: r.own.emitBuf(capacity), ready: make(chan struct{}, 1)}
	if emitsPerSec > 0 {
		fr.period = time.Duration(float64(time.Second) / emitsPerSec)
	}
	fr.ready <- struct{}{}
	return fr
}

// emit sends the feed's next emit, every element stamped ts.
func (fr *feedRun) emit(ts stream.Timestamp) bool {
	if fr.burst == 1 {
		return fr.f.emitNext(ts)
	}
	return fr.f.emitBurst(fr.burst, ts, 0)
}

// covered is called by the feed's result subscriber with each result's
// mark; it releases the closed loop's next burst.
func (fr *feedRun) covered(mark int64) {
	if mark >= fr.want.Load() {
		select {
		case fr.ready <- struct{}{}:
		default:
		}
	}
}

// ticks carries due times to a client goroutine. The sender never
// blocks: a client that falls behind finds its due times queued, and its
// latency, timed from them, shows the wait (see clientStart).
type ticks chan int64

func newTicks() ticks { return make(ticks, 1<<14) }

// fire hands a due time over; it reports false when the client is more
// than the channel's capacity behind.
func (t ticks) fire(due int64) bool {
	select {
	case t <- due:
		return true
	default:
		return false
	}
}

// conductor is the open loop's clock and its one generator goroutine.
// It is locked to a thread of its own and never sleeps while the load is
// on: this kind of machine wakes a sleeper 0.2 to 2 ms late, which is
// more than most of the latencies measured here, while a spinning thread
// is punctual to the microsecond. It emits every feed's elements on that
// feed's fixed schedule, whether or not the system keeps up, stamps each
// with its due time, and hands the query and deploy clients their due
// times. The price is one of the machine's two cores; the conductor
// reads its thread's CPU clock so cpu_us_per_op can leave the spinning
// out.
type conductor struct {
	r       *run
	sources []*source

	cpuNs  atomic.Int64 // the thread's CPU time, refreshed every millisecond
	emitNs atomic.Int64 // of which inside emit calls: the system's ingest path
	missed atomic.Int64 // due times a client's queue had no room for
}

type source struct {
	period  int64
	slot    int64 // start of the period the next due time lies in
	nextDue int64
	jitter  *rand.Rand // nil: strictly periodic
	fire    func(due int64)
}

// advance moves the source to its next due time.
func (s *source) advance() {
	s.slot += s.period
	s.nextDue = s.slot
	if s.jitter != nil {
		s.nextDue += s.jitter.Int63n(s.period)
	}
}

func (r *run) newConductor() *conductor {
	r.gen = &conductor{r: r}
	return r.gen
}

// feeds adds open-loop feeds, their first emits spread across a period
// so they do not fire together.
func (c *conductor) feeds(feeds ...*feedRun) {
	for i, fr := range feeds {
		c.sources = append(c.sources, &source{
			period: int64(fr.period),
			slot:   int64(fr.period) * int64(i+1) / int64(len(feeds)+1),
			fire:   func(due int64) { c.emit(fr, due) },
		})
	}
}

// every adds a client that is due once per period, at a seeded place
// inside each period: sensors tick like clocks, clients do not, and a
// client whose period divides another's would otherwise meet it at the
// same phase every time — always colliding with it or never.
func (c *conductor) every(period time.Duration, t ticks) {
	c.sources = append(c.sources, &source{
		period: int64(period),
		jitter: rand.New(rand.NewSource(c.r.cfg.seed ^ int64(len(c.sources)+1)*0x2545f491)),
		fire: func(due int64) {
			if !t.fire(due) {
				c.missed.Add(1)
			}
		},
	})
}

func (c *conductor) emit(fr *feedRun, due int64) {
	if hook := c.r.cfg.beforeEmit; hook != nil {
		hook()
	}
	t0 := c.r.now()
	if !fr.emit(c.r.stamp(due)) {
		return // wrapper not running (redeploy in progress)
	}
	t1 := c.r.now()
	fr.emits = append(fr.emits, emitRec{seq: fr.f.next, due: due, start: t0, end: t1})
	c.emitNs.Add(t1 - t0)
}

// run conducts until r.stop closes. It looks at r.stop and publishes its
// CPU clock once a millisecond, whether it is waiting for the next due
// time or working through sources that are overdue: a system slow enough
// to keep every source overdue must still be able to end the run.
func (c *conductor) run() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := c.r.now()
	for _, s := range c.sources {
		s.slot += start - s.period
		s.advance()
	}
	published := start
	for {
		s := c.sources[0]
		for _, o := range c.sources[1:] {
			if o.nextDue < s.nextDue {
				s = o
			}
		}
		for {
			now := c.r.now()
			if now-published > int64(time.Millisecond) {
				published = now
				c.cpuNs.Store(threadCPU())
				select {
				case <-c.r.stop:
					return
				default:
				}
			}
			if now >= s.nextDue {
				break
			}
		}
		due := s.nextDue
		s.advance()
		s.fire(due)
	}
}

// ackedLoop is one closed-loop producer over two feeds: a feed's next
// burst goes out as soon as the result covering its previous burst has
// been delivered, so each feed has at most one burst in flight and the
// producer's rate is the rate at which the system turns bursts into
// stored, delivered results. After every burst the producer calls
// between with the number of bursts it has sent: the workload's reads
// and deploys run there, on the producer's own goroutine, so what they
// time is the operation and not the wait for a processor that a separate
// client would have beside two saturating producers.
func (r *run) ackedLoop(a, b *feedRun, between func(sent int)) {
	for sent := 1; ; sent++ {
		var fr *feedRun
		select {
		case <-r.stop:
			return
		case <-a.ready:
			fr = a
		case <-b.ready:
			fr = b
		}
		t0 := r.now()
		fr.want.Store(fr.f.next + int64(fr.burst))
		if !fr.emit(r.stamp(t0)) {
			// Wrapper not running: hand the release back and try again.
			fr.covered(fr.want.Load())
			time.Sleep(time.Millisecond)
			continue
		}
		fr.emits = append(fr.emits, emitRec{seq: fr.f.next, due: t0, start: t0, end: r.now()})
		between(sent)
	}
}

// stamp converts a run offset to the element timestamp (wall-clock ms).
func (r *run) stamp(offset int64) stream.Timestamp {
	return stream.TimestampOf(r.epoch.Add(time.Duration(offset)))
}

// --- ad-hoc query clients ----------------------------------------------

const (
	kindHot = iota
	kindHistory
)

// stmt is one ad-hoc statement with the reference check of its answer.
// check runs after the run, when every log it reads is complete; it
// returns "" when the answer equals the reference.
type stmt struct {
	sql   string
	kind  int
	check func(cols []string, rows [][]any) string
}

// answer is one completed query: timed from t0 (see clientStart) to t1;
// lag is how long the idle client took to wake for it, -1 when the
// statement was due while the client was still busy.
type answer struct {
	st     stmt
	t0, t1 int64
	lag    int64
	cols   []string
	rows   [][]any
	err    string
}

// queryClient issues one statement over HTTP for every due time it is
// handed.
type queryClient struct {
	url   string
	pace  time.Duration // open loop: one statement every pace
	ticks ticks
	// ask sends a statement; nil asks url over HTTP.
	ask func(sql string) ([]string, [][]any, error)
	// next draws the client's i-th statement: i decides its kind, so every
	// run asks the same mix, and rng its parameters. False = nothing to
	// ask yet.
	next    func(i int, rng *rand.Rand) (stmt, bool)
	drawn   int
	rng     *rand.Rand
	http    *http.Client
	answers []answer
	idleAt  int64 // when the previous statement's answer came
}

type queryResponse struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

func (r *run) queryLoop(qc *queryClient) {
	for {
		var due int64
		select {
		case <-r.stop:
			return
		case due = <-qc.ticks:
		}
		r.askOnce(qc, due)
	}
}

// clientStart says where an operation a client was handed for due is
// timed from, and the client's lag. An operation that fell due while the
// client was still busy with the one before (busy until idleAt) is timed
// from its due time: that wait is the system's doing, and leaving it out
// would be coordinated omission. An operation that found the client idle
// is timed from the moment the client's goroutine got to it. The time
// from due to then is the conductor's hand-over: the woken goroutine sits
// in the run queue of the conductor's processor, which never yields, until
// the other processor has nothing of its own left and steals it — 0.1 ms
// on a quiet machine, milliseconds (and the median of a run moving by
// half) beside a busy neighbour. A client in a process of its own would
// not wait there, so it is the generator's lag
// (loadgen.client_lag_p50_ms), not the system's latency; lag is -1 for an
// operation timed from its due time.
func (r *run) clientStart(due, idleAt int64) (t0, lag int64) {
	if idleAt > due {
		return due, -1
	}
	now := r.now()
	return now, now - due
}

// askOnce draws the client's next statement, sends it and keeps the
// answer.
func (r *run) askOnce(qc *queryClient, due int64) {
	st, ok := qc.next(qc.drawn, qc.rng)
	if !ok {
		return
	}
	qc.drawn++
	a := answer{st: st}
	a.t0, a.lag = r.clientStart(due, qc.idleAt)
	var err error
	if qc.ask != nil {
		a.cols, a.rows, err = qc.ask(st.sql)
	} else {
		a.cols, a.rows, err = postQuery(qc.http, qc.url, st.sql)
	}
	a.t1 = r.now()
	qc.idleAt = a.t1
	if err != nil {
		a.err = err.Error()
	}
	qc.answers = append(qc.answers, a)
}

func postQuery(c *http.Client, url, sql string) ([]string, [][]any, error) {
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.Post(url+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("POST /api/query: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		return nil, nil, err
	}
	return qr.Columns, qr.Rows, nil
}

// askDirect sends statements to a container in-process.
func askDirect(c *core.Container) func(sql string) ([]string, [][]any, error) {
	return func(sql string) ([]string, [][]any, error) {
		rel, err := c.Query(sql)
		if err != nil {
			return nil, nil, err
		}
		cols := make([]string, len(rel.Cols))
		for i, col := range rel.Cols {
			cols[i] = col.Name
		}
		rows := make([][]any, len(rel.Rows))
		for i, row := range rel.Rows {
			rows[i] = make([]any, len(row))
			for j, v := range row {
				rows[i][j] = v
			}
		}
		return cols, rows, nil
	}
}

// num reads a number cell as int64 — a JSON number, or an integer or
// float straight from the engine; null reads as 0. ok is false for
// anything else.
func num(v any) (int64, bool) {
	switch n := v.(type) {
	case nil:
		return 0, true // an aggregate over no rows
	case float64:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

// oneRow unpacks a single-row all-numeric answer.
func oneRow(rows [][]any, want int) ([]int64, string) {
	if len(rows) != 1 || len(rows[0]) != want {
		return nil, fmt.Sprintf("answer has %d rows, want 1 row of %d columns", len(rows), want)
	}
	all, msg := numRows(rows)
	if msg != "" {
		return nil, msg
	}
	return all[0], ""
}

// numRows unpacks an all-numeric answer.
func numRows(rows [][]any) ([][]int64, string) {
	out := make([][]int64, len(rows))
	for r, row := range rows {
		out[r] = make([]int64, len(row))
		for i, c := range row {
			v, ok := num(c)
			if !ok {
				return nil, fmt.Sprintf("row %d column %d is %v, want a number", r, i, c)
			}
			out[r][i] = v
		}
	}
	return out, ""
}

// --- deploy probe --------------------------------------------------------

// deployProbe measures the paper's title claim under load: every
// deployEvery it deploys one more descriptor, feeds it one element,
// waits for the sensor's first output, and undeploys it again.
type deployProbe struct {
	c *core.Container
	// f feeds the probe sensor its one element; nil when the descriptor's
	// source is an upstream sensor that is already producing (a remote
	// composition edge delivers its backlog), and then newest bounds hi.
	f      *feed
	xml    string
	newest func() int64
	ticks  ticks
	// Every deploy and undeploy, by the one goroutine that runs the probe:
	// where it is timed from (run offset; see clientStart), how long after
	// that it was done, how much of that the call waited behind the
	// previous round, and the idle probe's lag (-1: timed from its due
	// time).
	deploys, undeploys []timed
	idleAt             int64 // when the previous round's undeploy returned
}

type timed struct{ at, ns, wait, lag int64 }

// newFeedProbe is the probe over a feed of the benchmark's own.
func newFeedProbe(c *core.Container, hub *feedHub) *deployProbe {
	return &deployProbe{c: c, f: hub.feed("probe", false), xml: feedProbeXML, ticks: newTicks()}
}

const feedProbeXML = `
<virtual-sensor name="probe">
  <output-structure>
    <field name="n" type="integer"/>
    <field name="hi" type="integer"/>
  </output-structure>
  <storage size="10"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="10">
      <address wrapper="feed"><predicate key="id" val="probe"/></address>
      <query>select count(*) as n, max(seq) as hi from WRAPPER where v >= 0</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`

func (r *run) deployLoop(p *deployProbe) {
	for {
		select {
		case <-r.stop:
			return
		case due := <-p.ticks:
			r.deployOnce(p, due)
		}
	}
}

// deployOnce runs the probe once: a deploy that had to wait for the
// previous round shows the wait.
func (r *run) deployOnce(p *deployProbe, due int64) {
	got := make(chan [2]int64, 4)
	t0, lag := r.clientStart(due, p.idleAt)
	wait := r.now() - t0
	defer func() { p.idleAt = r.now() }()
	_, err := p.c.Subscribe("probe", notify.FuncChannel{Fn: func(ev notify.Event) error {
		n, _ := ev.Element.Value(0).(int64)
		hi, _ := ev.Element.Value(1).(int64)
		select {
		case got <- [2]int64{n, hi}:
		default:
		}
		return nil
	}})
	if err == nil {
		err = p.c.DeployXML([]byte(p.xml))
	}
	if err != nil {
		r.chk.ok(false, "deploy probe: %v", err)
		return
	}
	if p.f != nil {
		<-p.f.started
		p.f.emitNext(r.stamp(r.now()))
	}
	select {
	case v := <-got:
		d := r.now() - t0
		if p.f != nil {
			r.chk.ok(v[0] == 1 && v[1] == p.f.next, "deploy probe: first output (n=%d, hi=%d), want (1, %d)", v[0], v[1], p.f.next)
		} else {
			r.chk.ok(v[0] >= 1 && v[1] >= 1 && v[1] <= p.newest(), "deploy probe: first output (n=%d, hi=%d), want hi in [1, %d]", v[0], v[1], p.newest())
		}
		p.deploys = append(p.deploys, timed{at: t0, ns: d, wait: wait, lag: lag})
	case <-time.After(drainTimeout):
		r.chk.ok(false, "deploy probe: no output within %v", drainTimeout)
	}
	t1 := r.now()
	if err := p.c.Undeploy("probe"); err != nil {
		r.chk.ok(false, "undeploy probe: %v", err)
		return
	}
	p.undeploys = append(p.undeploys, timed{at: t1, ns: r.now() - t1})
}

// group runs load goroutines and waits for all of them.
type group struct{ wg sync.WaitGroup }

func (g *group) go_(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fn()
	}()
}
