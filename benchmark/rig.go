package main

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"gsn/internal/core"
	"gsn/internal/notify"
	"gsn/internal/p2p"
	"gsn/internal/storage"
	"gsn/internal/web"
	"gsn/internal/wrappers"
)

// Subscription queue depths. The program's default (256) drops events
// when a subscriber falls behind; the oracle needs the benchmark's own
// subscribers to see every output, so the queues are deep enough never
// to drop at the frozen rates, and drops are still counted
// (notify.queue_dropped) and fail the run. The queue is allocated per
// subscription at full depth, so only the workloads whose outputs arrive
// in saturating bursts get the deep one.
const (
	notifyQueue     = 1 << 10
	notifyQueueDeep = 1 << 14
)

// node is one container with its interface layer on a loopback port.
type node struct {
	c   *core.Container
	web *web.Server
	fed *p2p.Federation // nil on a standalone node
	srv *http.Server
	url string
}

type nodeOptions struct {
	name    string
	dataDir string
	hub     *feedHub
	queue   int // subscription queue depth
	// The seams the traced run wraps; all nil in an untraced run.
	fs        storage.FS
	peerHTTP  *http.Client
	wrapHTTP  func(http.Handler) http.Handler
	clustered bool
}

func newNode(o nodeOptions) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	url := "http://" + ln.Addr().String()
	reg := wrappers.Default().Clone()
	if err := o.hub.register(reg); err != nil {
		ln.Close()
		return nil, err
	}
	c, err := core.New(core.Options{
		Name:        o.name,
		DataDir:     o.dataDir,
		Registry:    reg,
		NodeAddress: url,
		StorageFS:   o.fs,
		Notify:      notify.Options{QueueSize: o.queue},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	if err := p2p.RegisterRemoteHTTP(reg, c.Directory(), c.Keys(), o.peerHTTP); err != nil {
		c.Close()
		ln.Close()
		return nil, err
	}
	n := &node{c: c, web: web.NewServer(c, ""), url: url}
	if o.clustered {
		n.fed = p2p.NewFederation(c, o.peerHTTP)
		c.SetCluster(n.fed)
	}
	h := n.web.Handler()
	if o.wrapHTTP != nil {
		h = o.wrapHTTP(h)
	}
	n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go n.srv.Serve(ln) // returns when close() closes the server
	return n, nil
}

func (n *node) close() error {
	n.srv.Close()
	n.web.Close()
	return n.c.Close()
}

// station is the one node of a single-node workload, with what it takes
// to open it again on the same data directory.
type station struct {
	seams     seams
	hub       *feedHub
	n         *node
	name, dir string
	queue     int // subscription queue depth; 0 = notifyQueue
}

func (s *station) open(r *run) error {
	o := r.nodeOptions(&s.seams, s.name, s.dir, s.hub, false)
	if s.queue > 0 {
		o.queue = s.queue
	}
	var err error
	s.n, err = newNode(o)
	return err
}

func (s *station) close() error {
	if s.n == nil {
		return nil
	}
	err := s.n.close()
	s.n = nil
	return err
}

// recoverOnce closes the node and times its reopening (timedRecovery):
// the node, then deploy, then a verified range over each table.
func (s *station) recoverOnce(r *run, deploy func() error, tables []string, logs []*obsLog) error {
	if err := s.n.close(); err != nil {
		return err
	}
	return r.timedRecovery(func() (*node, error) {
		if err := s.open(r); err != nil {
			return nil, err
		}
		return s.n, deploy()
	}, tables, logs)
}

// obs is one result the benchmark observed: an output element at a
// subscriber, a registered-query callback, or an ad-hoc query answer.
type obs struct {
	t    int64 // receive time, ns since the rig's epoch
	ts   int64 // the element's TIMED (ms), 0 for query answers
	mark int64 // the result's newest contributing seq (its "hi")
	a, b int64 // the result's other checked columns
}

// obsLog is an append-only log of observations with non-decreasing
// marks, written by one goroutine (a subscription's delivery loop) and
// read after that goroutine has stopped. A mark can repeat: a trigger
// that was queued while the previous evaluation already saw its element
// evaluates the same window again and produces the same output twice.
// latest publishes the newest mark and TIMED so running clients can pick
// ranges that are complete.
type obsLog struct {
	rows     []obs
	latest   atomic.Int64 // newest mark
	latestTS atomic.Int64 // newest TIMED
	pre      []int64      // prefix sums of a, built by index()
}

func (r *run) newObsLog(capacity int) *obsLog { return &obsLog{rows: r.own.obsBuf(capacity)} }

// ownBuffers keeps the benchmark's own log buffers from one set-up round
// to the next. A workload's logs hold every emit and every result of a
// run (72 MB on ingest_saturate), and allocating them anew in every round
// was three quarters of that workload's setup_s: the benchmark's memory,
// zeroed at the memory's speed, timed as the system's set-up. Every round
// asks for the same buffers in the same order, so the n-th request of a
// round is served the n-th buffer of the round before, emptied; only the
// first round allocates. The round before has been quiesced and closed by
// then, so nothing still writes to it.
type ownBuffers struct {
	obs          [][]obs
	emits        [][]emitRec
	nObs, nEmits int // requests served in this round
}

// rewind starts a new round.
func (b *ownBuffers) rewind() { b.nObs, b.nEmits = 0, 0 }

func (b *ownBuffers) obsBuf(capacity int) []obs {
	if b.nObs == len(b.obs) || cap(b.obs[b.nObs]) != capacity {
		b.obs = append(b.obs[:b.nObs], make([]obs, 0, capacity))
	}
	b.nObs++
	return b.obs[b.nObs-1]
}

func (b *ownBuffers) emitBuf(capacity int) []emitRec {
	if b.nEmits == len(b.emits) || cap(b.emits[b.nEmits]) != capacity {
		b.emits = append(b.emits[:b.nEmits], make([]emitRec, 0, capacity))
	}
	b.nEmits++
	return b.emits[b.nEmits-1]
}

func (l *obsLog) add(o obs) {
	l.rows = append(l.rows, o)
	l.latestTS.Store(o.ts)
	l.latest.Store(o.mark)
}

// index builds the prefix sums the window checks use.
func (l *obsLog) index() {
	l.pre = make([]int64, len(l.rows)+1)
	for i, r := range l.rows {
		l.pre[i+1] = l.pre[i] + r.a
	}
}

// find returns the index of the first row with the given mark, or -1.
func (l *obsLog) find(mark int64) int {
	i := sort.Search(len(l.rows), func(i int) bool { return l.rows[i].mark >= mark })
	if i < len(l.rows) && l.rows[i].mark == mark {
		return i
	}
	return -1
}

// window checks a (count, sum(a)) pair against the count-w window ending
// at a row with the given mark — any of them, when the mark repeats. It
// returns "" on a match and the reference it expected otherwise.
func (l *obsLog) window(mark int64, w int, n, sum int64) string {
	i := l.find(mark)
	if i < 0 {
		return fmt.Sprintf("no output with hi=%d was ever delivered", mark)
	}
	var wantN, wantSum int64
	for ; i < len(l.rows) && l.rows[i].mark == mark; i++ {
		lo := max(i+1-w, 0)
		wantN, wantSum = int64(i+1-lo), l.pre[i+1]-l.pre[lo]
		if n == wantN && sum == wantSum {
			return ""
		}
	}
	return fmt.Sprintf("(count=%d, sum=%d) at hi=%d, want (%d, %d)", n, sum, mark, wantN, wantSum)
}

// filteredWindow checks (count, sum(a)) over the rows with a >= floor of
// a count-w window whose newest such row has the given mark. Rows below
// the floor may follow that row inside the window, so the window can
// end at any of them; every possible end is tried.
func (l *obsLog) filteredWindow(mark int64, w int, floor, n, sum int64) string {
	if n == 0 && mark == 0 {
		return "" // no row of the window passed the filter
	}
	first := l.find(mark)
	if first < 0 {
		return fmt.Sprintf("no output with hi=%d was ever delivered", mark)
	}
	var wantN, wantSum int64
	for end := first; end < len(l.rows); end++ {
		if end > first && l.rows[end].mark != mark && l.rows[end].a >= floor {
			break // a newer row passes the filter: max(hi) would be larger
		}
		wantN, wantSum = 0, 0
		for _, o := range l.rows[max(end+1-w, 0) : end+1] {
			if o.a >= floor {
				wantN++
				wantSum += o.a
			}
		}
		if n == wantN && sum == wantSum {
			return ""
		}
	}
	return fmt.Sprintf("(count=%d, sum=%d) of rows >= %d at hi=%d, want (%d, %d)", n, sum, floor, mark, wantN, wantSum)
}

// groupedWindow checks a (key, count, max(mark), sum(a)) answer grouped
// by key over the count-w window that ends at the answer's newest mark.
func (l *obsLog) groupedWindow(w int, rows [][]int64, key func(obs) int64) string {
	type group struct{ n, hi, sum int64 }
	got := map[int64]group{}
	newest := int64(0)
	for _, v := range rows {
		if len(v) != 4 {
			return fmt.Sprintf("a row has %d columns, want 4", len(v))
		}
		got[v[0]] = group{v[1], v[2], v[3]}
		newest = max(newest, v[2])
	}
	if len(got) != len(rows) {
		return "a group appears twice"
	}
	if len(rows) == 0 {
		return "" // the table was still empty
	}
	end := l.find(newest)
	if end < 0 {
		return fmt.Sprintf("no output with hi=%d was ever delivered", newest)
	}
	for ; end < len(l.rows) && l.rows[end].mark == newest; end++ {
		want := map[int64]group{}
		for _, o := range l.rows[max(end+1-w, 0) : end+1] {
			g := want[key(o)]
			want[key(o)] = group{g.n + 1, max(g.hi, o.mark), g.sum + o.a}
		}
		if len(want) != len(got) {
			continue
		}
		same := true
		for k, g := range want {
			same = same && got[k] == g
		}
		if same {
			return ""
		}
	}
	return fmt.Sprintf("the %d groups at hi=%d differ from the window's", len(rows), newest)
}

// timedRange returns count and sum(mark) of the rows with lo <= ts <= hi
// (TIMED is non-decreasing along the log).
func (l *obsLog) timedRange(lo, hi int64) (n, sumMark int64) {
	i := sort.Search(len(l.rows), func(i int) bool { return l.rows[i].ts >= lo })
	for ; i < len(l.rows) && l.rows[i].ts <= hi; i++ {
		n++
		sumMark += l.rows[i].mark
	}
	return n, sumMark
}

// firstCovering returns the receive time of the first row at or after
// index from whose mark reaches seq, and that row's index; -1 when the
// log never covers seq. Callers walk seq upwards, so from only grows.
func (l *obsLog) firstCovering(seq int64, from int) (t int64, idx int) {
	for i := from; i < len(l.rows); i++ {
		if l.rows[i].mark >= seq {
			return l.rows[i].t, i
		}
	}
	return 0, -1
}

// checker counts verified operations and keeps the first few mismatch
// messages for the report.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64
	msgs      chan string // buffered; overflow is dropped, the count is kept
}

func newChecker() *checker { return &checker{msgs: make(chan string, 16)} }

// ok records one attempted operation; a false cond records a failure.
func (c *checker) ok(cond bool, format string, args ...any) {
	c.attempted.Add(1)
	if !cond {
		c.fail(format, args...)
	}
}

// fail records a failure of an operation already counted as attempted.
func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	select {
	case c.msgs <- fmt.Sprintf(format, args...):
	default:
	}
}

func (c *checker) messages() []string {
	var out []string
	for {
		select {
		case m := <-c.msgs:
			out = append(out, m)
		default:
			return out
		}
	}
}
