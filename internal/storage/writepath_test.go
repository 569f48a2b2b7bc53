package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/stream"
)

// prodSchema tags every element with its producer and per-producer
// sequence number, so the write-path tests can check FIFO, exactly-once
// and ordering properties after arbitrary interleaving.
var prodSchema = stream.MustSchema(
	stream.Field{Name: "producer", Type: stream.TypeInt},
	stream.Field{Name: "seq", Type: stream.TypeInt},
	stream.Field{Name: "value", Type: stream.TypeInt},
)

func prodElem(t testing.TB, producer, seq, value int64) stream.Element {
	t.Helper()
	e, err := stream.NewElement(prodSchema, stream.Timestamp(producer*1_000_000+seq), producer, seq, value)
	if err != nil {
		t.Fatalf("NewElement: %v", err)
	}
	return e
}

type prodKey struct{ producer, seq int64 }

func elemKey(e stream.Element) prodKey {
	return prodKey{e.Value(0).(int64), e.Value(1).(int64)}
}

func elemKeys(elems []stream.Element) []prodKey {
	keys := make([]prodKey, len(elems))
	for i, e := range elems {
		keys[i] = elemKey(e)
	}
	return keys
}

// prodKeyString names a producer element in a reader's log.
func prodKeyString(e stream.Element) string { return fmt.Sprint(elemKey(e)) }

// produce runs the producers concurrently: producer p inserts elements
// (p, 0..perProducer-1) in order, as single Inserts or as InsertBatches
// of 1–7, and bumps acked[p] by the number of elements each returned
// call covered.
func produce(t *testing.T, tab *Table, producers, perProducer int, form func(rng *rand.Rand) bool, acked []atomic.Int64) *sync.WaitGroup {
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + p)))
			for seq := 0; seq < perProducer; {
				n := 1
				batch := form(rng)
				if batch {
					n += rng.Intn(7)
					if rest := perProducer - seq; n > rest {
						n = rest
					}
				}
				elems := make([]stream.Element, n)
				for i := range elems {
					elems[i] = prodElem(t, int64(p), int64(seq+i), rng.Int63n(1000))
				}
				var err error
				if batch {
					err = tab.InsertBatch(elems)
				} else {
					err = tab.Insert(elems[0])
				}
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				seq += n
				if acked != nil {
					acked[p].Add(int64(n))
				}
			}
		}(p)
	}
	return &wg
}

// TestCrashMatrix is the one statement of the durability contract
// (docs/operations.md "Durability contract") as a test: every sync
// policy × 1 and 8 producers × Insert and InsertBatch, with the data
// directory crash-copied mid-run, after the last ack and after a Flush
// barrier. Every copy must reopen to a prefix of the window-commit
// order (WAL order ≡ window order, per-producer FIFO, nothing twice);
// under always/durable every element acked before a copy was taken must
// be in it; after the barrier — and after a clean Close — everything is.
func TestCrashMatrix(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncDurable, SyncInterval, SyncNone} {
		if p, ok := ParseSyncPolicy(policy.String()); !ok || p != policy {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", policy.String(), p, ok)
		}
		for _, producers := range []int{1, 8} {
			for _, batch := range []bool{false, true} {
				form := "Insert"
				if batch {
					form = "InsertBatch"
				}
				t.Run(fmt.Sprintf("%s/%dp/%s", policy, producers, form), func(t *testing.T) {
					crashMatrixCell(t, policy, producers, batch)
				})
			}
		}
	}
}

func crashMatrixCell(t *testing.T, policy SyncPolicy, producers int, batch bool) {
	const perProducer = 150
	total := producers * perProducer
	waits := policy == SyncAlways || policy == SyncDurable
	opts := TableOptions{
		Window:          stream.Window{Kind: stream.CountWindow, Count: total},
		Permanent:       true,
		Sync:            policy,
		FlushInterval:   time.Millisecond, // the interval flusher takes part
		FlushBytes:      512,              // and so do the byte thresholds
		RecoverInterval: -1,
	}
	dir := t.TempDir()
	store, err := NewStore(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tab, err := store.CreateTable("m", prodSchema, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A copy is a crash image plus, per producer, how many elements were
	// acked before the copy began.
	type image struct {
		what  string
		dir   string
		acked []int64
	}
	acked := make([]atomic.Int64, producers)
	snap := func(what string) image {
		im := image{what: what, acked: make([]int64, producers)}
		for p := range acked {
			im.acked[p] = acked[p].Load()
		}
		im.dir = crashCopy(t, dir)
		return im
	}

	wg := produce(t, tab, producers, perProducer, func(*rand.Rand) bool { return batch }, acked)
	waitCond(t, "a third of the run acked", func() bool {
		sum := int64(0)
		for p := range acked {
			sum += acked[p].Load()
		}
		return sum >= int64(total/3) || t.Failed()
	})
	images := []image{snap("mid-run")}
	wg.Wait()
	if t.Failed() {
		return
	}
	images = append(images, snap("after the last ack"))
	if waits && producers == 1 && !batch {
		// A lone producer's commits are its own: one per call, none
		// deferred past the ack.
		if got := tab.Stats().LogFlushes; got != uint64(total) {
			t.Errorf("%d serial %s inserts took %d commits, want one each", total, policy, got)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	images = append(images, snap("after Flush"))
	// The window holds every element: it is the window-commit order.
	var order []prodKey
	tab.ReadWindow(func(first uint64, live []stream.Element) {
		if first != 0 {
			t.Errorf("the window starts at ordinal %d, want 0", first)
		}
		order = elemKeys(live)
	})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	images = append(images, image{what: "after Close", dir: dir, acked: images[2].acked})

	if len(order) != total {
		t.Fatalf("window committed %d elements, want %d", len(order), total)
	}
	for i, im := range images {
		s2, err := NewStore(nil, im.dir)
		if err != nil {
			t.Fatal(err)
		}
		tab2, err := s2.CreateTable("m", prodSchema, opts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", im.what, err)
		}
		got := elemKeys(tab2.Snapshot())
		s2.Close()
		if len(got) > total {
			t.Fatalf("%s: reopened to %d elements of %d inserted", im.what, len(got), total)
		}
		// WAL order ≡ window order: the image is a prefix of the commit
		// order.
		present := make([]int64, producers)
		for j, k := range got {
			if k != order[j] {
				t.Fatalf("%s: reopened element %d is %+v, window committed %+v there", im.what, j, k, order[j])
			}
			// Per-producer FIFO and exactly-once: each producer's
			// elements appear as 0, 1, 2, … with no gap and no repeat.
			if k.seq != present[k.producer] {
				t.Fatalf("%s: producer %d seq %d follows %d elements (FIFO / exactly-once violated)",
					im.what, k.producer, k.seq, present[k.producer])
			}
			present[k.producer]++
		}
		// Acked ⇒ durable.
		if waits || i >= 2 {
			for p, n := range im.acked {
				if present[p] < n {
					t.Errorf("%s: producer %d had %d elements acked, the image holds %d", im.what, p, n, present[p])
				}
			}
		}
		if i >= 2 && len(got) != total {
			t.Errorf("%s: reopened to %d elements, want all %d", im.what, len(got), total)
		}
	}
}

// TestConcurrentInsertEquivalence is the concurrency property of the
// write path: 8 producers push random Insert/InsertBatch splits while a
// reader catches up with the window over and over, and every window the
// reader saw (inserts and evictions by ordinal), the final window and
// the WAL must be exactly what replaying the window-commit order
// serially produces — concurrency decides the order and nothing else.
// The order is the WAL's, whose records are staged in window order. It
// runs on a window that evicts while the producers run, and on one that
// holds every arrival: there the final window is the whole publish
// order, so every arrival's place in it is checked against the WAL
// however few windows the reader sampled mid-run.
func TestConcurrentInsertEquivalence(t *testing.T) {
	const (
		producers   = 8
		perProducer = 250
		total       = producers * perProducer
	)
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, windowSize := range []int{256, total} {
				t.Run(fmt.Sprintf("window%d", windowSize), func(t *testing.T) {
					checkConcurrentInsertEquivalence(t, policy, producers, perProducer, windowSize)
				})
			}
		})
	}
}

func checkConcurrentInsertEquivalence(t *testing.T, policy SyncPolicy, producers, perProducer, windowSize int) {
	total := producers * perProducer
	opts := TableOptions{
		Window:          stream.Window{Kind: stream.CountWindow, Count: windowSize},
		Permanent:       true,
		Sync:            policy,
		RecoverInterval: -1,
	}
	dir := t.TempDir()
	store, err := NewStore(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	conc, err := store.CreateTable("conc", prodSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	// seen[i] is one window the reader caught up with: its first
	// ordinal and its rows. The last is read after every producer
	// returned.
	type window struct {
		first uint64
		keys  []prodKey
	}
	var seen []window
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	rd := &windowReader{key: prodKeyString}
	sample := func(first uint64, live []stream.Element) {
		rd.catchUp(first, live)
		seen = append(seen, window{first, elemKeys(live)})
	}
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			conc.ReadWindow(sample)
		}
	}()
	produce(t, conc, producers, perProducer, func(rng *rand.Rand) bool { return rng.Intn(2) == 0 }, nil).Wait()
	close(stop)
	<-readerDone
	conc.ReadWindow(sample)
	if err := conc.Flush(); err != nil {
		t.Fatal(err)
	}
	_, order, err := ReplayLog(filepath.Join(dir, "CONC.gsnlog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != total {
		t.Fatalf("window committed %d elements, want %d", len(order), total)
	}
	next := make([]int64, producers)
	for i, e := range order {
		k := elemKey(e)
		if k.seq != next[k.producer] {
			t.Fatalf("commit order position %d: producer %d seq %d, want %d (FIFO violated)",
				i, k.producer, k.seq, next[k.producer])
		}
		next[k.producer]++
	}

	// The serial replay, read after every insert: each window is the
	// last windowSize elements of the order so far.
	serial, err := store.CreateTable("serial", prodSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	srd := &windowReader{key: prodKeyString}
	for i, e := range order {
		if err := serial.Insert(e); err != nil {
			t.Fatal(err)
		}
		srd.read(serial)
		if lo := max(0, i+1-windowSize); srd.first != uint64(lo) || len(srd.mirror) != i+1-lo {
			t.Fatalf("serial window after %d inserts: %d rows from ordinal %d", i+1, len(srd.mirror), srd.first)
		}
	}
	if err := serial.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every window the reader saw, the final one included, is the serial
	// replay's window after as many arrivals.
	orderKeys := elemKeys(order)
	for _, w := range seen {
		end := int(w.first) + len(w.keys)
		if lo := max(0, end-windowSize); int(w.first) != lo {
			t.Fatalf("a concurrent read saw %d rows from ordinal %d, the serial window after %d arrivals starts at %d",
				len(w.keys), w.first, end, lo)
		}
		for i, k := range w.keys {
			if k != orderKeys[int(w.first)+i] {
				t.Fatalf("a concurrent read saw %+v at ordinal %d, the commit order has %+v",
					k, int(w.first)+i, orderKeys[int(w.first)+i])
			}
		}
	}
	// The final window is the last min(total, windowSize) arrivals: with
	// a window that holds them all, the whole publish order.
	last := seen[len(seen)-1]
	if want := max(0, total-windowSize); int(last.first) != want || int(last.first)+len(last.keys) != total {
		t.Fatalf("the final read saw %d rows from ordinal %d, want the arrivals from %d to %d",
			len(last.keys), last.first, want, total)
	}
	if rd.first != last.first || rd.first != srd.first || len(rd.mirror) != len(srd.mirror) {
		t.Fatalf("the reader ended at %d rows from ordinal %d, the serial one at %d from %d",
			len(rd.mirror), rd.first, len(srd.mirror), srd.first)
	}
	t.Logf("the reader caught up %d times", len(seen))
	if got, want := elemBytes(conc.Snapshot()), elemBytes(serial.Snapshot()); string(got) != string(want) {
		t.Fatal("concurrent and serial windows differ")
	}
	_, serialRep, err := ReplayLog(filepath.Join(dir, "SERIAL.gsnlog"))
	if err != nil {
		t.Fatal(err)
	}
	if string(elemBytes(order)) != string(elemBytes(serialRep)) {
		t.Fatalf("WAL replay: concurrent %d records, serial %d, want %d identical ones",
			len(order), len(serialRep), total)
	}
}

// gateFS holds .gsnlog writes — or, with atSync, .gsnlog fdatasyncs — at
// a gate, so a test can park a group commit's leader inside the syscall
// while followers arrive. It also counts the .gsnlog's Sync calls.
type gateFS struct {
	FS
	mu      sync.Mutex
	hold    chan struct{} // non-nil: gated calls block until it is closed
	waiting chan struct{} // one token per call that reached the gate
	atSync  bool          // gate Sync, not Write
	syncs   atomic.Int64
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".gsnlog") {
		return f, err
	}
	return &gateFile{File: f, g: g}, nil
}

func (g *gateFS) pass() {
	g.mu.Lock()
	hold := g.hold
	g.mu.Unlock()
	if hold != nil {
		g.waiting <- struct{}{}
		<-hold
	}
}

type gateFile struct {
	File
	g *gateFS
}

func (f *gateFile) Write(p []byte) (int, error) {
	if !f.g.atSync {
		f.g.pass()
	}
	return f.File.Write(p)
}

func (f *gateFile) Sync() error {
	f.g.syncs.Add(1)
	if f.g.atSync {
		f.g.pass()
	}
	return f.File.Sync()
}

// TestDurableProducersShareCommit: under sync=durable, producers that
// arrive while a commit is on the disk ride the next one together. The
// leader is parked inside its fdatasync while N followers stage behind
// it; once released, the N followers' rows must go out as one group —
// two fdatasyncs for N+1 acked appends, not N+1 — and every acked row
// must be in a crash image taken after the last ack.
func TestDurableProducersShareCommit(t *testing.T) {
	const followers = 7
	dir := t.TempDir()
	store, err := NewStore(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	gate := &gateFS{FS: DefaultFS(), atSync: true, waiting: make(chan struct{}, 1+followers)}
	store.SetFS(gate)
	opts := TableOptions{
		Window:          stream.Window{Kind: stream.CountWindow, Count: 64},
		Permanent:       true,
		Sync:            SyncDurable,
		RecoverInterval: -1,
	}
	tab, err := store.CreateTable("share", prodSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	syncs := gate.syncs.Load()
	hold := make(chan struct{})
	gate.mu.Lock()
	gate.hold = hold
	gate.mu.Unlock()

	var acked atomic.Int64
	var wg sync.WaitGroup
	insert := func(e stream.Element) {
		defer wg.Done()
		if err := tab.Insert(e); err != nil {
			t.Errorf("producer %d: %v", elemKey(e).producer, err)
		}
		acked.Add(1)
	}
	wg.Add(1 + followers)
	go insert(prodElem(t, 0, 0, 0))
	<-gate.waiting // the leader is inside its fdatasync
	for f := int64(1); f <= followers; f++ {
		go insert(prodElem(t, f, 0, f))
	}
	// Rows are staged and published under one lock, so once the window
	// holds them all every follower's record is staged behind the
	// parked leader.
	waitCond(t, "followers staged behind the parked leader", func() bool { return tab.Len() == 1+followers })
	if n := acked.Load(); n != 0 {
		t.Fatalf("%d producers acked before their rows were fdatasynced", n)
	}
	close(hold)
	wg.Wait()

	if got := gate.syncs.Load() - syncs; got > 2 {
		t.Errorf("%d durable appends took %d fdatasyncs, want at most 2 (the leader's, then one shared by the followers)",
			1+followers, got)
	}
	s2, err := NewStore(nil, crashCopy(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tab2, err := s2.CreateTable("share", prodSchema, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	present := map[int64]bool{}
	for _, k := range elemKeys(tab2.Snapshot()) {
		present[k.producer] = true
	}
	if tab2.Len() != 1+followers || len(present) != 1+followers {
		t.Errorf("crash image reopened to %d rows from %d producers, want all %d acked rows",
			tab2.Len(), len(present), 1+followers)
	}
}

// TestLeaderCommitFailureDegradesFollowers: the leader of a group commit
// is parked in its write while followers stage behind it — their rows
// are already visible (readers do not queue behind the syscall) but not
// one is acked. The write (or, under durable, the fdatasync) then
// fails: the leader and every follower of that group must come back
// degraded, each owning up to its rows in DegradedAppends, and no
// follower may try a write of its own on the poisoned log.
func TestLeaderCommitFailureDegradesFollowers(t *testing.T) {
	cases := []struct {
		name   string
		policy SyncPolicy
		fault  Fault
	}{
		{"write fails", SyncAlways, Fault{Op: OpWrite, Path: ".gsnlog", Count: -1}},
		{"fdatasync fails", SyncDurable, Fault{Op: OpSync, Path: ".gsnlog", Count: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const followers = 5
			store, err := NewStore(nil, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ffs := NewFaultFS(nil)
			gate := &gateFS{FS: ffs, waiting: make(chan struct{}, 1+followers)}
			store.SetFS(gate)
			tab, err := store.CreateTable("g", prodSchema, TableOptions{
				Window:          stream.Window{Kind: stream.CountWindow, Count: 64},
				Permanent:       true,
				Sync:            tc.policy,
				RecoverInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 3; i++ { // a healthy, committed prefix
				if err := tab.Insert(prodElem(t, 0, i, i)); err != nil {
					t.Fatal(err)
				}
			}
			writes := ffs.OpCount(OpWrite)

			hold := make(chan struct{})
			gate.mu.Lock()
			gate.hold = hold
			gate.mu.Unlock()
			ffs.Inject(tc.fault)

			var acked atomic.Int64
			var wg sync.WaitGroup
			insert := func(p int64, n int) {
				defer wg.Done()
				elems := make([]stream.Element, n)
				for i := range elems {
					elems[i] = prodElem(t, p, int64(i), 0)
				}
				if err := tab.InsertBatch(elems); err != nil {
					t.Errorf("producer %d: degraded insert must still ack, got %v", p, err)
				}
				acked.Add(1)
			}
			wg.Add(1)
			go insert(1, 1)
			<-gate.waiting // the leader is inside its write
			rows := 1
			for f := 0; f < followers; f++ {
				wg.Add(1)
				go insert(int64(2+f), 1+f%2) // a mix of singles and batches
				rows += 1 + f%2
			}
			// Visible before acked: every follower's rows reach the window
			// while the leader still holds the commit.
			waitCond(t, "followers published behind the parked leader", func() bool { return tab.Len() == 3+rows })
			if n := acked.Load(); n != 0 {
				t.Fatalf("%d producers acked before the group commit finished", n)
			}
			close(hold)
			wg.Wait()

			st := tab.Stats()
			if !st.Degraded {
				t.Fatalf("table not degraded after the leader's commit failed: %+v", st)
			}
			if st.DegradedAppends != uint64(rows) {
				t.Errorf("DegradedAppends = %d, want %d (every row of the failed group, nothing else)", st.DegradedAppends, rows)
			}
			if st.LogErrors != 1+followers {
				t.Errorf("LogErrors = %d, want %d (one per producer of the failed group)", st.LogErrors, 1+followers)
			}
			if got := ffs.OpCount(OpWrite) - writes; got != 1 {
				t.Errorf("the failed group took %d write syscalls, want the leader's one", got)
			}
			// A poisoned log acks nothing, not even a sequence number it
			// committed while healthy: CommitThrough checks the poison
			// before the committed boundary.
			if err := tab.log.CommitThrough(1); err == nil {
				t.Error("CommitThrough on a poisoned log acked an already-committed record")
			}
			// And the usual way out still works.
			ffs.Clear()
			if err := tab.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if err := tab.Insert(prodElem(t, 9, 0, 0)); err != nil {
				t.Fatal(err)
			}
			_, rep, err := ReplayLog(filepath.Join(store.dataDir, "G.gsnlog"))
			if err != nil || len(rep) != 3+rows+1 {
				t.Fatalf("after recovery the WAL holds %d records (err %v), want %d", len(rep), err, 3+rows+1)
			}
		})
	}
}

// TestBackgroundFlushFaultRacingClose: Close must not hold the table
// lock while it waits for the flusher — a flusher whose commit fails
// reports through OnError, which takes that lock, and the two used to
// wait for each other forever.
func TestBackgroundFlushFaultRacingClose(t *testing.T) {
	store, err := NewStore(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(nil)
	gate := &gateFS{FS: ffs, waiting: make(chan struct{}, 1)}
	store.SetFS(gate)
	tab, err := store.CreateTable("bgclose", prodSchema, TableOptions{
		Window:          stream.Window{Kind: stream.CountWindow, Count: 64},
		Permanent:       true,
		Sync:            SyncInterval,
		FlushInterval:   time.Millisecond,
		RecoverInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	gate.mu.Lock()
	gate.hold = hold
	gate.mu.Unlock()
	ffs.Inject(Fault{Op: OpWrite, Path: ".gsnlog", Count: -1})
	if err := tab.Insert(prodElem(t, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	<-gate.waiting // the flusher is inside the commit that will fail

	log := tab.log
	closed := make(chan error, 1)
	go func() { closed <- tab.Close() }()
	waitCond(t, "Close waiting for the flusher", log.isClosed)
	close(hold)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		// No store.Close on this path: it would hang on the same lock.
		t.Fatal("Table.Close hung behind a flusher reporting a failed commit")
	}
	store.Close()
}
