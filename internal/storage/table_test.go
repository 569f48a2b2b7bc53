package storage

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gsn/internal/stream"
)

var tempSchema = stream.MustSchema(
	stream.Field{Name: "temperature", Type: stream.TypeInt},
)

func intElem(t *testing.T, ts stream.Timestamp, v int64) stream.Element {
	t.Helper()
	e, err := stream.NewElement(tempSchema, ts, v)
	if err != nil {
		t.Fatalf("NewElement: %v", err)
	}
	return e
}

func TestCountWindowEviction(t *testing.T) {
	clock := stream.NewManualClock(0)
	tab, err := NewTable("t", tempSchema, stream.MustWindow("3"), clock)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := tab.Insert(intElem(t, stream.Timestamp(i), i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	snap := tab.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("live = %d, want 3", len(snap))
	}
	if snap[0].Value(0) != int64(3) || snap[2].Value(0) != int64(5) {
		t.Errorf("window contents = %v", snap)
	}
	st := tab.Stats()
	if st.Inserted != 5 || st.Evicted != 2 || st.Live != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTimeWindowEviction(t *testing.T) {
	clock := stream.NewManualClock(0)
	tab, err := NewTable("t", tempSchema, stream.MustWindow("10s"), clock)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	for i := 0; i < 5; i++ {
		clock.Advance(3 * time.Second) // t = 3s, 6s, 9s, 12s, 15s
		e := intElem(t, clock.Now(), int64(i))
		if err := tab.Insert(e); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// now = 15s; 10s window keeps ts > 5s → elements at 6,9,12,15.
	if n := tab.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	// Advance without inserting: expiry must apply on read.
	clock.Advance(6 * time.Second) // now = 21s, keeps ts > 11s → 12s, 15s
	if n := tab.Len(); n != 2 {
		t.Fatalf("Len after advance = %d, want 2", n)
	}
	clock.Advance(time.Hour)
	if n := tab.Len(); n != 0 {
		t.Fatalf("Len after hour = %d, want 0", n)
	}
}

func TestInsertSchemaMismatch(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("5"), nil)
	other := stream.MustSchema(stream.Field{Name: "x", Type: stream.TypeFloat})
	e, _ := stream.NewElement(other, 1, 1.0)
	if err := tab.Insert(e); err == nil {
		t.Fatal("Insert accepted mismatched schema")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("t", nil, stream.MustWindow("5"), nil); err == nil {
		t.Error("accepted nil schema")
	}
	if _, err := NewTable("t", tempSchema, stream.Window{Kind: stream.CountWindow}, nil); err == nil {
		t.Error("accepted zero count window")
	}
	if _, err := NewTable("t", tempSchema, stream.Window{Kind: stream.TimeWindow}, nil); err == nil {
		t.Error("accepted zero time window")
	}
}

func TestLastAndSinceAndLatest(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("100"), stream.NewManualClock(0))
	for i := int64(1); i <= 10; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i*100), i))
	}
	last := tab.Last(3)
	if len(last) != 3 || last[0].Value(0) != int64(8) {
		t.Errorf("Last(3) = %v", last)
	}
	if got := tab.Last(0); got != nil {
		t.Errorf("Last(0) = %v", got)
	}
	if got := tab.Last(99); len(got) != 10 {
		t.Errorf("Last(99) returned %d", len(got))
	}
	latest, ok := tab.Latest()
	if !ok || latest.Value(0) != int64(10) {
		t.Errorf("Latest = %v, %v", latest, ok)
	}
	tab.Truncate()
	if _, ok := tab.Latest(); ok {
		t.Error("Latest after Truncate should report empty")
	}
}

// TestChangedSignal pins the change signal long polls wait on: one
// channel per generation, closed by the next insert, Truncate or Close
// (never by a read), and already closed once the table is.
func TestChangedSignal(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("2"), stream.NewManualClock(0))
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	ch := tab.Changed()
	if tab.Changed() != ch {
		t.Fatal("two waits in one generation got different channels")
	}
	tab.Snapshot()
	tab.Version()
	if closed(ch) {
		t.Fatal("a read closed the change signal")
	}
	tab.Insert(intElem(t, 1, 1))
	if !closed(ch) {
		t.Fatal("an insert left the change signal open")
	}
	ch = tab.Changed()
	if closed(ch) {
		t.Fatal("the next generation started closed")
	}
	tab.Truncate()
	if !closed(ch) {
		t.Fatal("Truncate left the change signal open")
	}
	ch = tab.Changed()
	tab.Close()
	if !closed(ch) || !closed(tab.Changed()) || !tab.Closed() {
		t.Fatal("Close left a change signal open")
	}
}

// TestForEachEarlyStop: ForEachTimed over a table without a history
// tier stops at the first false its callback returns.
func TestForEachEarlyStop(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("100"), stream.NewManualClock(0))
	for i := int64(0); i < 10; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
	}
	var seen int
	tab.ForEachTimed(0, 100, func(e stream.Element) bool {
		seen++
		return seen < 4
	})
	if seen != 4 {
		t.Errorf("ForEachTimed visited %d, want 4", seen)
	}
}

func TestRingCompaction(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("10"), stream.NewManualClock(0))
	// Many times the window size to force repeated compaction.
	for i := int64(0); i < 10_000; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
	}
	if n := tab.Len(); n != 10 {
		t.Fatalf("Len = %d", n)
	}
	snap := tab.Snapshot()
	if snap[0].Value(0) != int64(9990) || snap[9].Value(0) != int64(9999) {
		t.Errorf("window after churn = %v ... %v", snap[0], snap[9])
	}
	// Backing slice must not grow unboundedly: allow generous slack.
	tab.mu.RLock()
	backing := len(tab.elems)
	tab.mu.RUnlock()
	if backing > 1000 {
		t.Errorf("backing slice holds %d slots for a 10-element window", backing)
	}
}

func TestConcurrentInsertAndScan(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("50"), stream.NewManualClock(0))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tab.Insert(intElem(t, stream.Timestamp(i+1), int64(w*1000+i)))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tab.Snapshot()
				tab.Len()
				tab.Stats()
			}
		}()
	}
	wg.Wait()
	st := tab.Stats()
	if st.Inserted != 2000 {
		t.Errorf("inserted = %d", st.Inserted)
	}
	if st.Live != 50 {
		t.Errorf("live = %d", st.Live)
	}
}

// Property: for any insert sequence, a count-window table never holds
// more than its bound and always holds the most recent elements.
func TestQuickCountWindowInvariant(t *testing.T) {
	f := func(values []int64, bound uint8) bool {
		n := int(bound%20) + 1
		tab, err := NewTable("t", tempSchema, stream.Window{Kind: stream.CountWindow, Count: n}, stream.NewManualClock(0))
		if err != nil {
			return false
		}
		for i, v := range values {
			e, err := stream.NewElement(tempSchema, stream.Timestamp(i+1), v)
			if err != nil {
				return false
			}
			if tab.Insert(e) != nil {
				return false
			}
		}
		snap := tab.Snapshot()
		want := len(values)
		if want > n {
			want = n
		}
		if len(snap) != want {
			return false
		}
		for i, e := range snap {
			if e.Value(0) != values[len(values)-want+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: time windows retain exactly the elements newer than
// now - size.
func TestQuickTimeWindowInvariant(t *testing.T) {
	f := func(gaps []uint16, sizeSec uint8) bool {
		size := time.Duration(int(sizeSec%60)+1) * time.Second
		clock := stream.NewManualClock(0)
		tab, err := NewTable("t", tempSchema, stream.Window{Kind: stream.TimeWindow, Size: size}, clock)
		if err != nil {
			return false
		}
		var stamps []stream.Timestamp
		for i, g := range gaps {
			clock.Advance(time.Duration(g%5000) * time.Millisecond)
			ts := clock.Now()
			stamps = append(stamps, ts)
			e, _ := stream.NewElement(tempSchema, ts, int64(i))
			if tab.Insert(e) != nil {
				return false
			}
		}
		now := clock.Now()
		wantLive := 0
		for _, ts := range stamps {
			if ts > now.Add(-size) {
				wantLive++
			}
		}
		return tab.Len() == wantLive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableStatsBytes(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("2"), stream.NewManualClock(0))
	e := intElem(t, 1, 42)
	tab.Insert(e)
	tab.Insert(e)
	st := tab.Stats()
	if st.Bytes != 2*e.Size() {
		t.Errorf("bytes = %d, want %d", st.Bytes, 2*e.Size())
	}
	tab.Insert(e) // evicts one
	if st := tab.Stats(); st.Bytes != 2*e.Size() {
		t.Errorf("bytes after eviction = %d", st.Bytes)
	}
}

func BenchmarkInsertCountWindow(b *testing.B) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("1000"), stream.NewManualClock(0))
	e, _ := stream.NewElement(tempSchema, 1, int64(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Insert(e.WithTimestamp(stream.Timestamp(i + 1)))
	}
}

func BenchmarkSnapshot1000(b *testing.B) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("1000"), stream.NewManualClock(0))
	for i := 0; i < 1000; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i+1), int64(i))
		tab.Insert(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tab.Snapshot()) != 1000 {
			b.Fatal("bad snapshot")
		}
	}
}

func ExampleTable_Snapshot() {
	tab, _ := NewTable("demo", tempSchema, stream.MustWindow("2"), stream.NewManualClock(0))
	for i := int64(1); i <= 3; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i), i*10)
		tab.Insert(e)
	}
	for _, e := range tab.Snapshot() {
		fmt.Println(e.Value(0))
	}
	// Output:
	// 20
	// 30
}

// TestConcurrentInsertAndReadWindow exercises ReadWindow's lock
// hand-off under the race detector: eviction and the read happen in one
// critical section, so every read must observe a consistent window —
// never more elements than the count bound, never a cleared slot.
func TestConcurrentInsertAndReadWindow(t *testing.T) {
	const bound = 50
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("50"), stream.NewManualClock(0))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tab.Insert(intElem(t, stream.Timestamp(w*1000+i+1), int64(i)))
			}
		}(w)
	}
	errs := make(chan string, 8)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				seen := 0
				valid := true
				tab.ReadWindow(func(_ uint64, live []stream.Element) {
					// A zero element would mean the read crossed into dead
					// space a concurrent eviction cleared mid-read.
					for _, e := range live {
						valid = valid && e.Schema() != nil
					}
					seen = len(live)
				})
				if !valid {
					errs <- "scan observed a zero element"
					return
				}
				if seen > bound {
					errs <- fmt.Sprintf("scan saw %d elements, window bound is %d", seen, bound)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// windowReader mirrors a table from its reads alone, as an incremental
// aggregate maintainer does: each read takes the rows below the
// window's first ordinal out of the mirror, logging "e<ord>", counts
// the ordinals that came and went between two reads, logging
// "s<n>", and appends the arrivals it has not seen, logging
// "i<ord>:<key>". key names an element in the log.
type windowReader struct {
	key    func(stream.Element) string
	first  uint64 // ordinal of mirror[0]
	mirror []stream.Element
	events []string
	evicts int
}

func (r *windowReader) read(tab *Table) {
	tab.ReadWindow(r.catchUp)
}

func (r *windowReader) catchUp(first uint64, live []stream.Element) {
	for len(r.mirror) > 0 && r.first < first {
		r.events = append(r.events, fmt.Sprintf("e%d", r.first))
		r.mirror = r.mirror[1:]
		r.first++
		r.evicts++
	}
	if r.first < first {
		r.events = append(r.events, fmt.Sprintf("s%d", first-r.first))
		r.first = first
	}
	for ord := r.first + uint64(len(r.mirror)); ord < first+uint64(len(live)); ord++ {
		e := live[ord-first]
		r.events = append(r.events, fmt.Sprintf("i%d:%s", ord, r.key(e)))
		r.mirror = append(r.mirror, e)
	}
}

// valueKey names an element by its first value.
func valueKey(e stream.Element) string { return fmt.Sprint(e.Value(0)) }

// checkMirror fails unless the reader's mirror is the table's window.
func checkMirror(t *testing.T, r *windowReader, tab *Table) {
	t.Helper()
	var first uint64
	var live []stream.Element
	tab.ReadWindow(func(f uint64, l []stream.Element) { first, live = f, append([]stream.Element(nil), l...) })
	if r.first != first || len(r.mirror) != len(live) {
		t.Fatalf("mirror holds %d rows from ordinal %d, the window %d from %d", len(r.mirror), r.first, len(live), first)
	}
	for i := range live {
		if valueKey(r.mirror[i]) != valueKey(live[i]) || r.mirror[i].Timestamp() != live[i].Timestamp() {
			t.Fatalf("mirror row %d is %v, the window's %v", i, r.mirror[i], live[i])
		}
	}
}

// TestReadWindowOrdinalsMirrorWindow: a reader that catches up after
// every insert sees each arrival and each eviction once, its mirror is
// the window, a reader that starts late catches up from the window
// alone, and a truncate takes every live row out without restarting
// the ordinals.
func TestReadWindowOrdinalsMirrorWindow(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("5"), stream.NewManualClock(0))
	for i := int64(0); i < 3; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
	}
	r := &windowReader{key: valueKey}
	r.read(tab)
	if len(r.events) != 3 || r.events[0] != "i0:0" || r.events[2] != "i2:2" {
		t.Fatalf("a late reader's first read should admit the window: %v", r.events)
	}
	for i := int64(3); i < 12; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
		r.read(tab)
		checkMirror(t, r, tab)
	}
	if r.evicts != 7 {
		t.Errorf("evicts = %d, want 7", r.evicts)
	}
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	r.read(tab)
	checkMirror(t, r, tab)
	if r.evicts != 12 || r.first != 12 {
		t.Errorf("after truncate: %d evicts, first ordinal %d; want 12 and 12", r.evicts, r.first)
	}
	tab.Insert(intElem(t, 13, 12))
	r.read(tab)
	if last := r.events[len(r.events)-1]; last != "i12:12" {
		t.Errorf("the first arrival after a truncate logged %q, want ordinal 12", last)
	}
}

// TestReadersCatchUpIndependently: readers at different marks share
// nothing but the table. One that reads after every insert sees every
// event; one that joins a full window admits the window alone and
// leaves the other untouched; one that falls behind by more than the
// window counts the rows it never saw, takes out only those it did,
// and all three mirror the window afterwards.
func TestReadersCatchUpIndependently(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("5"), stream.NewManualClock(0))
	old := &windowReader{key: valueKey}
	for i := int64(0); i < 8; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
		old.read(tab)
	}
	before := len(old.events)
	fresh := &windowReader{key: valueKey}
	fresh.read(tab)
	if len(old.events) != before {
		t.Fatalf("a reader joining changed another's log: %v", old.events[before:])
	}
	if want := []string{"s3", "i3:3", "i4:4", "i5:5", "i6:6", "i7:7"}; fmt.Sprint(fresh.events) != fmt.Sprint(want) {
		t.Fatalf("the new reader's first read: %v, want %v", fresh.events, want)
	}
	for i := int64(8); i < 11; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
		old.read(tab)
	}
	fresh.read(tab)
	if want := "[s3 i3:3 i4:4 i5:5 i6:6 i7:7 e3 e4 e5 i8:8 i9:9 i10:10]"; fmt.Sprint(fresh.events) != want {
		t.Errorf("a reader three arrivals behind logged %v, want %s", fresh.events, want)
	}
	checkMirror(t, old, tab)
	checkMirror(t, fresh, tab)
	for i := int64(11); i < 23; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
	}
	fresh.read(tab)
	if want := "[e6 e7 e8 e9 e10 s7 i18:18 i19:19 i20:20 i21:21 i22:22]"; fmt.Sprint(fresh.events[12:]) != want {
		t.Errorf("a reader twelve arrivals behind logged %v, want %s", fresh.events[12:], want)
	}
	checkMirror(t, fresh, tab)
}

// TestTimeWindowBoundaryEviction pins the half-open window semantics at
// the storage layer: an element whose timestamp is exactly now-Size is
// outside the window (Window.Covers is strict) and must be evicted.
func TestTimeWindowBoundaryEviction(t *testing.T) {
	clock := stream.NewManualClock(0)
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("10s"), clock)
	tab.Insert(intElem(t, 1_000, 1)) // @1s
	tab.Insert(intElem(t, 5_000, 2)) // @5s

	clock.Set(11_000) // element@1s is now exactly 10s old → out (strict bound)
	if got := tab.Len(); got != 1 {
		t.Errorf("live at exact boundary = %d, want 1 (boundary element excluded)", got)
	}
	clock.Set(14_999) // element@5s is 9.999s old → still in
	if got := tab.Len(); got != 1 {
		t.Errorf("live just inside boundary = %d, want 1", got)
	}
	clock.Set(15_000) // exactly 10s old → out
	if got := tab.Len(); got != 0 {
		t.Errorf("live at second boundary = %d, want 0", got)
	}
}
