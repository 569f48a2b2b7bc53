package notify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/stream"
)

var nSchema = stream.MustSchema(
	stream.Field{Name: "temperature", Type: stream.TypeInt},
	stream.Field{Name: "img", Type: stream.TypeBytes},
)

func nElem(t *testing.T, ts stream.Timestamp, temp int64) stream.Element {
	t.Helper()
	e, err := stream.NewElement(nSchema, ts, temp, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testManager() *Manager {
	return NewManager(Options{QueueSize: 64, Retries: 2, RetryDelay: time.Millisecond})
}

func TestPublishToSubscriber(t *testing.T) {
	m := testManager()
	defer m.Close()
	var got atomic.Int64
	_, err := m.Subscribe("vs1", FuncChannel{Fn: func(ev Event) error {
		if ev.Sensor != "VS1" {
			t.Errorf("sensor = %q", ev.Sensor)
		}
		got.Add(1)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		m.Publish("vs1", nElem(t, stream.Timestamp(i+1), int64(i)))
	}
	if !m.Flush(time.Second) {
		t.Fatal("Flush timed out")
	}
	if got.Load() != 5 {
		t.Errorf("delivered %d of 5", got.Load())
	}
}

func TestSequenceNumbersPerSensor(t *testing.T) {
	m := testManager()
	defer m.Close()
	var mu sync.Mutex
	seqs := map[string][]uint64{}
	m.Subscribe("", FuncChannel{Fn: func(ev Event) error {
		mu.Lock()
		seqs[ev.Sensor] = append(seqs[ev.Sensor], ev.Seq)
		mu.Unlock()
		return nil
	}})
	m.Publish("a", nElem(t, 1, 1))
	m.Publish("b", nElem(t, 2, 2))
	m.Publish("a", nElem(t, 3, 3))
	if !m.Flush(time.Second) {
		t.Fatal("Flush timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs["A"]) != 2 || seqs["A"][0] != 1 || seqs["A"][1] != 2 {
		t.Errorf("sensor A seqs = %v", seqs["A"])
	}
	if len(seqs["B"]) != 1 || seqs["B"][0] != 1 {
		t.Errorf("sensor B seqs = %v", seqs["B"])
	}
}

func TestWildcardAndFiltering(t *testing.T) {
	m := testManager()
	defer m.Close()
	var all, onlyA atomic.Int64
	m.Subscribe("", FuncChannel{Fn: func(Event) error { all.Add(1); return nil }})
	m.Subscribe("a", FuncChannel{Fn: func(Event) error { onlyA.Add(1); return nil }})
	m.Publish("a", nElem(t, 1, 1))
	m.Publish("b", nElem(t, 2, 2))
	m.Flush(time.Second)
	if all.Load() != 2 || onlyA.Load() != 1 {
		t.Errorf("all=%d onlyA=%d", all.Load(), onlyA.Load())
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	m := testManager()
	defer m.Close()
	var got atomic.Int64
	id, _ := m.Subscribe("s", FuncChannel{Fn: func(Event) error { got.Add(1); return nil }})
	m.Publish("s", nElem(t, 1, 1))
	m.Flush(time.Second)
	if err := m.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	m.Publish("s", nElem(t, 2, 2))
	m.Flush(time.Second)
	if got.Load() != 1 {
		t.Errorf("delivered %d, want 1", got.Load())
	}
	if err := m.Unsubscribe(id); err == nil {
		t.Error("double unsubscribe succeeded")
	}
}

func TestUnsubscribeSensor(t *testing.T) {
	m := testManager()
	defer m.Close()
	m.Subscribe("s", FuncChannel{Fn: func(Event) error { return nil }})
	m.Subscribe("s", FuncChannel{Fn: func(Event) error { return nil }})
	m.Subscribe("other", FuncChannel{Fn: func(Event) error { return nil }})
	m.UnsubscribeSensor("s")
	stats := m.Stats()
	if len(stats) != 1 || stats[0].Sensor != "OTHER" {
		t.Errorf("stats after UnsubscribeSensor = %+v", stats)
	}
}

func TestRetriesThenFailure(t *testing.T) {
	m := NewManager(Options{QueueSize: 8, Retries: 3, RetryDelay: time.Millisecond})
	defer m.Close()
	var attempts atomic.Int64
	m.Subscribe("s", FuncChannel{Fn: func(Event) error {
		attempts.Add(1)
		return fmt.Errorf("nope")
	}})
	m.Publish("s", nElem(t, 1, 1))
	m.Flush(time.Second)
	if attempts.Load() != 3 {
		t.Errorf("attempts = %d, want 3", attempts.Load())
	}
	st := m.Stats()
	if st[0].Failed != 1 || st[0].Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetryEventualSuccess(t *testing.T) {
	m := NewManager(Options{QueueSize: 8, Retries: 3, RetryDelay: time.Millisecond})
	defer m.Close()
	var attempts atomic.Int64
	m.Subscribe("s", FuncChannel{Fn: func(Event) error {
		if attempts.Add(1) < 2 {
			return fmt.Errorf("flaky")
		}
		return nil
	}})
	m.Publish("s", nElem(t, 1, 1))
	m.Flush(time.Second)
	st := m.Stats()
	if st[0].Delivered != 1 || st[0].Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// blockingChannel is a channel the manager never calls directly: its
// Deliver waits for release, as a network channel waits for its peer.
// delivered, when set, runs after each delivery.
type blockingChannel struct {
	release   <-chan struct{}
	delivered func()
}

func (c blockingChannel) Name() string { return "blocking" }

func (c blockingChannel) Deliver(Event) error {
	<-c.release
	if c.delivered != nil {
		c.delivered()
	}
	return nil
}

func (c blockingChannel) Close() error { return nil }

func TestQueueOverflowDropsAndCounts(t *testing.T) {
	m := NewManager(Options{QueueSize: 1, Retries: 1, RetryDelay: time.Millisecond})
	defer m.Close()
	block := make(chan struct{})
	m.Subscribe("s", blockingChannel{release: block})
	for i := 0; i < 10; i++ {
		m.Publish("s", nElem(t, stream.Timestamp(i+1), int64(i)))
	}
	close(block)
	m.Flush(time.Second)
	st := m.Stats()[0]
	if st.Dropped == 0 {
		t.Errorf("expected drops under a blocked consumer: %+v", st)
	}
	if st.Delivered+st.Dropped != 10 {
		t.Errorf("delivered %d + dropped %d != 10", st.Delivered, st.Dropped)
	}
}

// TestFlushWakesOnDrain: Flush returns as the last delivery finishes,
// not on a polling tick, and reports false when a blocked channel
// outlasts its timeout.
func TestFlushWakesOnDrain(t *testing.T) {
	m := testManager()
	defer m.Close()
	block := make(chan struct{})
	var last atomic.Int64 // UnixNano of the last delivery's return
	m.Subscribe("s", blockingChannel{release: block, delivered: func() {
		last.Store(time.Now().UnixNano())
	}})
	for i := 0; i < 3; i++ {
		m.Publish("s", nElem(t, stream.Timestamp(i+1), int64(i)))
	}
	start := time.Now()
	if m.Flush(20 * time.Millisecond) {
		t.Fatal("Flush reported a drain while the channel was blocked")
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("Flush gave up after %v, before its timeout", waited)
	}
	time.AfterFunc(10*time.Millisecond, func() { close(block) })
	if !m.Flush(5 * time.Second) {
		t.Fatal("Flush timed out after the channel unblocked")
	}
	if lag := time.Since(time.Unix(0, last.Load())); lag > 10*time.Millisecond {
		t.Errorf("Flush returned %v after the last delivery", lag)
	}
}

// TestDirectDeliveryWaitsBehindQueue: events that meet their subscriber
// busy — an earlier event queued and still being delivered — queue
// behind it instead of being delivered directly, so the subscriber sees
// publish order; once the queue has drained, delivery is direct again
// and done by the time Publish returns.
func TestDirectDeliveryWaitsBehindQueue(t *testing.T) {
	m := testManager()
	defer m.Close()
	release := make(chan struct{})
	var mu sync.Mutex
	var got []int64
	failed := false
	m.Subscribe("s", FuncChannel{Fn: func(ev Event) error {
		v := ev.Element.Value(0).(int64)
		if v == 1 {
			if !failed {
				failed = true
				return fmt.Errorf("busy") // the direct attempt fails: 1 is queued
			}
			<-release // and its retry keeps the subscriber busy
		}
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
		return nil
	}})
	for i := int64(1); i <= 3; i++ {
		m.Publish("s", nElem(t, stream.Timestamp(i), i))
	}
	close(release)
	if !m.Flush(time.Second) {
		t.Fatal("Flush timed out")
	}
	m.Publish("s", nElem(t, 4, 4))
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Errorf("delivered %v, want [1 2 3 4] with 4 done before Publish returned", got)
	}
	if st := m.Stats()[0]; st.Delivered != 4 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestUnsubscribeRacingPublish: publishers racing Unsubscribe, on the
// direct route and — for the events whose attempts fail — the queued
// one, never reach the channel after Unsubscribe has returned.
func TestUnsubscribeRacingPublish(t *testing.T) {
	m := testManager()
	defer m.Close()
	var unsubscribed atomic.Bool
	var calls, late atomic.Int64
	id, err := m.Subscribe("s", FuncChannel{Fn: func(ev Event) error {
		calls.Add(1)
		if unsubscribed.Load() {
			late.Add(1)
		}
		if ev.Seq%5 == 0 {
			return fmt.Errorf("flaky") // this event takes the queue
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := nElem(t, 1, 1)
	var published atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Publish("s", e)
					published.Add(1)
				}
			}
		}()
	}
	spin := func(cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("publishers stalled")
			}
		}
	}
	spin(func() bool { return calls.Load() >= 100 })
	if err := m.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	unsubscribed.Store(true)
	after := published.Load()
	spin(func() bool { return published.Load() >= after+1000 })
	if n := late.Load(); n != 0 {
		t.Errorf("%d deliveries after Unsubscribe returned", n)
	}
}

// TestPanickingChannelCountsFailed: a channel that panics fails its
// deliveries on its own subscription; the publisher survives and the
// next subscriber still gets the event.
func TestPanickingChannelCountsFailed(t *testing.T) {
	m := testManager()
	defer m.Close()
	m.Subscribe("s", FuncChannel{Fn: func(Event) error { panic("subscriber bug") }})
	var got atomic.Int64
	m.Subscribe("s", FuncChannel{Fn: func(Event) error { got.Add(1); return nil }})
	m.Publish("s", nElem(t, 1, 1))
	if !m.Flush(time.Second) {
		t.Fatal("Flush timed out")
	}
	st := m.Stats()
	if st[0].Failed != 1 || st[0].Delivered != 0 {
		t.Errorf("panicking subscription stats = %+v", st[0])
	}
	if got.Load() != 1 || st[1].Delivered != 1 {
		t.Errorf("second subscriber got %d events (stats %+v)", got.Load(), st[1])
	}
}

func TestManagerCloseIsIdempotentAndFinal(t *testing.T) {
	m := testManager()
	m.Subscribe("s", FuncChannel{Fn: func(Event) error { return nil }})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Subscribe("s", FuncChannel{Fn: func(Event) error { return nil }}); err == nil {
		t.Error("Subscribe after Close succeeded")
	}
}

func TestNilChannelRejected(t *testing.T) {
	m := testManager()
	defer m.Close()
	if _, err := m.Subscribe("s", nil); err == nil {
		t.Error("nil channel accepted")
	}
}

func TestMarshalEventSummarisesBytes(t *testing.T) {
	ev := Event{Sensor: "S", Seq: 7, Element: nElem(t, 1234, 42)}
	data, err := MarshalEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	var decoded EventJSON
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Sensor != "S" || decoded.Seq != 7 || decoded.Timestamp != 1234 {
		t.Errorf("decoded = %+v", decoded)
	}
	if decoded.Values["TEMPERATURE"] != float64(42) {
		t.Errorf("temperature = %v", decoded.Values["TEMPERATURE"])
	}
	if decoded.Values["IMG"] != "<3 bytes>" {
		t.Errorf("img = %v", decoded.Values["IMG"])
	}
}

func TestChanChannel(t *testing.T) {
	ch := NewChanChannel(2)
	ev := Event{Sensor: "S", Seq: 1, Element: nElem(t, 1, 1)}
	if err := ch.Deliver(ev); err != nil {
		t.Fatal(err)
	}
	if err := ch.Deliver(ev); err != nil {
		t.Fatal(err)
	}
	if err := ch.Deliver(ev); err == nil {
		t.Error("full channel accepted delivery")
	}
	<-ch.C
	ch.Close()
	if _, open := <-ch.C; !open {
		// one event was still buffered; after reading it the channel
		// reports closed
	}
}

func TestLogChannel(t *testing.T) {
	var buf bytes.Buffer
	ch := NewLogChannel(&buf)
	if err := ch.Deliver(Event{Sensor: "S", Seq: 3, Element: nElem(t, 1, 9)}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "notify S #3") || !strings.Contains(out, "TEMPERATURE") {
		t.Errorf("log line = %q", out)
	}
}

func TestFileChannel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	ch, err := NewFileChannel(path)
	if err != nil {
		t.Fatal(err)
	}
	ch.Deliver(Event{Sensor: "S", Seq: 1, Element: nElem(t, 1, 5)})
	ch.Deliver(Event{Sensor: "S", Seq: 2, Element: nElem(t, 2, 6)})
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("file has %d lines", len(lines))
	}
	var decoded EventJSON
	if err := json.Unmarshal([]byte(lines[1]), &decoded); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if decoded.Seq != 2 {
		t.Errorf("seq = %d", decoded.Seq)
	}
}

func TestWebhookChannel(t *testing.T) {
	var mu sync.Mutex
	var bodies []EventJSON
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev EventJSON
		json.NewDecoder(r.Body).Decode(&ev)
		mu.Lock()
		bodies = append(bodies, ev)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	ch := NewWebhookChannel(srv.URL)
	if err := ch.Deliver(Event{Sensor: "S", Seq: 1, Element: nElem(t, 1, 77)}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 || bodies[0].Values["TEMPERATURE"] != float64(77) {
		t.Errorf("webhook bodies = %+v", bodies)
	}
}

func TestWebhookChannelErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer srv.Close()
	ch := NewWebhookChannel(srv.URL)
	if err := ch.Deliver(Event{Sensor: "S", Seq: 1, Element: nElem(t, 1, 1)}); err == nil {
		t.Error("5xx response not reported as delivery failure")
	}
}
