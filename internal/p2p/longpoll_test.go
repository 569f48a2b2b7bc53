package p2p

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/storage"
)

// testSignal is a change signal the test fires by hand, counting how
// often longPoll takes it.
type testSignal struct {
	mu    sync.Mutex
	sig   storage.Signal
	takes int
}

func (s *testSignal) changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.takes++
	return s.sig.Changed()
}

func (s *testSignal) fire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sig.Fire()
}

// TestLongPollWakesOnSignal pins longPoll's contract: ready runs once up
// front, once per wake and once at the deadline; a cancelled caller
// gets false; wait = 0 checks once and takes no signal.
func TestLongPollWakesOnSignal(t *testing.T) {
	var checks atomic.Int32
	var isReady atomic.Bool
	ready := func() bool { checks.Add(1); return isReady.Load() }
	waitChecks := func(n int32) {
		t.Helper()
		waitForLong(t, 5*time.Second, func() bool { return checks.Load() >= n }, "ready check")
		if got := checks.Load(); got != n {
			t.Fatalf("ready ran %d times, want %d", got, n)
		}
	}

	// wait = 0: one check, nothing armed.
	sig := &testSignal{}
	if !longPoll(context.Background(), 0, sig.changed, ready) || checks.Load() != 1 || sig.takes != 0 {
		t.Fatalf("wait=0: %d checks, %d signals taken; want 1 and 0", checks.Load(), sig.takes)
	}

	// Wakes: an unready wake re-checks and waits again; a ready one answers.
	checks.Store(0)
	done := make(chan bool, 1)
	t0 := time.Now()
	go func() { done <- longPoll(context.Background(), time.Minute, sig.changed, ready) }()
	waitChecks(1)
	sig.fire()
	waitChecks(2)
	isReady.Store(true)
	sig.fire()
	if !<-done {
		t.Fatal("a ready wake answered false")
	}
	if checks.Load() != 3 || time.Since(t0) > 30*time.Second {
		t.Fatalf("ready ran %d times over %v, want 3 well before the deadline", checks.Load(), time.Since(t0))
	}

	// Deadline: one check up front, one at the deadline.
	isReady.Store(false)
	checks.Store(0)
	t0 = time.Now()
	if !longPoll(context.Background(), 50*time.Millisecond, sig.changed, ready) {
		t.Fatal("the deadline answered false")
	}
	if checks.Load() != 2 || time.Since(t0) < 50*time.Millisecond {
		t.Fatalf("ready ran %d times over %v, want 2 at the 50ms deadline", checks.Load(), time.Since(t0))
	}

	// A caller that went away: false, without another check.
	checks.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- longPoll(ctx, time.Minute, sig.changed, ready) }()
	waitChecks(1)
	cancel()
	if <-done {
		t.Fatal("a cancelled poll answered true")
	}
	if checks.Load() != 1 {
		t.Fatalf("ready ran %d times, want 1", checks.Load())
	}
}

// TestLongPollAnswersTruncate: a stream poll in flight when the owner
// truncates the table answers at once with the new epoch, so the
// consumer re-syncs without waiting out its poll; one in flight when the
// sensor is undeployed answers at once too, and the next poll is a 404.
func TestLongPollAnswersTruncate(t *testing.T) {
	c, srv := producerNode(t, "")
	client := &Client{Base: srv.URL}
	c.Pulse()
	c.Pulse()
	page, err := client.FetchSeq(context.Background(), "remote-temp", 0, 0)
	if err != nil || page.WindowLast != 2 {
		t.Fatalf("first fetch: %+v, %v", page, err)
	}
	type polled struct {
		page StreamPage
		err  error
		took time.Duration
	}
	poll := func(after uint64) <-chan polled {
		out := make(chan polled, 1)
		go func() {
			t0 := time.Now()
			p, err := client.FetchSeq(context.Background(), "remote-temp", after, 5*time.Second)
			out <- polled{p, err, time.Since(t0)}
		}()
		time.Sleep(100 * time.Millisecond) // let the request reach its wait
		return out
	}
	vs, _ := c.Sensor("remote-temp")

	inFlight := poll(page.WindowLast)
	if err := vs.Output().Truncate(); err != nil {
		t.Fatal(err)
	}
	got := <-inFlight
	if got.err != nil || got.took > time.Second || got.page.Epoch == page.Epoch {
		t.Fatalf("poll across a truncate: epoch %d -> %d after %v (%v); want a new epoch in under 1s",
			page.Epoch, got.page.Epoch, got.took, got.err)
	}

	inFlight = poll(got.page.WindowLast)
	if err := c.Undeploy("remote-temp"); err != nil {
		t.Fatal(err)
	}
	if got := <-inFlight; got.err != nil || got.took > time.Second {
		t.Fatalf("poll across an undeploy answered after %v (%v), want under 1s", got.took, got.err)
	}
	if _, err := client.FetchSeq(context.Background(), "remote-temp", 0, 0); err == nil {
		t.Fatal("a poll of an undeployed sensor succeeded")
	}
}
