package resilience

import (
	"errors"
	"testing"
	"time"
)

func TestBackoffEscalatesToCap(t *testing.T) {
	bo := NewBackoff(10*time.Millisecond, 100*time.Millisecond, 1)
	first := bo.Next()
	if first != 10*time.Millisecond {
		t.Fatalf("first delay = %v, want base", first)
	}
	prev := first
	grew := false
	for i := 0; i < 50; i++ {
		d := bo.Next()
		if d < 10*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("delay %v outside [base, cap]", d)
		}
		if d > prev {
			grew = true
		}
		prev = d
	}
	if !grew {
		t.Error("delays never escalated past the base")
	}
}

func TestBackoffSuccessSettles(t *testing.T) {
	bo := NewBackoff(time.Millisecond, time.Second, 7)
	for i := 0; i < 10; i++ {
		bo.Next()
	}
	if bo.Current() == 0 {
		t.Fatal("escalation did not advance")
	}
	if !bo.Success() {
		t.Fatal("single success should settle with default settle-after")
	}
	if bo.Current() != 0 {
		t.Errorf("current = %v after settle, want 0", bo.Current())
	}
	if bo.Next() != time.Millisecond {
		t.Error("settled backoff should restart at base")
	}
}

func TestBackoffSettleAfterRequiresStreak(t *testing.T) {
	bo := NewBackoff(time.Millisecond, time.Second, 3)
	bo.SetSettleAfter(3)
	for i := 0; i < 5; i++ {
		bo.Next()
	}
	if bo.Success() || bo.Success() {
		t.Fatal("settled before the streak completed")
	}
	if !bo.Success() {
		t.Fatal("third consecutive success should settle")
	}
	// A failure interrupts the streak.
	bo.Next()
	bo.Next()
	bo.Success()
	bo.Success()
	bo.Next() // interrupts
	if bo.Success() || bo.Success() {
		t.Error("streak survived an interleaved failure")
	}
}

func TestBackoffSuccessWhenSettledIsNoop(t *testing.T) {
	bo := NewBackoff(time.Millisecond, time.Second, 0)
	if bo.Success() {
		t.Error("settle reported while already settled")
	}
}

func TestDoStopsOnSuccess(t *testing.T) {
	calls := 0
	err := Do(nil, Policy{Base: time.Microsecond, MaxAttempts: 10}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

// TestDoFirstTrySuccessBuildsNoBackoff: a delivery that succeeds at
// once never sleeps, so it must not pay for a backoff — seeding the
// jitter's rand source alone is ~10µs and ~5KB per call.
func TestDoFirstTrySuccessBuildsNoBackoff(t *testing.T) {
	ok := func() error { return nil }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Do(nil, Policy{Base: time.Millisecond, MaxAttempts: 3, Seed: 7}, ok); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("first-try success allocated %.0f objects, want 0 (no Backoff, no rand.Source)", allocs)
	}
}

// TestDoRetrySpacingFollowsSeed: once an attempt fails, the delays Do
// sleeps are exactly the seeded Backoff's sequence. Pinned without
// timing: a sleep budget of d1+d2+d3 admits exactly three retries and
// one nanosecond less admits two.
func TestDoRetrySpacingFollowsSeed(t *testing.T) {
	const base, seed = 100 * time.Microsecond, 42
	bo := NewBackoff(base, 10*base, seed)
	budget := bo.Next() + bo.Next() + bo.Next()
	for _, tc := range []struct {
		budget time.Duration
		calls  int
	}{{budget, 4}, {budget - 1, 3}} {
		calls := 0
		err := Do(nil, Policy{Base: base, Budget: tc.budget, Seed: seed}, func() error {
			calls++
			return errors.New("always")
		})
		if err == nil || calls != tc.calls {
			t.Errorf("budget %v: %d attempts (err %v), want %d", tc.budget, calls, err, tc.calls)
		}
	}
}

func TestDoMaxAttempts(t *testing.T) {
	calls := 0
	want := errors.New("persistent")
	err := Do(nil, Policy{Base: time.Microsecond, MaxAttempts: 4}, func() error {
		calls++
		return want
	})
	if !errors.Is(err, want) {
		t.Fatalf("Do = %v, want the op's error", err)
	}
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
}

func TestDoBudgetBoundsSleep(t *testing.T) {
	calls := 0
	start := time.Now()
	err := Do(nil, Policy{Base: 20 * time.Millisecond, Budget: 30 * time.Millisecond}, func() error {
		calls++
		return errors.New("always")
	})
	if err == nil {
		t.Fatal("budget-bounded Do returned nil")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("Do slept %v, budget was 30ms", elapsed)
	}
	if calls < 1 || calls > 3 {
		t.Errorf("calls = %d, want 1-3 within a 30ms budget of 20ms delays", calls)
	}
}

func TestDoStopChannel(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	calls := 0
	err := Do(stop, Policy{Base: time.Hour}, func() error {
		calls++
		return errors.New("never succeeds")
	})
	if err == nil {
		t.Fatal("stopped Do returned nil")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (stop closed before any retry)", calls)
	}
}

func TestBreakerOpensAndProbes(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, time.Second)
	b.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("breaker shed before threshold (failure %d)", i)
		}
		b.Failure()
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after threshold failures", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted an operation inside the cooldown")
	}
	if b.Opens() != 1 {
		t.Errorf("opens = %d, want 1", b.Opens())
	}

	// Cooldown elapses: exactly one probe per window.
	now = now.Add(2 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v after cooldown", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second call in the same window")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Error("success did not close the breaker")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for state, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if state.String() != want {
			t.Errorf("%d.String() = %q, want %q", state, state.String(), want)
		}
	}
}
