// Package resilience centralises the retry policy every self-healing
// path in the container uses: exponential backoff with decorrelated
// jitter, bounded retry loops, and a small consecutive-failure circuit
// breaker. The p2p remote wrapper, the httpget wrapper, the wrapper
// supervision loop, notification channels and the storage recovery
// loop all route their waits through here, so escalation, jitter and
// reset semantics are uniform and testable in one place.
package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff produces retry delays using decorrelated jitter:
//
//	next = min(cap, base + rand[0, 3*prev - base])
//
// which escalates roughly exponentially while desynchronising
// independent clients that started failing at the same instant (e.g.
// every remote wrapper watching one restarted node). A Backoff is safe
// for concurrent use.
type Backoff struct {
	base, cap   time.Duration
	settleAfter int

	mu     sync.Mutex
	rng    *rand.Rand
	prev   time.Duration // last delay handed out; 0 = settled at base
	streak int           // consecutive Success calls since the last Next
}

// NewBackoff returns a backoff escalating from base to cap. The seed
// makes the jitter deterministic for tests; callers that want
// desynchronisation derive it from their identity (name hash, address).
// By default one Success settles the escalation back to base; see
// SetSettleAfter.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, settleAfter: 1, rng: rand.New(rand.NewSource(seed))}
}

// SetSettleAfter requires n consecutive Success calls before the
// escalation resets to base — the guard against a flapping peer that
// succeeds exactly once per poll and would otherwise never escalate
// past the floor. n < 1 behaves as 1.
func (b *Backoff) SetSettleAfter(n int) {
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	b.settleAfter = n
	b.mu.Unlock()
}

// Next returns the delay to wait before the next attempt, escalating
// from the previous one. It also interrupts any success streak.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.streak = 0
	if b.prev <= 0 {
		b.prev = b.base
		return b.prev
	}
	hi := 3 * b.prev
	if hi > b.cap || hi < b.prev { // second clause: overflow guard
		hi = b.cap
	}
	d := b.base
	if hi > b.base {
		d += time.Duration(b.rng.Int63n(int64(hi - b.base + 1)))
	}
	b.prev = d
	return d
}

// Success records one healthy operation; after SettleAfter consecutive
// successes the escalation resets to base. It reports whether this call
// settled the backoff.
func (b *Backoff) Success() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.prev == 0 {
		return false
	}
	b.streak++
	if b.streak >= b.settleAfter {
		b.prev, b.streak = 0, 0
		return true
	}
	return false
}

// Reset unconditionally settles the escalation back to base.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.prev, b.streak = 0, 0
	b.mu.Unlock()
}

// Current returns the escalation's last delay without advancing it
// (zero when settled).
func (b *Backoff) Current() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.prev
}

// Policy bounds one retry loop run by Do.
type Policy struct {
	// Base is the first delay (default 50ms).
	Base time.Duration
	// Cap bounds individual delays (default 10*Base).
	Cap time.Duration
	// MaxAttempts is the total number of op invocations, including the
	// first (0 = unlimited).
	MaxAttempts int
	// Budget bounds the cumulative time slept across retries (0 =
	// unlimited): a retry whose delay would overrun it is not taken.
	Budget time.Duration
	// Seed feeds the jitter; zero is fine for tests.
	Seed int64
}

// Do runs op until it returns nil, the policy's attempt or sleep budget
// is exhausted, or stop closes. It returns nil on success and the last
// error otherwise. A nil stop channel means the loop can only end by
// success or budget.
func Do(stop <-chan struct{}, p Policy, op func() error) error {
	base := p.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	cap := p.Cap
	if cap <= 0 {
		cap = 10 * base
	}
	// The backoff is built on the first failure: seeding its rand source
	// costs ~10µs, and a first-try success — the common case on hot
	// paths such as notification delivery — never sleeps.
	var bo *Backoff
	var slept time.Duration
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return err
		}
		if bo == nil {
			bo = NewBackoff(base, cap, p.Seed)
		}
		d := bo.Next()
		if p.Budget > 0 && slept+d > p.Budget {
			return err
		}
		slept += d
		if stop == nil {
			time.Sleep(d)
			continue
		}
		select {
		case <-stop:
			return err
		case <-time.After(d):
		}
	}
}

// BreakerState is a Breaker's observable condition.
type BreakerState int

const (
	// BreakerClosed lets every operation through.
	BreakerClosed BreakerState = iota
	// BreakerOpen sheds operations until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets one probe per cooldown window through.
	BreakerHalfOpen
)

// String returns the state's spelling.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker: after threshold
// failures in a row it opens for cooldown, then admits one probe per
// cooldown window until a success closes it. It protects slow failure
// paths (a webhook that times out every delivery) from being paid on
// every event.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	opens     uint64
}

// NewBreaker returns a breaker that opens after threshold consecutive
// failures (min 1) for the given cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether an operation may proceed; when the breaker is
// open past its cooldown, it admits the call as the half-open probe and
// starts the next cooldown window.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	now := b.now()
	if now.Before(b.openUntil) {
		return false
	}
	b.openUntil = now.Add(b.cooldown)
	return true
}

// Success closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.fails = 0
	b.mu.Unlock()
}

// Failure records one failed operation, opening the breaker at the
// threshold.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails == b.threshold {
		b.openUntil = b.now().Add(b.cooldown)
		b.opens++
	}
}

// State returns the breaker's current condition.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return BreakerClosed
	}
	if b.now().Before(b.openUntil) {
		return BreakerOpen
	}
	return BreakerHalfOpen
}

// Opens counts closed→open transitions.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
