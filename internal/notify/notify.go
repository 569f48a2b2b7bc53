// Package notify implements GSN's notification manager (paper §4):
// delivery of new stream elements to registered clients over an
// extensible set of notification channels.
//
// An event reaches a subscriber by one of two routes. A channel whose
// Deliver cannot block — FuncChannel, whose function must not block,
// and *ChanChannel, whose send never waits — is called directly on the
// publishing goroutine while its subscription is idle (nothing queued,
// nothing in flight), so an in-process subscriber sees an element with
// no hand-off. Every other event, and every event of a channel that may
// block (webhook, file, log), takes the subscription's own bounded
// queue and delivery goroutine, so one slow client cannot stall the
// processing pipeline — overflow drops the newest event and counts it,
// which is the correct behaviour for observations. Either way a
// subscriber sees its events one at a time, in publish order, and never
// after its Unsubscribe has returned.
package notify

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/resilience"
	"gsn/internal/stream"
)

// Event is one notification: a new output element of a virtual sensor.
type Event struct {
	// Sensor is the producing virtual sensor's name.
	Sensor string
	// Seq is the per-sensor sequence number (1-based).
	Seq uint64
	// Element is the produced stream element.
	Element stream.Element
}

// Channel delivers events to one kind of client endpoint. Deliver may
// block (network I/O) unless the channel is one the manager calls
// directly (FuncChannel, *ChanChannel); a channel that may block is
// only called from its subscription's own goroutine. The manager never
// calls Deliver concurrently for one subscription.
type Channel interface {
	// Name identifies the channel instance in stats and logs.
	Name() string
	// Deliver sends one event; an error counts as a failed delivery
	// (the manager retries).
	Deliver(Event) error
	// Close releases channel resources.
	Close() error
}

// SubscriptionStats reports one subscription's delivery counters.
type SubscriptionStats struct {
	ID        int64
	Sensor    string
	Channel   string
	Delivered uint64
	Failed    uint64
	Dropped   uint64
}

// Options tunes the manager.
type Options struct {
	// QueueSize bounds each subscription's event queue (default 256).
	QueueSize int
	// Retries is the per-event delivery retry count (default 2).
	Retries int
	// RetryDelay sleeps between retries (default 10ms; tests use 0).
	RetryDelay time.Duration
}

type subscription struct {
	id      int64
	sensor  string // canonical; "" subscribes to every sensor
	channel Channel
	direct  bool // Deliver cannot block, so a publisher may call it

	// mu orders every hand-over to the subscription — a direct delivery
	// or an enqueue — against close: once closed is set no publisher
	// touches the channel or the queue again. It is held across a
	// direct Deliver, which cannot block; that is what lets close wait
	// out a delivery in flight.
	mu     sync.Mutex
	closed bool
	// queued counts events in the queue or in the delivery loop's hands.
	// A direct delivery needs it at zero, so it never overtakes them.
	queued atomic.Int64
	queue  chan queuedEvent
	done   chan struct{}

	delivered atomic.Uint64
	failed    atomic.Uint64
	dropped   atomic.Uint64
}

// queuedEvent is an event handed to the delivery loop with the attempts
// already spent on it (a failed direct delivery spent one).
type queuedEvent struct {
	ev       Event
	attempts int
}

// Manager fans events out to subscriptions.
type Manager struct {
	opts Options

	// mu guards nextID, seq, closed and every replacement of subs.
	// Publishers read subs without it: the list is copy-on-write, in
	// subscription order.
	mu     sync.RWMutex
	subs   atomic.Pointer[[]*subscription]
	nextID int64
	seq    map[string]*atomic.Uint64
	closed bool

	pending atomic.Int64 // events enqueued but not yet finished

	// drained, while a Flush waits, is closed (and cleared) when pending
	// drops to zero.
	drainMu sync.Mutex
	drained chan struct{}
}

// NewManager creates a notification manager.
func NewManager(opts Options) *Manager {
	if opts.QueueSize <= 0 {
		opts.QueueSize = 256
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.RetryDelay == 0 {
		opts.RetryDelay = 10 * time.Millisecond
	}
	return &Manager{
		opts: opts,
		seq:  make(map[string]*atomic.Uint64),
	}
}

// list is the current subscriptions, oldest first.
func (m *Manager) list() []*subscription {
	if p := m.subs.Load(); p != nil {
		return *p
	}
	return nil
}

// Subscribe registers a channel for a sensor's events. An empty sensor
// name subscribes to all sensors. It returns the subscription id.
func (m *Manager) Subscribe(sensor string, ch Channel) (int64, error) {
	if ch == nil {
		return 0, fmt.Errorf("notify: nil channel")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, fmt.Errorf("notify: manager is closed")
	}
	m.nextID++
	sub := &subscription{
		id:      m.nextID,
		sensor:  stream.CanonicalName(sensor),
		channel: ch,
		direct:  cannotBlock(ch),
		queue:   make(chan queuedEvent, m.opts.QueueSize),
		done:    make(chan struct{}),
	}
	old := m.list()
	subs := append(old[:len(old):len(old)], sub)
	m.subs.Store(&subs)
	go m.deliverLoop(sub)
	return sub.id, nil
}

// cannotBlock reports whether a channel's Deliver returns without
// waiting, which is what lets a publisher call it.
func cannotBlock(ch Channel) bool {
	switch ch.(type) {
	case FuncChannel, *FuncChannel, *ChanChannel:
		return true
	}
	return false
}

// removeLocked takes the subscriptions keep rejects out of the list and
// returns them. Called with mu held.
func (m *Manager) removeLocked(keep func(*subscription) bool) []*subscription {
	var kept, victims []*subscription
	for _, sub := range m.list() {
		if keep(sub) {
			kept = append(kept, sub)
		} else {
			victims = append(victims, sub)
		}
	}
	m.subs.Store(&kept)
	return victims
}

// Unsubscribe removes a subscription and closes its channel.
func (m *Manager) Unsubscribe(id int64) error {
	m.mu.Lock()
	victims := m.removeLocked(func(sub *subscription) bool { return sub.id != id })
	m.mu.Unlock()
	if len(victims) == 0 {
		return fmt.Errorf("notify: no subscription %d", id)
	}
	return victims[0].close()
}

// UnsubscribeSensor removes every subscription bound to the sensor
// (used when a virtual sensor is undeployed).
func (m *Manager) UnsubscribeSensor(sensor string) {
	canonical := stream.CanonicalName(sensor)
	m.mu.Lock()
	victims := m.removeLocked(func(sub *subscription) bool { return sub.sensor != canonical })
	m.mu.Unlock()
	for _, sub := range victims {
		sub.close()
	}
}

// close ends a subscription already out of the list. Setting closed
// waits out a direct delivery in flight and turns every later publisher
// away; the delivery loop then drains what was queued before, and the
// channel closes after both — so once close returns, the channel is
// never called again.
func (sub *subscription) close() error {
	sub.mu.Lock()
	sub.closed = true
	close(sub.queue)
	sub.mu.Unlock()
	<-sub.done
	return sub.channel.Close()
}

// Publish fans a new element out to matching subscriptions. It never
// waits for a subscriber that may block: an idle non-blocking channel
// is called here, anything else is queued, and a full queue drops the
// event for that subscription.
func (m *Manager) Publish(sensor string, e stream.Element) {
	canonical := stream.CanonicalName(sensor)
	m.mu.RLock()
	counter, ok := m.seq[canonical]
	m.mu.RUnlock()
	if !ok {
		m.mu.Lock()
		if m.seq[canonical] == nil {
			m.seq[canonical] = &atomic.Uint64{}
		}
		counter = m.seq[canonical]
		m.mu.Unlock()
	}
	ev := Event{Sensor: canonical, Seq: counter.Add(1), Element: e}
	for _, sub := range m.list() {
		if sub.sensor == "" || sub.sensor == canonical {
			m.offer(sub, ev)
		}
	}
}

// offer hands ev to one subscription: delivered on this goroutine when
// the channel cannot block and the subscription is idle, queued
// otherwise. A failed direct attempt is queued with the attempts it has
// left, so a route never changes how often an event is tried.
func (m *Manager) offer(sub *subscription, ev Event) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	attempts := 0
	if sub.direct && sub.queued.Load() == 0 {
		if sub.attempt(ev) == nil {
			sub.delivered.Add(1)
			return
		}
		attempts = 1
		if attempts >= m.opts.Retries {
			sub.failed.Add(1)
			return
		}
	}
	m.pending.Add(1)
	sub.queued.Add(1)
	select {
	case sub.queue <- queuedEvent{ev: ev, attempts: attempts}:
	default:
		sub.queued.Add(-1)
		sub.dropped.Add(1)
		m.finished()
	}
}

// attempt makes one delivery attempt. A panicking channel fails the
// attempt; the panic reaches neither the publisher nor the other
// subscribers.
func (sub *subscription) attempt(ev Event) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("notify: channel %s panicked: %v", sub.channel.Name(), r)
		}
	}()
	return sub.channel.Deliver(ev)
}

func (m *Manager) deliverLoop(sub *subscription) {
	defer close(sub.done)
	for q := range sub.queue {
		policy := resilience.Policy{
			Base:        m.opts.RetryDelay,
			Cap:         4 * m.opts.RetryDelay,
			MaxAttempts: m.opts.Retries - q.attempts,
			Seed:        sub.id,
		}
		err := resilience.Do(nil, policy, func() error {
			return sub.attempt(q.ev)
		})
		if err != nil {
			sub.failed.Add(1)
		} else {
			sub.delivered.Add(1)
		}
		sub.queued.Add(-1)
		m.finished()
	}
}

// finished retires one pending event, waking a waiting Flush when it
// was the last.
func (m *Manager) finished() {
	if m.pending.Add(-1) != 0 {
		return
	}
	m.drainMu.Lock()
	if m.drained != nil {
		close(m.drained)
		m.drained = nil
	}
	m.drainMu.Unlock()
}

// Flush blocks until all enqueued events have been delivered (or
// dropped/failed), up to the timeout. It returns false on timeout. A
// direct delivery has finished when its Publish returns, so only queued
// events are waited for. Tests and graceful shutdown use it. The drain
// signal is taken before each check, so a drain landing between the
// check and the wait still wakes it.
func (m *Manager) Flush(timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		m.drainMu.Lock()
		if m.drained == nil {
			m.drained = make(chan struct{})
		}
		drained := m.drained
		m.drainMu.Unlock()
		if m.pending.Load() <= 0 {
			return true
		}
		select {
		case <-drained:
		case <-deadline.C:
			return false
		}
	}
}

// Stats lists per-subscription delivery counters, ordered by id.
func (m *Manager) Stats() []SubscriptionStats {
	subs := m.list()
	out := make([]SubscriptionStats, 0, len(subs))
	for _, sub := range subs {
		out = append(out, SubscriptionStats{
			ID:        sub.id,
			Sensor:    sub.sensor,
			Channel:   sub.channel.Name(),
			Delivered: sub.delivered.Load(),
			Failed:    sub.failed.Load(),
			Dropped:   sub.dropped.Load(),
		})
	}
	return out
}

// Close shuts down every subscription.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	subs := m.removeLocked(func(*subscription) bool { return false })
	m.mu.Unlock()
	var first error
	for _, sub := range subs {
		if err := sub.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
