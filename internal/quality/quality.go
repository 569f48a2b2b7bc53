// Package quality implements the stream quality services of GSN's input
// stream manager (paper §4: "manages the input streams and ensures
// stream quality (disconnections, unexpected delays, missing values)",
// and §3's temporal controls: rate bounding, sampling, lifetime
// bounding).
//
// Each service but the two limiters is a composable stage wrapping a
// downstream Sink; the container chains them between a wrapper and the
// source window table. The limiters bound a whole input stream, so they
// forward nothing: the chains of the stream's sources consult them
// through Admit and AdmitBatch.
package quality

import (
	"math/rand"
	"sync"

	"gsn/internal/stream"
)

// Sink consumes stream elements; stages call the next stage's Sink.
type Sink func(stream.Element)

// BatchSink consumes a burst of elements in arrival order. Ownership of
// the slice passes to the callee: stages filter bursts in place, so the
// caller must not reuse the slice after offering it.
type BatchSink func([]stream.Element)

// Each stage also has an OfferBatch form that performs the stage's
// accounting for the whole burst under one lock acquisition and
// forwards the surviving elements downstream as one batch. The
// per-element decisions (sampling draws, token-bucket admits, repairs)
// are made in the same order with the same state transitions as the
// equivalent sequence of Offer calls, so any split of an arrival
// sequence into batches is observationally identical. A stage whose
// downstream has no batch form (nextBatch unset) falls back to calling
// the per-element Sink in order.

// Stats are the common per-stage counters.
type Stats struct {
	// In counts elements offered to the stage.
	In uint64
	// Out counts elements passed downstream.
	Out uint64
	// Dropped counts elements discarded by policy.
	Dropped uint64
}

// Sampler passes each element with a fixed probability — the
// descriptor's sampling-rate attribute. A rate of 1 passes everything
// without consuming randomness, keeping fully-sampled streams
// deterministic.
type Sampler struct {
	rate      float64
	next      Sink
	nextBatch BatchSink

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// NewSampler creates a sampler with the given pass rate in (0,1].
func NewSampler(rate float64, seed int64, next Sink) *Sampler {
	return &Sampler{rate: rate, rng: rand.New(rand.NewSource(seed)), next: next}
}

// SetBatchSink installs the downstream batch path; bursts that survive
// sampling are forwarded through it instead of element by element.
func (s *Sampler) SetBatchSink(b BatchSink) { s.nextBatch = b }

// Offer implements the stage's Sink.
func (s *Sampler) Offer(e stream.Element) {
	s.mu.Lock()
	s.stats.In++
	pass := s.rate >= 1 || s.rng.Float64() < s.rate
	if pass {
		s.stats.Out++
	} else {
		s.stats.Dropped++
	}
	s.mu.Unlock()
	if pass {
		s.next(e)
	}
}

// OfferBatch samples a burst under one lock, drawing per element in
// arrival order (so the RNG sequence matches the per-element path), and
// forwards the survivors as one batch.
func (s *Sampler) OfferBatch(elems []stream.Element) {
	if len(elems) == 0 {
		return
	}
	s.mu.Lock()
	kept := elems[:0]
	for _, e := range elems {
		s.stats.In++
		if s.rate >= 1 || s.rng.Float64() < s.rate {
			s.stats.Out++
			kept = append(kept, e)
		} else {
			s.stats.Dropped++
		}
	}
	s.mu.Unlock()
	forwardBatch(kept, s.nextBatch, s.next)
}

// Stats returns the stage counters.
func (s *Sampler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// forwardBatch hands a surviving burst downstream: through the batch
// path when one is installed, else element by element in order.
func forwardBatch(elems []stream.Element, batch BatchSink, next Sink) {
	if len(elems) == 0 {
		return
	}
	if batch != nil {
		batch(elems)
		return
	}
	for _, e := range elems {
		next(e)
	}
}

// RateLimiter bounds a stream to a maximum element rate "in order to
// avoid overloads of the system" (paper §3). It is a token bucket with
// one-second burst capacity; excess elements are dropped, which is the
// correct overload response for observations (they age, they don't
// queue).
type RateLimiter struct {
	maxPerSec float64
	clock     stream.Clock

	mu     sync.Mutex
	tokens float64
	last   stream.Timestamp
	stats  Stats
}

// NewRateLimiter creates a limiter; maxPerSec <= 0 disables limiting.
// The bucket starts with a single token so a freshly deployed stream is
// rate-bounded from its first second rather than admitting a start-up
// burst.
func NewRateLimiter(maxPerSec float64, clock stream.Clock) *RateLimiter {
	if clock == nil {
		clock = stream.SystemClock()
	}
	return &RateLimiter{maxPerSec: maxPerSec, clock: clock, tokens: 1}
}

// Admit performs the token-bucket accounting and reports whether the
// element passes.
func (r *RateLimiter) Admit(e stream.Element) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitLocked()
}

// AdmitBatch runs the token-bucket accounting for a burst under one
// lock and returns the admitted elements, filtered in place (each
// element consults the clock exactly as its Admit call would).
func (r *RateLimiter) AdmitBatch(elems []stream.Element) []stream.Element {
	if len(elems) == 0 {
		return elems
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := elems[:0]
	for _, e := range elems {
		if r.admitLocked() {
			kept = append(kept, e)
		}
	}
	return kept
}

func (r *RateLimiter) admitLocked() bool {
	r.stats.In++
	if r.maxPerSec <= 0 {
		r.stats.Out++
		return true
	}
	now := r.clock.Now()
	if r.last != 0 {
		elapsed := now.Sub(r.last).Seconds()
		if elapsed > 0 {
			r.tokens += elapsed * r.maxPerSec
			if r.tokens > r.maxPerSec {
				r.tokens = r.maxPerSec // burst capacity: one second's worth
			}
		}
	}
	r.last = now
	if r.tokens >= 1 {
		r.tokens--
		r.stats.Out++
		return true
	}
	r.stats.Dropped++
	return false
}

// Stats returns the stage counters.
func (r *RateLimiter) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// CountLimiter bounds the lifetime of a stream to a total element count
// (the input-stream count attribute): GSN reserves resources "only when
// they are needed". After the limit, elements are dropped and Exhausted
// reports true so the life-cycle manager can retire the stream.
type CountLimiter struct {
	max int64

	mu    sync.Mutex
	seen  int64
	stats Stats
}

// NewCountLimiter creates a limiter; max <= 0 disables it.
func NewCountLimiter(max int64) *CountLimiter {
	return &CountLimiter{max: max}
}

// Admit performs the count accounting and reports whether the element
// passes.
func (c *CountLimiter) Admit(e stream.Element) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitLocked()
}

// AdmitBatch runs the lifetime-count accounting for a burst under one
// lock and returns the admitted prefix, filtered in place.
func (c *CountLimiter) AdmitBatch(elems []stream.Element) []stream.Element {
	if len(elems) == 0 {
		return elems
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := elems[:0]
	for _, e := range elems {
		if c.admitLocked() {
			kept = append(kept, e)
		}
	}
	return kept
}

func (c *CountLimiter) admitLocked() bool {
	c.stats.In++
	if c.max <= 0 || c.seen < c.max {
		c.seen++
		c.stats.Out++
		return true
	}
	c.stats.Dropped++
	return false
}

// Exhausted reports whether the lifetime bound has been reached.
func (c *CountLimiter) Exhausted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max > 0 && c.seen >= c.max
}

// Stats returns the stage counters.
func (c *CountLimiter) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DisconnectBuffer holds elements while the downstream consumer is
// disconnected (the descriptor's disconnect-buffer attribute, sized in
// elements) and replays them in order on reconnect. When the buffer
// overflows, the oldest elements are dropped — for sensor observations
// the newest data is the valuable data.
type DisconnectBuffer struct {
	capacity  int
	next      Sink
	nextBatch BatchSink

	mu        sync.Mutex
	connected bool
	buf       []stream.Element
	stats     Stats
}

// NewDisconnectBuffer creates a buffer of the given capacity; zero
// capacity buffers nothing (disconnected elements drop). The buffer
// starts connected.
func NewDisconnectBuffer(capacity int, next Sink) *DisconnectBuffer {
	return &DisconnectBuffer{capacity: capacity, next: next, connected: true}
}

// SetBatchSink installs the downstream batch path, used for connected
// bursts and for the reconnect flush.
func (d *DisconnectBuffer) SetBatchSink(b BatchSink) { d.nextBatch = b }

// Offer implements the stage's Sink.
func (d *DisconnectBuffer) Offer(e stream.Element) {
	d.mu.Lock()
	d.stats.In++
	if d.connected {
		d.stats.Out++
		d.mu.Unlock()
		d.next(e)
		return
	}
	d.bufferLocked(e)
	d.mu.Unlock()
}

// OfferBatch passes a connected burst straight through as one batch;
// while disconnected it buffers with the same drop-oldest policy the
// per-element path applies.
func (d *DisconnectBuffer) OfferBatch(elems []stream.Element) {
	if len(elems) == 0 {
		return
	}
	d.mu.Lock()
	if d.connected {
		d.stats.In += uint64(len(elems))
		d.stats.Out += uint64(len(elems))
		d.mu.Unlock()
		forwardBatch(elems, d.nextBatch, d.next)
		return
	}
	for _, e := range elems {
		d.stats.In++
		d.bufferLocked(e)
	}
	d.mu.Unlock()
}

// bufferLocked holds one disconnected element, dropping the oldest on
// overflow — for sensor observations the newest data is the valuable
// data.
func (d *DisconnectBuffer) bufferLocked(e stream.Element) {
	if d.capacity > 0 {
		if len(d.buf) >= d.capacity {
			copy(d.buf, d.buf[1:])
			d.buf = d.buf[:len(d.buf)-1]
			d.stats.Dropped++
		}
		d.buf = append(d.buf, e)
	} else {
		d.stats.Dropped++
	}
}

// SetConnected flips the connection state; reconnecting flushes the
// buffer in arrival order — as one batch when a batch path is
// installed.
func (d *DisconnectBuffer) SetConnected(connected bool) {
	d.mu.Lock()
	wasConnected := d.connected
	d.connected = connected
	var flush []stream.Element
	if connected && !wasConnected {
		flush = d.buf
		d.buf = nil
		d.stats.Out += uint64(len(flush))
	}
	d.mu.Unlock()
	forwardBatch(flush, d.nextBatch, d.next)
}

// Buffered reports the number of elements currently held.
func (d *DisconnectBuffer) Buffered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.buf)
}

// Stats returns the stage counters.
func (d *DisconnectBuffer) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
