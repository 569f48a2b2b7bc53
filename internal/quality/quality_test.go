package quality

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gsn/internal/stream"
)

var qSchema = stream.MustSchema(
	stream.Field{Name: "a", Type: stream.TypeInt},
	stream.Field{Name: "b", Type: stream.TypeFloat},
)

func elem(t *testing.T, ts stream.Timestamp, a stream.Value, b stream.Value) stream.Element {
	t.Helper()
	e, err := stream.NewElement(qSchema, ts, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

type collector struct {
	mu    sync.Mutex
	elems []stream.Element
}

func (c *collector) sink(e stream.Element) {
	c.mu.Lock()
	c.elems = append(c.elems, e)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.elems)
}

func TestSamplerRateOnePassesEverything(t *testing.T) {
	var out collector
	s := NewSampler(1, 42, out.sink)
	for i := 0; i < 100; i++ {
		s.Offer(elem(t, stream.Timestamp(i), int64(i), nil))
	}
	if out.len() != 100 {
		t.Errorf("passed %d of 100 at rate 1", out.len())
	}
	st := s.Stats()
	if st.In != 100 || st.Out != 100 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSamplerStatistics(t *testing.T) {
	var out collector
	s := NewSampler(0.3, 7, out.sink)
	const n = 2000
	for i := 0; i < n; i++ {
		s.Offer(elem(t, stream.Timestamp(i), int64(i), nil))
	}
	got := float64(out.len()) / n
	if got < 0.25 || got > 0.35 {
		t.Errorf("pass fraction = %v, want ≈0.3", got)
	}
}

// Property: for any rate, In == Out + Dropped.
func TestQuickSamplerConservation(t *testing.T) {
	f := func(seed int64, rateByte uint8, n uint8) bool {
		rate := float64(rateByte%100)/100 + 0.01
		var out collector
		s := NewSampler(rate, seed, out.sink)
		e, _ := stream.NewElement(qSchema, 1, int64(1), 1.0)
		for i := 0; i < int(n); i++ {
			s.Offer(e)
		}
		st := s.Stats()
		return st.In == uint64(n) && st.In == st.Out+st.Dropped && int(st.Out) == out.len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// gate passes e to out when the limiters admit it, consulted the way
// the container's per-source chain does: rate first, then lifetime
// count (a nil limiter admits everything).
func gate(out *collector, e stream.Element, rl *RateLimiter, cl *CountLimiter) {
	if (rl == nil || rl.Admit(e)) && (cl == nil || cl.Admit(e)) {
		out.sink(e)
	}
}

func TestRateLimiterBoundsThroughput(t *testing.T) {
	clock := stream.NewManualClock(0)
	var out collector
	rl := NewRateLimiter(10, clock) // 10/sec
	// Offer 50 elements within one simulated second: only ~10 pass.
	for i := 0; i < 50; i++ {
		clock.Advance(20 * time.Millisecond) // 1s total
		gate(&out, elem(t, clock.Now(), int64(i), nil), rl, nil)
	}
	if got := out.len(); got < 8 || got > 13 {
		t.Errorf("passed %d of 50 at 10/s over 1s", got)
	}
	// After a long quiet period the bucket refills (burst of up to 10).
	clock.Advance(5 * time.Second)
	before := out.len()
	for i := 0; i < 20; i++ {
		gate(&out, elem(t, clock.Now(), int64(i), nil), rl, nil)
	}
	if burst := out.len() - before; burst < 9 || burst > 11 {
		t.Errorf("burst after refill = %d, want ≈10", burst)
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	var out collector
	rl := NewRateLimiter(0, stream.NewManualClock(0))
	for i := 0; i < 100; i++ {
		gate(&out, elem(t, 1, int64(i), nil), rl, nil)
	}
	if out.len() != 100 {
		t.Errorf("disabled limiter passed %d of 100", out.len())
	}
}

func TestCountLimiterLifetimeBound(t *testing.T) {
	var out collector
	cl := NewCountLimiter(5)
	for i := 0; i < 10; i++ {
		gate(&out, elem(t, stream.Timestamp(i), int64(i), nil), nil, cl)
	}
	if out.len() != 5 {
		t.Errorf("passed %d, want 5", out.len())
	}
	if !cl.Exhausted() {
		t.Error("limiter should be exhausted")
	}
	st := cl.Stats()
	if st.In != 10 || st.Out != 5 || st.Dropped != 5 {
		t.Errorf("stats = %+v", st)
	}
	unlimited := NewCountLimiter(0)
	if unlimited.Exhausted() {
		t.Error("unlimited limiter reports exhausted")
	}
}

func TestDisconnectBufferReplaysInOrder(t *testing.T) {
	var out collector
	db := NewDisconnectBuffer(10, out.sink)
	db.Offer(elem(t, 1, int64(1), nil))
	if out.len() != 1 {
		t.Fatalf("connected element not passed")
	}
	db.SetConnected(false)
	for i := 2; i <= 4; i++ {
		db.Offer(elem(t, stream.Timestamp(i), int64(i), nil))
	}
	if out.len() != 1 {
		t.Fatalf("disconnected elements leaked: %d", out.len())
	}
	if db.Buffered() != 3 {
		t.Fatalf("buffered = %d", db.Buffered())
	}
	db.SetConnected(true)
	if out.len() != 4 {
		t.Fatalf("flush delivered %d of 4", out.len())
	}
	for i, want := range []int64{1, 2, 3, 4} {
		if out.elems[i].Value(0) != want {
			t.Errorf("element %d = %v, want %d", i, out.elems[i].Value(0), want)
		}
	}
	if db.Buffered() != 0 {
		t.Errorf("buffer not drained: %d", db.Buffered())
	}
}

func TestDisconnectBufferOverflowDropsOldest(t *testing.T) {
	var out collector
	db := NewDisconnectBuffer(3, out.sink)
	db.SetConnected(false)
	for i := 1; i <= 5; i++ {
		db.Offer(elem(t, stream.Timestamp(i), int64(i), nil))
	}
	db.SetConnected(true)
	if out.len() != 3 {
		t.Fatalf("flushed %d, want 3", out.len())
	}
	if out.elems[0].Value(0) != int64(3) || out.elems[2].Value(0) != int64(5) {
		t.Errorf("kept %v, want newest 3..5", out.elems)
	}
	st := db.Stats()
	if st.Dropped != 2 {
		t.Errorf("dropped = %d", st.Dropped)
	}
}

func TestDisconnectBufferZeroCapacity(t *testing.T) {
	var out collector
	db := NewDisconnectBuffer(0, out.sink)
	db.SetConnected(false)
	db.Offer(elem(t, 1, int64(1), nil))
	db.SetConnected(true)
	if out.len() != 0 {
		t.Errorf("zero-capacity buffer delivered %d", out.len())
	}
}

func TestRepairerHoldLast(t *testing.T) {
	var out collector
	r := NewRepairer(RepairHoldLast, out.sink)
	r.Offer(elem(t, 1, int64(10), 1.5))
	r.Offer(elem(t, 2, nil, nil)) // both repaired
	r.Offer(elem(t, 3, int64(30), nil))
	if out.len() != 3 {
		t.Fatalf("passed %d", out.len())
	}
	if out.elems[1].Value(0) != int64(10) || out.elems[1].Value(1) != 1.5 {
		t.Errorf("repaired element = %v", out.elems[1])
	}
	if out.elems[2].Value(0) != int64(30) || out.elems[2].Value(1) != 1.5 {
		t.Errorf("partially repaired element = %v", out.elems[2])
	}
	if r.Repaired() != 2 {
		t.Errorf("repaired count = %d", r.Repaired())
	}
	// First element with NULLs has nothing to hold: passes as-is.
	var out2 collector
	r2 := NewRepairer(RepairHoldLast, out2.sink)
	r2.Offer(elem(t, 1, nil, nil))
	if out2.elems[0].Value(0) != nil {
		t.Error("nothing to hold should stay NULL")
	}
}

func TestRepairerDrop(t *testing.T) {
	var out collector
	r := NewRepairer(RepairDrop, out.sink)
	r.Offer(elem(t, 1, int64(1), 1.0))
	r.Offer(elem(t, 2, nil, 2.0))
	if out.len() != 1 {
		t.Errorf("passed %d, want 1", out.len())
	}
	if st := r.Stats(); st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestParseRepairPolicy(t *testing.T) {
	for in, want := range map[string]RepairPolicy{
		"": RepairNone, "none": RepairNone,
		"hold-last": RepairHoldLast, "last": RepairHoldLast,
		"drop": RepairDrop,
	} {
		got, ok := ParseRepairPolicy(in)
		if !ok || got != want {
			t.Errorf("ParseRepairPolicy(%q) = %v, %v", in, got, ok)
		}
	}
	if _, ok := ParseRepairPolicy("interpolate-wildly"); ok {
		t.Error("unknown policy accepted")
	}
}

func TestGapDetector(t *testing.T) {
	clock := stream.NewManualClock(0)
	var gaps []time.Duration
	g := NewGapDetector(5*time.Second, clock, func(_ stream.Timestamp, silence time.Duration) {
		gaps = append(gaps, silence)
	})
	g.Offer(elem(t, clock.Now(), int64(1), nil))
	clock.Advance(3 * time.Second)
	if g.Check() {
		t.Error("gap reported before timeout")
	}
	clock.Advance(3 * time.Second) // 6s of silence
	if !g.Check() {
		t.Error("gap not reported after timeout")
	}
	// Repeated checks within the same silence don't re-fire.
	g.Check()
	g.Check()
	if len(gaps) != 1 || g.Gaps() != 1 {
		t.Errorf("gap callbacks = %d, counter = %d", len(gaps), g.Gaps())
	}
	// Arrival closes the gap; a fresh silence re-fires.
	g.Offer(elem(t, clock.Now(), int64(2), nil))
	clock.Advance(10 * time.Second)
	if !g.Check() || g.Gaps() != 2 {
		t.Errorf("second gap not detected (gaps=%d)", g.Gaps())
	}
}

func TestGapDetectorDisabled(t *testing.T) {
	g := NewGapDetector(0, stream.NewManualClock(0), nil)
	if g.Check() {
		t.Error("disabled detector reported a gap")
	}
}

func TestStageChainComposition(t *testing.T) {
	// wrapper → sampler(1) → ratelimit(off) → repair(hold) → buffer → table
	var out collector
	db := NewDisconnectBuffer(5, out.sink)
	rp := NewRepairer(RepairHoldLast, db.Offer)
	rl := NewRateLimiter(0, stream.NewManualClock(0))
	s := NewSampler(1, 1, func(e stream.Element) {
		if rl.Admit(e) {
			rp.Offer(e)
		}
	})
	s.Offer(elem(t, 1, int64(5), 2.0))
	s.Offer(elem(t, 2, nil, nil))
	if out.len() != 2 {
		t.Fatalf("chain delivered %d", out.len())
	}
	if out.elems[1].Value(0) != int64(5) {
		t.Errorf("chain did not repair: %v", out.elems[1])
	}
}
