package quality

import (
	"testing"
	"testing/quick"
	"time"

	"gsn/internal/stream"
)

// batchCollector records what reaches the end of a chain, noting whether it
// arrived through the batch or the per-element path.
type batchCollector struct {
	elems   []stream.Element
	batches int
	singles int
}

func (c *batchCollector) sink(e stream.Element) {
	c.elems = append(c.elems, e)
	c.singles++
}

func (c *batchCollector) batchSink(elems []stream.Element) {
	c.elems = append(c.elems, elems...)
	c.batches++
}

func batchTestElems(t testing.TB, n int) []stream.Element {
	t.Helper()
	schema := stream.MustSchema(stream.Field{Name: "v", Type: stream.TypeInt})
	out := make([]stream.Element, n)
	for i := range out {
		e, err := stream.NewElement(schema, stream.Timestamp(i+1), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return out
}

// values extracts the payload ints for comparison.
func values(elems []stream.Element) []int64 {
	out := make([]int64, len(elems))
	for i, e := range elems {
		out[i] = e.Value(0).(int64)
	}
	return out
}

func equalValues(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSamplerBatchEquivalence: with the same seed, any batching of the
// same arrivals draws the RNG in the same order and keeps the same
// subset.
func TestSamplerBatchEquivalence(t *testing.T) {
	f := func(n uint8, split uint8) bool {
		elems := batchTestElems(t, int(n%50)+1)
		perElem, batched := &batchCollector{}, &batchCollector{}
		s1 := NewSampler(0.5, 42, perElem.sink)
		s2 := NewSampler(0.5, 42, nil)
		s2.SetBatchSink(batched.batchSink)

		for _, e := range elems {
			s1.Offer(e)
		}
		step := int(split%5) + 1
		for i := 0; i < len(elems); i += step {
			end := i + step
			if end > len(elems) {
				end = len(elems)
			}
			chunk := make([]stream.Element, end-i)
			copy(chunk, elems[i:end])
			s2.OfferBatch(chunk)
		}
		if !equalValues(values(perElem.elems), values(batched.elems)) {
			return false
		}
		st1, st2 := s1.Stats(), s2.Stats()
		return st1 == st2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRateLimiterAdmitBatchEquivalence: token accounting must not
// depend on how arrivals are grouped when the clock does not move
// within a group.
func TestRateLimiterAdmitBatchEquivalence(t *testing.T) {
	elems := batchTestElems(t, 30)
	clock1 := stream.NewManualClock(0)
	clock2 := stream.NewManualClock(0)
	r1 := NewRateLimiter(5, clock1)
	r2 := NewRateLimiter(5, clock2)

	var admitted1, admitted2 []int64
	for i := 0; i < len(elems); i += 10 {
		clock1.Advance(time.Second)
		clock2.Advance(time.Second)
		for _, e := range elems[i : i+10] {
			if r1.Admit(e) {
				admitted1 = append(admitted1, e.Value(0).(int64))
			}
		}
		chunk := make([]stream.Element, 10)
		copy(chunk, elems[i:i+10])
		for _, e := range r2.AdmitBatch(chunk) {
			admitted2 = append(admitted2, e.Value(0).(int64))
		}
	}
	if !equalValues(admitted1, admitted2) {
		t.Fatalf("per-element admitted %v, batch admitted %v", admitted1, admitted2)
	}
	if r1.Stats() != r2.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", r1.Stats(), r2.Stats())
	}
	if len(admitted1) >= len(elems) {
		t.Fatal("limiter admitted everything; the test exercised nothing")
	}
}

// TestCountLimiterAdmitBatch: the lifetime bound cuts a batch at the
// same element it would cut the stream.
func TestCountLimiterAdmitBatch(t *testing.T) {
	elems := batchTestElems(t, 10)
	c := NewCountLimiter(7)
	chunk := make([]stream.Element, len(elems))
	copy(chunk, elems)
	kept := c.AdmitBatch(chunk)
	if len(kept) != 7 {
		t.Fatalf("admitted %d, want 7", len(kept))
	}
	if !c.Exhausted() {
		t.Fatal("limiter should be exhausted")
	}
	if got := c.AdmitBatch(batchTestElems(t, 3)); len(got) != 0 {
		t.Fatalf("exhausted limiter admitted %d", len(got))
	}
}

// TestRepairerBatchHoldLast: hold-last state must advance across batch
// boundaries exactly as it does element by element.
func TestRepairerBatchHoldLast(t *testing.T) {
	schema := stream.MustSchema(stream.Field{Name: "v", Type: stream.TypeInt})
	mk := func(ts stream.Timestamp, v stream.Value) stream.Element {
		e, err := stream.NewElement(schema, ts, v)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq := func() []stream.Element {
		return []stream.Element{
			mk(1, int64(10)), mk(2, nil), mk(3, int64(30)), mk(4, nil), mk(5, nil),
		}
	}
	perElem, batched := &batchCollector{}, &batchCollector{}
	r1 := NewRepairer(RepairHoldLast, perElem.sink)
	r2 := NewRepairer(RepairHoldLast, nil)
	r2.SetBatchSink(batched.batchSink)

	for _, e := range seq() {
		r1.Offer(e)
	}
	s := seq()
	r2.OfferBatch(s[:2])
	r2.OfferBatch(s[2:])

	want := []int64{10, 10, 30, 30, 30}
	if !equalValues(values(perElem.elems), want) {
		t.Fatalf("per-element repaired to %v", values(perElem.elems))
	}
	if !equalValues(values(batched.elems), want) {
		t.Fatalf("batch repaired to %v", values(batched.elems))
	}
	if r1.Repaired() != r2.Repaired() {
		t.Fatalf("repaired counts diverged: %d vs %d", r1.Repaired(), r2.Repaired())
	}
}

// TestRepairerBatchDrop: drop policy filters a batch in place.
func TestRepairerBatchDrop(t *testing.T) {
	schema := stream.MustSchema(stream.Field{Name: "v", Type: stream.TypeInt})
	e1, _ := stream.NewElement(schema, 1, int64(1))
	e2, _ := stream.NewElement(schema, 2, nil)
	e3, _ := stream.NewElement(schema, 3, int64(3))
	out := &batchCollector{}
	r := NewRepairer(RepairDrop, nil)
	r.SetBatchSink(out.batchSink)
	r.OfferBatch([]stream.Element{e1, e2, e3})
	if !equalValues(values(out.elems), []int64{1, 3}) {
		t.Fatalf("drop policy kept %v", values(out.elems))
	}
	if st := r.Stats(); st.Dropped != 1 || st.Out != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDisconnectBufferBatch: connected bursts pass through as one
// batch; disconnected bursts buffer with drop-oldest and flush as one
// batch on reconnect.
func TestDisconnectBufferBatch(t *testing.T) {
	out := &batchCollector{}
	d := NewDisconnectBuffer(3, out.sink)
	d.SetBatchSink(out.batchSink)

	d.OfferBatch(batchTestElems(t, 2))
	if out.batches != 1 || len(out.elems) != 2 {
		t.Fatalf("connected burst: %d batches, %d elems", out.batches, len(out.elems))
	}

	d.SetConnected(false)
	d.OfferBatch(batchTestElems(t, 5)) // capacity 3: oldest two drop
	if d.Buffered() != 3 {
		t.Fatalf("buffered %d, want 3", d.Buffered())
	}
	d.SetConnected(true)
	if out.batches != 2 {
		t.Fatalf("reconnect flush should arrive as one batch (batches=%d)", out.batches)
	}
	if got := values(out.elems[2:]); !equalValues(got, []int64{2, 3, 4}) {
		t.Fatalf("flushed %v, want the newest three", got)
	}
	if st := d.Stats(); st.Dropped != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBatchFallsBackPerElement: a stage with no batch sink installed
// must deliver a burst through the per-element Sink in order.
func TestBatchFallsBackPerElement(t *testing.T) {
	out := &batchCollector{}
	s := NewSampler(1, 1, out.sink) // no SetBatchSink
	s.OfferBatch(batchTestElems(t, 4))
	if out.singles != 4 || out.batches != 0 {
		t.Fatalf("fallback delivered %d singles, %d batches", out.singles, out.batches)
	}
	if !equalValues(values(out.elems), []int64{0, 1, 2, 3}) {
		t.Fatalf("fallback order %v", values(out.elems))
	}
}
