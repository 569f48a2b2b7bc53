package stream

import (
	"fmt"
	"strings"
	"time"
)

// Timestamp is a point in time expressed as milliseconds since the Unix
// epoch, the representation GSN stores in its TIMED column.
type Timestamp int64

// TimestampOf converts a time.Time to a Timestamp.
func TimestampOf(t time.Time) Timestamp { return Timestamp(t.UnixMilli()) }

// Time converts the timestamp back to a time.Time in UTC.
func (ts Timestamp) Time() time.Time { return time.UnixMilli(int64(ts)).UTC() }

// Add returns the timestamp shifted by d.
func (ts Timestamp) Add(d time.Duration) Timestamp {
	return ts + Timestamp(d.Milliseconds())
}

// Sub returns the duration between two timestamps.
func (ts Timestamp) Sub(o Timestamp) time.Duration {
	return time.Duration(int64(ts)-int64(o)) * time.Millisecond
}

// String renders the timestamp in RFC 3339 with millisecond precision.
func (ts Timestamp) String() string {
	return ts.Time().Format("2006-01-02T15:04:05.000Z07:00")
}

// Element is one timestamped tuple of a data stream. Elements are
// immutable once constructed; transformation produces new elements.
type Element struct {
	schema   *Schema
	values   []Value
	ts       Timestamp // logical (producer) timestamp
	arrival  Timestamp // reception time at the container (paper §3 item 3)
	produced Timestamp // time the producing device generated the reading
	size     int       // cached Size(); values are immutable, so it never changes
}

// NewElement builds an element after validating and coercing the values
// against the schema. The element's arrival time is left zero; the
// container stamps it on reception.
func NewElement(schema *Schema, ts Timestamp, values ...Value) (Element, error) {
	if schema == nil {
		return Element{}, fmt.Errorf("stream: nil schema")
	}
	if len(values) != schema.Len() {
		return Element{}, fmt.Errorf("stream: element has %d values, schema %s has %d fields",
			len(values), schema, schema.Len())
	}
	vs := make([]Value, len(values))
	for i, v := range values {
		cv, err := Coerce(v, schema.Field(i).Type)
		if err != nil {
			return Element{}, fmt.Errorf("stream: field %s: %w", schema.Field(i).Name, err)
		}
		vs[i] = cv
	}
	e := Element{schema: schema, values: vs, ts: ts, produced: ts}
	e.size = sizeOf(vs)
	return e, nil
}

// MustElement is like NewElement but panics on error. For tests.
func MustElement(schema *Schema, ts Timestamp, values ...Value) Element {
	e, err := NewElement(schema, ts, values...)
	if err != nil {
		panic(err)
	}
	return e
}

// Schema returns the element's schema.
func (e Element) Schema() *Schema { return e.schema }

// Timestamp returns the element's logical timestamp.
func (e Element) Timestamp() Timestamp { return e.ts }

// Arrival returns the container reception time (zero until stamped).
func (e Element) Arrival() Timestamp { return e.arrival }

// Produced returns the device production time.
func (e Element) Produced() Timestamp { return e.produced }

// HasTimestamp reports whether the element carries a non-zero logical
// timestamp. Elements without one are stamped by the container's local
// clock (processing step 1 in the paper).
func (e Element) HasTimestamp() bool { return e.ts != 0 }

// WithTimestamp returns a copy of the element with the logical timestamp
// replaced.
func (e Element) WithTimestamp(ts Timestamp) Element {
	e.ts = ts
	return e
}

// WithArrival returns a copy of the element stamped with an arrival time.
func (e Element) WithArrival(ts Timestamp) Element {
	e.arrival = ts
	return e
}

// Len returns the number of values.
func (e Element) Len() int { return len(e.values) }

// Value returns the i-th value. It panics if i is out of range.
func (e Element) Value(i int) Value { return e.values[i] }

// ValueByName returns the named value and whether the field exists.
func (e Element) ValueByName(name string) (Value, bool) {
	i := e.schema.IndexOf(name)
	if i < 0 {
		return nil, false
	}
	return e.values[i], true
}

// Values returns a copy of the value slice.
func (e Element) Values() []Value {
	out := make([]Value, len(e.values))
	copy(out, e.values)
	return out
}

// Clone returns the element with a value slice of its own, for keeping
// an element past the life of the buffer it was decoded into.
func (e Element) Clone() Element {
	e.values = append([]Value(nil), e.values...)
	return e
}

// Size returns the approximate wire size of the element payload in
// bytes. It is used by the stream quality manager for rate accounting
// and by the evaluation harness to report stream element sizes (SES).
// The constructors cache it, so the hot insert/evict accounting in the
// storage layer does not re-walk the values.
func (e Element) Size() int {
	if e.size > 0 {
		return e.size
	}
	return sizeOf(e.values)
}

func sizeOf(values []Value) int {
	n := 8 + 8 // two timestamps
	for _, v := range values {
		switch x := v.(type) {
		case nil:
			n++
		case int64, float64:
			n += 8
		case bool:
			n++
		case string:
			n += len(x)
		case []byte:
			n += len(x)
		}
	}
	return n
}

// String renders the element for logs: "ts=... (v1, v2, ...)".
func (e Element) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ts=%d (", int64(e.ts))
	for i, v := range e.values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(FormatValue(v))
	}
	b.WriteByte(')')
	return b.String()
}
