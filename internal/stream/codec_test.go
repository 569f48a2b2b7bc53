package stream

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeElementRoundTrip(t *testing.T) {
	e := MustElement(testSchema, 12345, 42, 3.25, "hello", []byte{0xde, 0xad}, true)
	e = e.WithArrival(12400)
	buf := EncodeElement(nil, e)
	got, n, err := DecodeElement(testSchema, buf)
	if err != nil {
		t.Fatalf("DecodeElement: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	assertElementsEqual(t, e, got)
}

func TestEncodeDecodeElementCompactRoundTrip(t *testing.T) {
	prev := Timestamp(0)
	for _, ts := range []Timestamp{12345, 12300, 12346, 1 << 40} { // deltas go both ways
		e := MustElement(testSchema, ts, 42, 3.25, "hello", []byte{0xde, 0xad}, true)
		buf := EncodeElementCompact(nil, e, prev)
		got, n, err := DecodeElementCompact(testSchema, buf, prev)
		if err != nil {
			t.Fatalf("DecodeElementCompact: %v", err)
		}
		if n != len(buf) {
			t.Errorf("consumed %d of %d bytes", n, len(buf))
		}
		if got.Timestamp() != ts {
			t.Errorf("timestamp = %v, want %v", got.Timestamp(), ts)
		}
		// Compact records re-stamp arrival/produced from the logical
		// timestamp.
		if got.Arrival() != ts || got.Produced() != ts {
			t.Errorf("stamps = %v/%v, want %v", got.Arrival(), got.Produced(), ts)
		}
		for i := 0; i < e.Len(); i++ {
			if !reflect.DeepEqual(e.Value(i), got.Value(i)) {
				t.Errorf("value %d = %v, want %v", i, got.Value(i), e.Value(i))
			}
		}
		prev = ts
	}
}

func TestCompactEncodingIsSmaller(t *testing.T) {
	e := MustElement(MustSchema(Field{Name: "v", Type: TypeInt}), 1_700_000_000_001, 7)
	full := EncodeElement(nil, e)
	compact := EncodeElementCompact(nil, e, 1_700_000_000_000)
	if len(compact) >= len(full)/2 {
		t.Errorf("compact record is %dB vs full %dB; expected < half", len(compact), len(full))
	}
}

func TestEncodeDecodeNulls(t *testing.T) {
	e := MustElement(testSchema, 1, nil, nil, nil, nil, nil)
	got, _, err := DecodeElement(testSchema, EncodeElement(nil, e))
	if err != nil {
		t.Fatalf("DecodeElement: %v", err)
	}
	for i := 0; i < got.Len(); i++ {
		if got.Value(i) != nil {
			t.Errorf("Value(%d) = %v, want nil", i, got.Value(i))
		}
	}
}

func TestDecodeElementArityCheck(t *testing.T) {
	small := MustSchema(Field{Name: "a", Type: TypeInt})
	e := MustElement(testSchema, 1, 1, 1.0, "x", nil, true)
	if _, _, err := DecodeElement(small, EncodeElement(nil, e)); err == nil {
		t.Fatal("DecodeElement accepted value count mismatching schema")
	}
}

func TestDecodeElementTruncated(t *testing.T) {
	e := MustElement(testSchema, 1, 1, 1.0, "xyz", []byte{9}, true)
	buf := EncodeElement(nil, e)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeElement(testSchema, buf[:cut]); err == nil {
			t.Fatalf("DecodeElement accepted truncation at %d/%d bytes", cut, len(buf))
		}
	}
}

func TestDecodeElementGarbage(t *testing.T) {
	// Random garbage must error or decode without panicking.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		DecodeElement(nil, buf) // must not panic
	}
}

// TestValueCodecRoundTrip pins the tagged value codec the peer answers
// ride on: every dynamic value type survives bit-exactly — negative
// zero, a NaN's payload, the infinities, the smallest subnormal, int64s
// outside float53, invalid UTF-8 in strings and bytes, and an empty
// string apart from empty bytes.
func TestValueCodecRoundTrip(t *testing.T) {
	values := []Value{
		nil,
		int64(0), int64(-1), int64(1<<62 + 12345), int64(1 << 62), int64(-1 << 62),
		float64(0.1), float64(-0.25), float64(1e300), float64(5e-324),
		math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Inf(1), math.Inf(-1),
		"plain", "", "snowman ☃", "\xff\xfe",
		[]byte{0xff, 0xfe, 0x00, 0x41}, []byte{},
		true, false,
	}
	for _, v := range values {
		data := AppendValue(nil, v)
		r := NewReader(data)
		back := r.Value()
		if err := r.Done(); err != nil {
			t.Fatalf("%#v: decode %x: %v", v, data, err)
		}
		switch orig := v.(type) {
		case float64:
			got, ok := back.(float64)
			if !ok || math.Float64bits(got) != math.Float64bits(orig) {
				t.Errorf("float %x round-tripped to %#v", math.Float64bits(orig), back)
			}
		case []byte:
			got, ok := back.([]byte)
			if !ok || got == nil || !bytes.Equal(got, orig) {
				t.Errorf("bytes %x round-tripped to %#v", orig, back)
			}
		default:
			if back != v {
				t.Errorf("%#v round-tripped to %#v (wire %x)", v, back, data)
			}
		}
	}
}

// TestReaderRefusesMalformed: input from a peer is never trusted. An
// unknown tag, a bool byte other than 0/1, a non-minimal varint (which
// would not re-encode to the same bytes), a count the remaining bytes
// cannot hold and trailing bytes are errors, not values.
func TestReaderRefusesMalformed(t *testing.T) {
	for name, data := range map[string][]byte{
		"unknown tag":        {9},
		"bool byte 2":        {tagBool, 2},
		"non-minimal varint": {tagString, 0x80, 0x00},
		"oversized count":    {tagBytes, 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'},
		"short int":          {tagInt, 0, 0, 0},
		"trailing bytes":     {tagNull, 0},
		"empty":              {},
		"overflowing varint": {tagString, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		r := NewReader(data)
		v := r.Value()
		if err := r.Done(); err == nil {
			t.Errorf("%s: %x decoded to %#v", name, data, v)
		}
	}
	// 128 items of at least one byte each, with two bytes left.
	r := NewReader([]byte{0x80, 0x01, 0, 0})
	if n := r.Count(1); n != 0 || r.Done() == nil {
		t.Errorf("a count of 128 over 2 bytes read as %d", n)
	}
}

func TestWriteReadElementStream(t *testing.T) {
	var buf bytes.Buffer
	elems := []Element{
		MustElement(testSchema, 1, 1, 1.5, "a", []byte{1}, true),
		MustElement(testSchema, 2, 2, 2.5, "b", nil, false),
		MustElement(testSchema, 3, nil, nil, "c", []byte{}, nil),
	}
	for _, e := range elems {
		if err := WriteElement(&buf, e); err != nil {
			t.Fatalf("WriteElement: %v", err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range elems {
		got, err := ReadElement(r, testSchema)
		if err != nil {
			t.Fatalf("ReadElement[%d]: %v", i, err)
		}
		assertElementsEqual(t, want, got)
	}
	if _, err := ReadElement(r, testSchema); err == nil {
		t.Fatal("ReadElement past end succeeded")
	}
}

func TestEncodeDecodeSchemaRoundTrip(t *testing.T) {
	buf := EncodeSchema(nil, testSchema)
	got, n, err := DecodeSchema(buf)
	if err != nil {
		t.Fatalf("DecodeSchema: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if !got.Equal(testSchema) {
		t.Errorf("schema round-trip: %s != %s", got, testSchema)
	}
}

// quickValues generates a random value tuple for testSchema.
func quickValues(rng *rand.Rand) []Value {
	vs := make([]Value, 5)
	if rng.Intn(4) > 0 {
		vs[0] = rng.Int63()
	}
	if rng.Intn(4) > 0 {
		vs[1] = rng.NormFloat64()
	}
	if rng.Intn(4) > 0 {
		b := make([]byte, rng.Intn(20))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		vs[2] = string(b)
	}
	if rng.Intn(4) > 0 {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		vs[3] = b
	}
	if rng.Intn(4) > 0 {
		vs[4] = rng.Intn(2) == 0
	}
	return vs
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(ts int64, arrival int64) bool {
		rng := rand.New(rand.NewSource(ts ^ arrival))
		e, err := NewElement(testSchema, Timestamp(ts), quickValues(rng)...)
		if err != nil {
			return false
		}
		e = e.WithArrival(Timestamp(arrival))
		got, n, err := DecodeElement(testSchema, EncodeElement(nil, e))
		if err != nil || n == 0 {
			return false
		}
		return elementsEqual(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func elementsEqual(a, b Element) bool {
	if a.Timestamp() != b.Timestamp() || a.Arrival() != b.Arrival() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		av, bv := a.Value(i), b.Value(i)
		if av == nil || bv == nil {
			if av != nil || bv != nil {
				return false
			}
			continue
		}
		if fa, ok := av.(float64); ok {
			fb, ok2 := bv.(float64)
			if !ok2 {
				return false
			}
			if math.IsNaN(fa) && math.IsNaN(fb) {
				continue
			}
			if fa != fb {
				return false
			}
			continue
		}
		if !reflect.DeepEqual(av, bv) {
			return false
		}
	}
	return true
}

func assertElementsEqual(t *testing.T, want, got Element) {
	t.Helper()
	if !elementsEqual(want, got) {
		t.Errorf("elements differ:\n want %v\n got  %v", want, got)
	}
}
