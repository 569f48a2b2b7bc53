package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary wire format, used for inter-node transport and the persistence
// log. Elements are self-describing (each value carries a one-byte type
// tag) so a decoder only needs the schema to re-attach field names.
//
//	element  := ts:int64 arrival:int64 produced:int64 n:uvarint value*
//	value    := tag:byte payload
//	tag      := 0 (null) | 1 (int64) | 2 (float64) | 3 (string)
//	          | 4 (bytes) | 5 (bool)
//	string   := len:uvarint bytes
//	bytes    := len:uvarint bytes
//	bool     := 0|1 byte

const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagString
	tagBytes
	tagBool
)

// maxBlobLen bounds decoded string/byte lengths to guard against corrupt
// or hostile input (the p2p layer feeds this decoder from the network).
const maxBlobLen = 64 << 20 // 64 MiB

// EncodeElement appends the binary encoding of e to buf and returns the
// extended slice.
func EncodeElement(buf []byte, e Element) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.ts))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.arrival))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.produced))
	buf = binary.AppendUvarint(buf, uint64(len(e.values)))
	for _, v := range e.values {
		buf = appendValue(buf, v)
	}
	return buf
}

// appendValue appends one tagged value encoding.
func appendValue(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		buf = append(buf, tagNull)
	case int64:
		buf = append(buf, tagInt)
		buf = binary.BigEndian.AppendUint64(buf, uint64(x))
	case float64:
		buf = append(buf, tagFloat)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
	case string:
		buf = append(buf, tagString)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
	case []byte:
		buf = append(buf, tagBytes)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
	case bool:
		buf = append(buf, tagBool)
		if x {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	default:
		// NewElement coerces to the closed type set, so this is
		// unreachable for validly constructed elements.
		panic(fmt.Sprintf("stream: cannot encode value of type %T", v))
	}
	return buf
}

// EncodeElementCompact appends the compact (WAL v2) payload of e: a
// zigzag-varint delta of its logical timestamp from prev, the value
// count and the tagged values with integers varint-compressed. Arrival
// and production stamps are not persisted — a replayed element is
// re-stamped from its logical timestamp. For small sensor tuples this
// cuts the record to a third of the full encoding, and with it the
// bytes the group-commit flusher must drain.
func EncodeElementCompact(buf []byte, e Element, prev Timestamp) []byte {
	buf = binary.AppendVarint(buf, int64(e.ts)-int64(prev))
	buf = binary.AppendUvarint(buf, uint64(len(e.values)))
	for _, v := range e.values {
		if x, ok := v.(int64); ok {
			// Sensor readings are small integers; zigzag-varint them
			// instead of spending 8 fixed bytes.
			buf = append(buf, tagInt)
			buf = binary.AppendVarint(buf, x)
			continue
		}
		buf = appendValue(buf, v)
	}
	return buf
}

// DecodeElementCompact decodes a compact payload written by
// EncodeElementCompact, attaching the schema and resolving the
// timestamp delta against prev. The arrival and production stamps are
// set to the logical timestamp.
func DecodeElementCompact(schema *Schema, data []byte, prev Timestamp) (Element, int, error) {
	return DecodeElementCompactInto(schema, data, prev, nil)
}

// DecodeElementCompactInto is DecodeElementCompact decoding the values
// into buf when it has room for them (a buffer as long as the schema
// always has). The element then shares buf: it is valid until the
// caller reuses buf, which lets a scan decode record after record
// without allocating a value slice for each.
func DecodeElementCompactInto(schema *Schema, data []byte, prev Timestamp, buf []Value) (Element, int, error) {
	r := &sliceReader{data: data}
	delta, err := r.varint()
	if err != nil {
		return Element{}, 0, err
	}
	ts := Timestamp(int64(prev) + delta)
	n, err := r.uvarint()
	if err != nil {
		return Element{}, 0, err
	}
	if schema != nil && int(n) != schema.Len() {
		return Element{}, 0, fmt.Errorf("stream: decoded %d values for schema with %d fields", n, schema.Len())
	}
	if n > uint64(len(data)) {
		return Element{}, 0, fmt.Errorf("stream: implausible value count %d", n)
	}
	values := buf[:0]
	if uint64(cap(values)) < n {
		values = make([]Value, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		tag, err := r.byte()
		if err != nil {
			return Element{}, 0, err
		}
		var v Value
		if tag == tagInt {
			// Compact integers are zigzag varints.
			x, err := r.varint()
			if err != nil {
				return Element{}, 0, err
			}
			v = x
		} else {
			v, err = r.valueForTag(tag)
			if err != nil {
				return Element{}, 0, err
			}
		}
		values = append(values, v)
	}
	e := Element{
		schema:   schema,
		values:   values,
		ts:       ts,
		arrival:  ts,
		produced: ts,
		size:     sizeOf(values),
	}
	return e, r.off, nil
}

// DecodeElement decodes one element from data, attaching the given
// schema, and returns the element and the number of bytes consumed. The
// decoded value count must match the schema.
func DecodeElement(schema *Schema, data []byte) (Element, int, error) {
	r := &sliceReader{data: data}
	ts, err := r.uint64()
	if err != nil {
		return Element{}, 0, err
	}
	arrival, err := r.uint64()
	if err != nil {
		return Element{}, 0, err
	}
	produced, err := r.uint64()
	if err != nil {
		return Element{}, 0, err
	}
	n, err := r.uvarint()
	if err != nil {
		return Element{}, 0, err
	}
	if schema != nil && int(n) != schema.Len() {
		return Element{}, 0, fmt.Errorf("stream: decoded %d values for schema with %d fields", n, schema.Len())
	}
	if n > uint64(len(data)) {
		return Element{}, 0, fmt.Errorf("stream: implausible value count %d", n)
	}
	values := make([]Value, 0, n)
	for i := uint64(0); i < n; i++ {
		v, err := r.value()
		if err != nil {
			return Element{}, 0, err
		}
		values = append(values, v)
	}
	e := Element{
		schema:   schema,
		values:   values,
		ts:       Timestamp(ts),
		arrival:  Timestamp(arrival),
		produced: Timestamp(produced),
		size:     sizeOf(values),
	}
	return e, r.off, nil
}

// WriteElement writes a length-prefixed element record to w.
func WriteElement(w io.Writer, e Element) error {
	payload := EncodeElement(nil, e)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadElement reads one length-prefixed element record from r.
func ReadElement(r io.ByteReader, schema *Schema) (Element, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return Element{}, err
	}
	if size > maxBlobLen {
		return Element{}, fmt.Errorf("stream: element record of %d bytes exceeds limit", size)
	}
	buf := make([]byte, size)
	for i := range buf {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Element{}, err
		}
		buf[i] = b
	}
	e, _, err := DecodeElement(schema, buf)
	return e, err
}

// sliceReader is a minimal cursor over a byte slice.
type sliceReader struct {
	data []byte
	off  int
}

func (r *sliceReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *sliceReader) uint64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	u := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return u, nil
}

func (r *sliceReader) uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	r.off += n
	return u, nil
}

func (r *sliceReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	r.off += n
	return v, nil
}

// value decodes one tagged value (the inverse of appendValue).
func (r *sliceReader) value() (Value, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	return r.valueForTag(tag)
}

// valueForTag decodes the payload of one full-width tagged value.
func (r *sliceReader) valueForTag(tag byte) (Value, error) {
	switch tag {
	case tagNull:
		return nil, nil
	case tagInt:
		u, err := r.uint64()
		if err != nil {
			return nil, err
		}
		return int64(u), nil
	case tagFloat:
		u, err := r.uint64()
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(u), nil
	case tagString:
		b, err := r.blob()
		if err != nil {
			return nil, err
		}
		return string(b), nil
	case tagBytes:
		b, err := r.blob()
		if err != nil {
			return nil, err
		}
		cp := make([]byte, len(b))
		copy(cp, b)
		return cp, nil
	case tagBool:
		b, err := r.byte()
		if err != nil {
			return nil, err
		}
		return b != 0, nil
	default:
		return nil, fmt.Errorf("stream: unknown value tag %d", tag)
	}
}

func (r *sliceReader) blob() ([]byte, error) {
	size, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if size > maxBlobLen {
		return nil, fmt.Errorf("stream: blob of %d bytes exceeds limit", size)
	}
	if r.off+int(size) > len(r.data) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.data[r.off : r.off+int(size)]
	r.off += int(size)
	return b, nil
}

// EncodeSchema appends a binary encoding of the schema to buf (used as
// the persistence log header).
func EncodeSchema(buf []byte, s *Schema) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	for _, f := range s.Fields() {
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = append(buf, byte(f.Type))
	}
	return buf
}

// DecodeSchema decodes a schema written by EncodeSchema and returns the
// bytes consumed.
func DecodeSchema(data []byte) (*Schema, int, error) {
	r := &sliceReader{data: data}
	n, err := r.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(data)) {
		return nil, 0, fmt.Errorf("stream: implausible field count %d", n)
	}
	fields := make([]Field, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := r.blob()
		if err != nil {
			return nil, 0, err
		}
		t, err := r.byte()
		if err != nil {
			return nil, 0, err
		}
		fields = append(fields, Field{Name: string(name), Type: FieldType(t)})
	}
	s, err := NewSchema(fields...)
	if err != nil {
		return nil, 0, err
	}
	return s, r.off, nil
}
