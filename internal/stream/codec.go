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
//
// The peer answers (/p2p/query, /p2p/results) are built from the same
// values. Counts come first, so a truncated answer never decodes, and
// every varint is minimal, so an answer that decodes re-encodes to the
// same bytes:
//
//	relation := ncols:uvarint name:string{ncols} nrows:uvarint value{nrows*ncols}
//	partial  := ncols:uvarint name:string{ncols} rows:varint ngroups:uvarint group*
//	group    := key:bytes nrep:uvarint value{nrep} naggs:uvarint agg{naggs}
//	agg      := count:varint intsum:varint sum:float64 sumsq:float64
//	            flags:byte min:value max:value first:value last:value
//	flags    := bit 0 int-only | bit 1 any
//	pages    := n:uvarint page*
//	page     := id:string 0 rev:uvarint relation | id:string 1 (gone)
//
// A relation's names are the columns' (no table qualifier); a partial's
// are the owner's base-table columns the rollup was folded over.

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
		buf = AppendValue(buf, v)
	}
	return buf
}

// AppendValue appends one tagged value encoding.
func AppendValue(buf []byte, v Value) []byte {
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
		buf = AppendBlob(append(buf, tagString), x)
	case []byte:
		buf = AppendBlob(append(buf, tagBytes), x)
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

// AppendBlob appends a length-prefixed string or byte slice.
func AppendBlob[T string | []byte](buf []byte, b T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
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
		buf = AppendValue(buf, v)
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
	r := NewReader(data)
	ts := Timestamp(int64(prev) + r.Varint())
	n := r.valueCount(schema)
	values := buf[:0]
	if cap(values) < n {
		values = make([]Value, 0, n)
	}
	for i := 0; i < n; i++ {
		if tag := r.Byte(); tag == tagInt {
			// Compact integers are zigzag varints.
			values = append(values, r.Varint())
		} else {
			values = append(values, r.valueForTag(tag))
		}
	}
	if r.err != nil {
		return Element{}, 0, r.err
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
	r := NewReader(data)
	ts, arrival, produced := r.Uint64(), r.Uint64(), r.Uint64()
	values := make([]Value, r.valueCount(schema))
	for i := range values {
		values[i] = r.Value()
	}
	if r.err != nil {
		return Element{}, 0, r.err
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

// Reader is a bounds-checked cursor over an encoding that came from
// outside the program: a peer's answer or a log record. The first
// failure sticks — every later read returns the zero value and Done
// reports the failure — so a decoder reads a whole structure and
// checks once. Counts are bounded by the bytes left, so no decoder
// allocates beyond a small multiple of its input.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Done reports the first failure, or an error when bytes are left
// over: a whole answer must be consumed exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off < len(r.data) {
		r.Fail(fmt.Errorf("stream: %d trailing bytes", len(r.data)-r.off))
	}
	return r.err
}

// Fail records err unless an earlier failure stuck, and drains the
// input so every later read fails too. A decoder calls it for a format
// error of its own.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.data)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.data) {
		r.Fail(io.ErrUnexpectedEOF)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Uint64 reads a big-endian 8-byte integer.
func (r *Reader) Uint64() uint64 {
	if r.off+8 > len(r.data) {
		r.Fail(io.ErrUnexpectedEOF)
		return 0
	}
	u := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return u
}

// Float64 reads a float64's 8 big-endian bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Uvarint reads a varint, which must be minimal: a longer encoding of
// the same number would not survive a re-encode.
func (r *Reader) Uvarint() uint64 {
	u, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || n > 1 && r.data[r.off+n-1] == 0 {
		r.badVarint(n)
		return 0
	}
	r.off += n
	return u
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// badVarint fails on a varint binary.Uvarint read n bytes of: none
// (the input ended), an overflow, or a longer encoding than the
// minimal one.
func (r *Reader) badVarint(n int) {
	if n == 0 {
		r.Fail(io.ErrUnexpectedEOF)
	} else {
		r.Fail(fmt.Errorf("stream: malformed varint at byte %d", r.off))
	}
}

// Count reads a count of items that take at least each bytes apiece,
// refusing one the bytes left cannot hold before anything is sized by
// it.
func (r *Reader) Count(each int) int {
	n, left := r.Uvarint(), uint64(len(r.data)-r.off)
	// n <= left first, so the product cannot overflow.
	if n > left || n*uint64(each) > left {
		r.Fail(fmt.Errorf("stream: count %d exceeds the %d bytes left", n, left))
		return 0
	}
	return int(n)
}

// Blob reads a length-prefixed string or byte slice. The slice shares
// the reader's input.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.data)-r.off) {
		r.Fail(io.ErrUnexpectedEOF)
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// valueCount reads an element's value count, which must match schema.
func (r *Reader) valueCount(schema *Schema) int {
	n := r.Count(1)
	if schema != nil && n != schema.Len() && r.err == nil {
		r.Fail(fmt.Errorf("stream: decoded %d values for schema with %d fields", n, schema.Len()))
		return 0
	}
	return n
}

// Value reads one tagged value (the inverse of AppendValue).
func (r *Reader) Value() Value { return r.valueForTag(r.Byte()) }

// valueForTag decodes the payload of one full-width tagged value.
func (r *Reader) valueForTag(tag byte) Value {
	switch tag {
	case tagNull:
		return nil
	case tagInt:
		return int64(r.Uint64())
	case tagFloat:
		return r.Float64()
	case tagString:
		return string(r.Blob())
	case tagBytes:
		return append([]byte{}, r.Blob()...)
	case tagBool:
		if b := r.Byte(); b <= 1 {
			return b == 1
		}
	}
	if r.err == nil {
		r.Fail(fmt.Errorf("stream: malformed value (tag %d) at byte %d", tag, r.off))
	}
	return nil
}

// EncodeSchema appends a binary encoding of the schema to buf (used as
// the persistence log header).
func EncodeSchema(buf []byte, s *Schema) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	for _, f := range s.Fields() {
		buf = append(AppendBlob(buf, f.Name), byte(f.Type))
	}
	return buf
}

// DecodeSchema decodes a schema written by EncodeSchema and returns the
// bytes consumed.
func DecodeSchema(data []byte) (*Schema, int, error) {
	r := NewReader(data)
	fields := make([]Field, r.Count(2))
	for i := range fields {
		fields[i] = Field{Name: string(r.Blob()), Type: FieldType(r.Byte())}
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	s, err := NewSchema(fields...)
	if err != nil {
		return nil, 0, err
	}
	return s, r.off, nil
}
