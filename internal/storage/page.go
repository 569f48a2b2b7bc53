package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"gsn/internal/stream"
)

// On-disk layout of the history tier (see history.go for the protocol).
// The history file is an array of fixed-size pages addressed by a
// uint32 page id (file offset = id × pageSize). Pages 0 and 1 are the
// ping-pong meta slots; every other page is either a slotted data page
// holding element records or a B+tree node (btree.go).
const (
	pageSize = 8192

	pageKindData       = byte(1)
	pageKindLeaf       = byte(2)
	pageKindInterior   = byte(3)
	pageKindSummarized = byte(4)

	// dataHdrLen is the slotted-page header: kind(1) count(2) free(2)
	// ncols(2) pad(1). Record bytes grow up from dataStart; the slot
	// directory (one uint16 offset per record) grows down from pageSize.
	dataHdrLen = 8
)

// A summarized data page (kind 4) carries, between its header and its
// records, a summary of them that every append keeps current:
//
//	minT(8) maxT(8) minSeq(8) maxSeq(8), then per integer column of
//	the schema, in schema order: count(4) sum(8) min(8) max(8)
//
// seq is stored as int64; each (min, max) pair is valid once its count
// (the page's records, or the column's) is not zero. count is the
// column's non-NULL values, sum their wrapping int64 sum; a count of
// sumPoisoned marks a column that held a non-integer value and has no
// usable summary. Kind-1 pages, written before summaries existed, carry
// none and are always decoded.
const (
	sumMinT, sumMaxT, sumMinSeq, sumMaxSeq = 8, 16, 24, 32
	sumColsOff                             = 40
	sumColLen                              = 28
	sumPoisoned                            = ^uint32(0)

	// maxSummaryLen bounds the share of a page a summary may take: a
	// schema with more integer columns than fit writes kind-1 pages.
	maxSummaryLen = pageSize / 8
)

// dataStart is where the records of a data page summarizing ncols
// columns begin; ncols < 0 is a kind-1 page.
func dataStart(ncols int) int {
	if ncols < 0 {
		return dataHdrLen
	}
	return sumColsOff + ncols*sumColLen
}

// pageID addresses one fixed-size page in the history file. 0 and 1
// are the meta slots, so 0 doubles as "no page" in pointers.
type pageID = uint32

const noPage pageID = 0

// --- slotted data page ---------------------------------------------------

// dataPageInit formats p as an empty data page: summarized over ncols
// integer columns, or kind 1 when ncols < 0.
func dataPageInit(p []byte, ncols int) {
	start := dataStart(ncols)
	clear(p[:start])
	p[0] = pageKindData
	if ncols >= 0 {
		p[0] = pageKindSummarized
	}
	binary.BigEndian.PutUint16(p[3:5], uint16(start))
	binary.BigEndian.PutUint16(p[5:7], uint16(max(ncols, 0)))
}

func getI64(p []byte, off int) int64    { return int64(binary.BigEndian.Uint64(p[off:])) }
func putI64(p []byte, off int, v int64) { binary.BigEndian.PutUint64(p[off:], uint64(v)) }

// extend widens the (min, max) pair at off to cover v; first starts it.
func extend(p []byte, off int, v int64, first bool) {
	if first || v < getI64(p, off) {
		putI64(p, off, v)
	}
	if first || v > getI64(p, off+8) {
		putI64(p, off+8, v)
	}
}

// summaryAdd folds e, just appended to a summarized page as record
// seq, into the page's summary; cols are the schema positions of the
// summarized columns.
func summaryAdd(p []byte, e stream.Element, seq uint64, cols []int) {
	first := dataPageCount(p) == 1
	extend(p, sumMinT, int64(e.Timestamp()), first)
	extend(p, sumMinSeq, int64(seq), first)
	for k, c := range cols {
		off := sumColsOff + k*sumColLen
		n := binary.BigEndian.Uint32(p[off:])
		switch v := e.Value(c).(type) {
		case nil: // NULLs are in the row count only
		case int64:
			if n != sumPoisoned {
				binary.BigEndian.PutUint32(p[off:], n+1)
				putI64(p, off+4, getI64(p, off+4)+v)
				extend(p, off+12, v, n == 0)
			}
		default:
			binary.BigEndian.PutUint32(p[off:], sumPoisoned)
		}
	}
}

func dataPageCount(p []byte) int {
	return int(binary.BigEndian.Uint16(p[1:3]))
}

// dataPageAppend adds rec, the record of e as seq, to the page,
// returning its slot index, or false when the record (plus its slot
// entry) does not fit. A summarized page folds e into its summary, over
// the schema positions cols.
func dataPageAppend(p, rec []byte, e stream.Element, seq uint64, cols []int) (uint16, bool) {
	count := int(binary.BigEndian.Uint16(p[1:3]))
	free := int(binary.BigEndian.Uint16(p[3:5]))
	slotTop := pageSize - 2*(count+1)
	if free+len(rec) > slotTop {
		return 0, false
	}
	copy(p[free:], rec)
	binary.BigEndian.PutUint16(p[slotTop:], uint16(free))
	binary.BigEndian.PutUint16(p[1:3], uint16(count+1))
	binary.BigEndian.PutUint16(p[3:5], uint16(free+len(rec)))
	if p[0] == pageKindSummarized {
		summaryAdd(p, e, seq, cols)
	}
	return uint16(count), true
}

// dataPageSlot returns the record bytes starting at the given slot; the
// record encoding is self-delimiting, so the slice runs to the end of
// the record area and the decoder reports how much it consumed.
func dataPageSlot(p []byte, slot uint16) ([]byte, error) {
	count := int(binary.BigEndian.Uint16(p[1:3]))
	if p[0] != pageKindData && p[0] != pageKindSummarized || int(slot) >= count {
		return nil, fmt.Errorf("storage: bad history slot %d (page has %d)", slot, count)
	}
	off := int(binary.BigEndian.Uint16(p[pageSize-2*(int(slot)+1):]))
	free := int(binary.BigEndian.Uint16(p[3:5]))
	if off < dataHdrLen || off >= free {
		return nil, fmt.Errorf("storage: corrupt history slot offset %d", off)
	}
	return p[off:free], nil
}

// --- meta page -----------------------------------------------------------

// histMeta is the durable root of the history file, written to slot
// gen%2 so a torn meta write can never destroy the previous good
// generation. The checksum covers everything before it.
//
//	magic(8) gen(8) root(4) npages(4) lastSeq(8) count(8)
//	freeLen(4) free[..](4 each) crc32(4)
type histMeta struct {
	gen     uint64
	root    pageID
	npages  uint32
	lastSeq uint64
	count   uint64
	free    []pageID
}

var histMagic = []byte("GSNHIST1")

// maxMetaFree is how many free page ids fit in one meta page. Overflow
// is handled by leaking the excess (counted, see history.leakedPages):
// correctness never depends on reuse.
const maxMetaFree = (pageSize - len("GSNHIST1") - 8 - 4 - 4 - 8 - 8 - 4 - 4) / 4

func encodeMeta(p []byte, m histMeta) {
	for i := range p {
		p[i] = 0
	}
	off := copy(p, histMagic)
	binary.BigEndian.PutUint64(p[off:], m.gen)
	off += 8
	binary.BigEndian.PutUint32(p[off:], m.root)
	off += 4
	binary.BigEndian.PutUint32(p[off:], m.npages)
	off += 4
	binary.BigEndian.PutUint64(p[off:], m.lastSeq)
	off += 8
	binary.BigEndian.PutUint64(p[off:], m.count)
	off += 8
	binary.BigEndian.PutUint32(p[off:], uint32(len(m.free)))
	off += 4
	for _, pid := range m.free {
		binary.BigEndian.PutUint32(p[off:], pid)
		off += 4
	}
	binary.BigEndian.PutUint32(p[off:], crc32.ChecksumIEEE(p[:off]))
}

// decodeMeta validates one meta slot; ok is false for a slot that was
// never written or was torn mid-write.
func decodeMeta(p []byte) (histMeta, bool) {
	var m histMeta
	if len(p) < pageSize || string(p[:len(histMagic)]) != string(histMagic) {
		return m, false
	}
	off := len(histMagic)
	m.gen = binary.BigEndian.Uint64(p[off:])
	off += 8
	m.root = binary.BigEndian.Uint32(p[off:])
	off += 4
	m.npages = binary.BigEndian.Uint32(p[off:])
	off += 4
	m.lastSeq = binary.BigEndian.Uint64(p[off:])
	off += 8
	m.count = binary.BigEndian.Uint64(p[off:])
	off += 8
	n := binary.BigEndian.Uint32(p[off:])
	off += 4
	if n > uint32(maxMetaFree) {
		return m, false
	}
	for i := uint32(0); i < n; i++ {
		m.free = append(m.free, binary.BigEndian.Uint32(p[off:]))
		off += 4
	}
	sum := binary.BigEndian.Uint32(p[off:])
	return m, sum == crc32.ChecksumIEEE(p[:off])
}
