package storage

import (
	"math"
	"path/filepath"
	"slices"
	"testing"

	"gsn/internal/stream"
)

// indexRow is one row of a reference history: the value stored is the
// row's seq, so an answer identifies its rows.
type indexRow struct {
	timed int64
	seq   uint64
}

// indexHarness drives a bare history tier and the reference it must
// agree with: every row appended, in arrival (seq) order.
type indexHarness struct {
	t   testing.TB
	h   *history
	ref []indexRow
}

func newIndexHarness(t testing.TB, poolPages int) *indexHarness {
	h, err := openHistory(nil, filepath.Join(t.TempDir(), "idx.gsnhist"), tempSchema, poolPages, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return &indexHarness{t: t, h: h}
}

func (x *indexHarness) add(timed int64) {
	seq := uint64(len(x.ref)) + 1
	e, err := stream.NewElement(tempSchema, stream.Timestamp(timed), int64(seq))
	if err != nil {
		x.t.Fatal(err)
	}
	if err := x.h.Append(e, seq); err != nil {
		x.t.Fatal(err)
	}
	x.ref = append(x.ref, indexRow{timed, seq})
}

func (x *indexHarness) checkpoint() {
	if err := x.h.Checkpoint(); err != nil {
		x.t.Fatal(err)
	}
}

// query compares Range over [lo, hi] with the reference rows in that
// interval, in arrival order.
func (x *indexHarness) query(lo, hi int64) {
	x.t.Helper()
	var got []indexRow
	err := x.h.Range(stream.Timestamp(lo), stream.Timestamp(hi), math.MaxUint64, func(e stream.Element) bool {
		got = append(got, indexRow{int64(e.Timestamp()), uint64(e.Value(0).(int64))})
		return true
	})
	if err != nil {
		x.t.Fatalf("Range [%d, %d]: %v", lo, hi, err)
	}
	var want []indexRow
	for _, r := range x.ref {
		if r.timed >= lo && r.timed <= hi {
			want = append(want, r)
		}
	}
	if !slices.Equal(got, want) {
		x.t.Fatalf("Range [%d, %d]: %d rows, want %d (first difference at %d)",
			lo, hi, len(got), len(want), firstDiff(got, want))
	}
	// The fold, over the whole tier and with its newest quarter in the
	// hot window.
	x.fold(lo, hi, math.MaxUint64)
	x.fold(lo, hi, uint64(len(x.ref)-len(x.ref)/4)+1)
}

// intFold is the fold Fold serves: a row count, and the non-NULL count,
// wrapping sum, minimum and maximum of one integer column.
type intFold struct{ rows, n, sum, lo, hi int64 }

func (f *intFold) add(n, sum, lo, hi int64) {
	if n > 0 {
		if f.n == 0 {
			f.lo, f.hi = lo, hi
		}
		f.n, f.sum, f.lo, f.hi = f.n+n, f.sum+sum, min(f.lo, lo), max(f.hi, hi)
	}
}

func (f *intFold) page(rows int64, sums []int64) {
	f.rows += rows
	f.add(sums[0], sums[1], sums[2], sums[3])
}

func (f *intFold) row(v stream.Value) {
	f.rows++
	if x, ok := v.(int64); ok {
		f.add(1, x, x, x)
	}
}

// fold compares Fold over [lo, hi] below maxSeqExcl, folding column 0,
// with the reference rows it covers.
func (x *indexHarness) fold(lo, hi int64, maxSeqExcl uint64) {
	x.t.Helper()
	var got, want intFold
	err := x.h.Fold(stream.Timestamp(lo), stream.Timestamp(hi), maxSeqExcl, []int{0}, got.page, func(e stream.Element) bool {
		got.row(e.Value(0))
		return true
	})
	if err != nil {
		x.t.Fatalf("Fold [%d, %d] below %d: %v", lo, hi, maxSeqExcl, err)
	}
	for _, r := range x.ref {
		if r.timed >= lo && r.timed <= hi && r.seq < maxSeqExcl {
			want.row(int64(r.seq))
		}
	}
	if got != want {
		x.t.Fatalf("Fold [%d, %d] below %d = %+v, want %+v", lo, hi, maxSeqExcl, got, want)
	}
}

func firstDiff(a, b []indexRow) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// indexShape is what checkIndex learns walking the tree.
type indexShape struct {
	height int     // levels, leaves included (0 for an empty tree)
	fanout int     // the root's children (0 for a leaf root)
	bounds []int64 // timed of every separator and of every leaf's first key
}

// checkIndex walks the whole tree and fails unless every node's keys
// strictly increase, every key lies inside the interval its parent's
// separators give its subtree, every leaf is at the same depth and the
// leaves hold exactly one entry per reference row.
func (x *indexHarness) checkIndex() indexShape {
	x.t.Helper()
	var shape indexShape
	if x.h.root == noPage {
		if len(x.ref) != 0 {
			x.t.Fatalf("empty index over %d rows", len(x.ref))
		}
		return shape
	}
	entries := 0
	var walk func(pid pageID, lower, upper *btKey, depth int)
	walk = func(pid pageID, lower, upper *btKey, depth int) {
		fr, err := x.h.pool.get(pid)
		if err != nil {
			x.t.Fatal(err)
		}
		p := slices.Clone(fr.data)
		x.h.pool.unpin(fr, false)
		n := nodeCount(p)
		keys := make([]btKey, n)
		for i := range keys {
			if p[0] == pageKindLeaf {
				keys[i] = leafEntry(p, i).key
			} else {
				keys[i] = intKey(p, i)
			}
			if i > 0 && !keys[i-1].less(keys[i]) {
				x.t.Fatalf("node %d: key %d %v not above key %d %v", pid, i, keys[i], i-1, keys[i-1])
			}
			if lower != nil && keys[i].less(*lower) || upper != nil && !keys[i].less(*upper) {
				x.t.Fatalf("node %d: key %d %v outside [%v, %v)", pid, i, keys[i], lower, upper)
			}
		}
		if p[0] == pageKindLeaf {
			if shape.height == 0 {
				shape.height = depth
			} else if depth != shape.height {
				x.t.Fatalf("leaf %d at depth %d, another at %d", pid, depth, shape.height)
			}
			if n == 0 {
				x.t.Fatalf("empty leaf %d", pid)
			}
			entries += n
			shape.bounds = append(shape.bounds, keys[0].timed)
			return
		}
		if depth == 1 {
			shape.fanout = n + 1
		}
		for i := 0; i <= n; i++ {
			lo, hi, child := lower, upper, intChild0(p)
			if i > 0 {
				lo, child = &keys[i-1], intChild(p, i-1)
				shape.bounds = append(shape.bounds, keys[i-1].timed)
			}
			if i < n {
				hi = &keys[i]
			}
			walk(child, lo, hi, depth+1)
		}
	}
	walk(x.h.root, nil, nil, 1)
	if entries != len(x.ref) {
		x.t.Fatalf("index holds %d entries, want %d", entries, len(x.ref))
	}
	return shape
}

// queryAround issues the whole range, ranges wholly outside the data
// and an empty one; then, for each bound b, the ranges that end exactly
// on it, straddle it, lie just beside it or are empty at it, and for
// every eighth b the two from b to either end of the data.
func (x *indexHarness) queryAround(bounds []int64) {
	x.t.Helper()
	if len(x.ref) == 0 {
		x.query(math.MinInt64, math.MaxInt64)
		return
	}
	lo, hi := x.ref[0].timed, x.ref[0].timed
	for _, r := range x.ref {
		lo, hi = min(lo, r.timed), max(hi, r.timed)
	}
	x.query(math.MinInt64, math.MaxInt64)
	x.query(lo-100, lo-1)
	x.query(hi+1, hi+100)
	x.query(hi, lo-1) // empty whenever hi >= lo
	bounds = slices.Compact(slices.Sorted(slices.Values(bounds)))
	if step := len(bounds) / 24; step > 1 {
		var some []int64
		for i := 0; i < len(bounds); i += step {
			some = append(some, bounds[i])
		}
		bounds = append(some, bounds[len(bounds)-1])
	}
	for i, b := range bounds {
		x.query(b, b)
		x.query(b-1, b)
		x.query(b, b+1)
		x.query(b+1, b)
		if i%8 == 0 {
			x.query(lo, b)
			x.query(b, hi)
		}
	}
}

// FuzzHistoryIndex drives the history index with key sequences built
// from the input, two bytes per step: ascending runs (step 0 repeats a
// timestamp), equal-timestamp runs longer than a leaf, so they straddle
// a leaf split, out-of-order keys, and checkpoints between inserts, so
// later inserts relocate the nodes they touch. After every checkpoint
// the tree's invariants and a full range are checked; at the end, TIMED
// ranges ending on, beside and outside its separators are compared with
// the reference in arrival order too. Every range is also folded, from
// page summaries where they cover it (the unsealed tail page included),
// and the fold must equal the reference's, with and without a hot
// window holding the newest rows.
func FuzzHistoryIndex(f *testing.F) {
	f.Add([]byte{0, 200, 4, 50, 3, 0, 1, 3, 0, 90})
	f.Add([]byte{1, 0, 1, 10, 3, 5, 1, 200, 2, 31, 8, 60})
	f.Add([]byte{2, 31, 2, 7, 6, 120, 3, 250, 2, 200, 0, 30, 7, 1})
	f.Add([]byte{12, 255, 3, 0, 2, 255, 1, 0, 3, 136, 4, 255, 2, 100})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 3, 1, 1, 0, 2, 17, 3, 128, 1, 50})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxRows = 6000
		x := newIndexHarness(t, 8)
		var ts int64
		for i := 0; i+1 < len(ops) && len(x.ref) < maxRows; i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 4 {
			case 0: // ascending run, step 0..3
				for range 4*arg + 1 {
					x.add(ts)
					ts += int64(op >> 2 & 3)
				}
			case 1: // one timestamp over more than a leaf
				for range leafCapacity + 1 + arg {
					x.add(ts)
				}
				ts++
			case 2: // out of order: keys up to 255 below the newest
				r := arg
				for range arg%32 + 1 {
					r = (r*37 + 11) % 256
					x.add(ts - int64(r))
				}
			case 3: // checkpoint, then jump either way
				x.checkpoint()
				x.checkIndex()
				x.query(math.MinInt64, math.MaxInt64)
				ts += int64(int8(arg))
			}
		}
		x.queryAround(x.checkIndex().bounds)
	})
}

// TestHistoryIndexInteriorSplit grows the index past one interior
// node's capacity in leaves — both the append-friendly split of
// time-ordered ingest and, once a run lands inside the full left half,
// the split at the middle — and checks it as FuzzHistoryIndex does.
func TestHistoryIndexInteriorSplit(t *testing.T) {
	x := newIndexHarness(t, DefaultPoolPages)
	const rows = 160_000
	for i := range rows {
		x.add(int64(i / 500))
		if i%40_000 == 39_999 {
			x.checkpoint()
		}
	}
	// Runs of 500 per timestamp: time 50 ends mid-leaf in the first
	// interior node, which the ascending ingest left full.
	for range 2 * leafCapacity {
		x.add(50)
	}
	x.checkpoint()
	shape := x.checkIndex()
	// Ascending ingest splits the root once, the run at 50 splits its
	// full left child again.
	if shape.height != 3 || shape.fanout != 3 {
		t.Fatalf("index of %d rows has height %d and %d children at the root; want 3 and 3",
			len(x.ref), shape.height, shape.fanout)
	}
	x.queryAround(append(shape.bounds, 49, 50, 51))
}
