package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// historyOptions is the baseline configuration for the tiered tests:
// tiny hot window, no per-insert fsync-ish flushing, explicit
// checkpoints only (CheckpointBytes < 0).
func historyOptions(window string) TableOptions {
	return TableOptions{
		Window:          stream.MustWindow(window),
		Permanent:       true,
		Sync:            SyncNone,
		History:         true,
		CheckpointBytes: -1,
	}
}

// crashCopy simulates a process crash by snapshotting the store's data
// directory into a fresh one: whatever the OS has been handed is kept,
// whatever lives only in process memory is lost.
func crashCopy(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// elemBytes canonicalises an element list for byte-identical
// comparisons across tiers and restarts.
func elemBytes(elems []stream.Element) []byte {
	var buf []byte
	for _, e := range elems {
		buf = stream.EncodeElementCompact(buf, e, 0)
	}
	return buf
}

// TestHistoryEvictMigrateMerge: rows evicted from the hot window are
// served back by TimedRange, merged with the hot rows, in arrival
// order.
func TestHistoryEvictMigrateMerge(t *testing.T) {
	s, err := NewStore(stream.NewManualClock(0), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tab, err := s.CreateTable("h", tempSchema, historyOptions("5"))
	if err != nil {
		t.Fatal(err)
	}
	if !tab.HasHistory() {
		t.Fatal("HasHistory = false for a history table")
	}
	for i := int64(1); i <= 20; i++ {
		if err := tab.Insert(intElem(t, stream.Timestamp(i), i*10)); err != nil {
			t.Fatal(err)
		}
	}
	// Full range: 15 disk rows then 5 hot rows, arrival order.
	all, err := tab.TimedRange(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("full TimedRange returned %d rows, want 20", len(all))
	}
	for i, e := range all {
		if e.Timestamp() != stream.Timestamp(i+1) || e.Value(0) != int64(i+1)*10 {
			t.Fatalf("row %d = (%d, %v)", i, e.Timestamp(), e.Value(0))
		}
	}
	// Sub-range straddling the tier boundary (hot window holds 16..20).
	mid, err := tab.TimedRange(14, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != 4 || mid[0].Timestamp() != 14 || mid[3].Timestamp() != 17 {
		t.Fatalf("straddling TimedRange = %v", mid)
	}
	// Disjoint range.
	if none, err := tab.TimedRange(50, 90); err != nil || len(none) != 0 {
		t.Fatalf("disjoint TimedRange = %v, %v", none, err)
	}
	// ForEachTimed stops where its callback says so, in either tier.
	for _, stop := range []int{3, 17} {
		n := 0
		err := tab.ForEachTimed(1, 20, func(stream.Element) bool { n++; return n < stop })
		if err != nil || n != stop {
			t.Fatalf("ForEachTimed stopped after %d rows (%v), want %d", n, err, stop)
		}
	}
	if st := tab.Stats(); st.History == nil || st.History.Rows != 15 {
		t.Fatalf("history stats = %+v, want 15 durable+tail rows", st.History)
	}
	// A caller keeping what TimedRange returned across several data
	// pages: every element must keep its own values, although the scan
	// decodes each disk row into the one buffer it reuses.
	for i := int64(21); i <= 3000; i++ {
		if err := tab.Insert(intElem(t, stream.Timestamp(i), i*10)); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := tab.TimedRange(1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if st := tab.Stats(); st.History.Pages < 5 {
		t.Fatalf("history spans %d pages; the range must cross several data pages", st.History.Pages)
	}
	if len(kept) != 3000 {
		t.Fatalf("TimedRange kept %d rows, want 3000", len(kept))
	}
	for i, e := range kept {
		if e.Timestamp() != stream.Timestamp(i+1) || e.Value(0) != int64(i+1)*10 {
			t.Fatalf("kept row %d = (%d, %v)", i, e.Timestamp(), e.Value(0))
		}
	}
}

// BenchmarkHistoryTimedRange reads a 1000-row TIMED range back from the
// disk tier of a table holding 200 000 rows behind a 1000-row hot
// window, the way a bound scan reads it: one pass, one field per row.
func BenchmarkHistoryTimedRange(b *testing.B) {
	s, err := NewStore(stream.NewManualClock(0), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tab, err := s.CreateTable("h", tempSchema, historyOptions("1000"))
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]stream.Element, 0, 1000)
	for i := 0; i < 200_000; i++ {
		e, err := stream.NewElement(tempSchema, stream.Timestamp(i/10+1), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if batch = append(batch, e); len(batch) == cap(batch) {
			if err := tab.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	var sum int64
	b.ReportAllocs()
	for b.Loop() {
		rows := 0
		err := tab.ForEachTimed(10_000, 10_099, func(e stream.Element) bool {
			sum += e.Value(0).(int64)
			rows++
			return true
		})
		if err != nil || rows != 1000 {
			b.Fatalf("range read %d rows: %v", rows, err)
		}
	}
}

// BenchmarkHistoryRangeAggregate times the statement every history read
// of the benchmark issues, `select count(*), sum(col) … where timed
// between lo and hi`, through Plan.ExecuteTiered over a 200 000-row
// history (one row a millisecond, 1000-row hot window): ns/op is one
// statement over a random 1000-row range; folded/op and decoded/op are
// the data pages it folded from their summaries and decoded.
func BenchmarkHistoryRangeAggregate(b *testing.B) {
	schema := stream.MustSchema(
		stream.Field{Name: "hi", Type: stream.TypeInt},
		stream.Field{Name: "room", Type: stream.TypeInt},
		stream.Field{Name: "v", Type: stream.TypeInt},
	)
	s, err := NewStore(stream.NewManualClock(0), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var folded, decoded int
	s.SetHistoryMetrics(&HistoryMetrics{PagesFolded: incFunc(func() { folded++ }), PagesDecoded: incFunc(func() { decoded++ })})
	tab, err := s.CreateTable("h", schema, historyOptions("1000"))
	if err != nil {
		b.Fatal(err)
	}
	const rows = 200_000
	batch := make([]stream.Element, 0, 1000)
	for i := 0; i < rows; i++ {
		batch = append(batch, stream.MustElement(schema, stream.Timestamp(i+1), int64(i), int64(i%40), int64(i*7919%1000)))
		if len(batch) == cap(batch) {
			if err := tab.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	rng := rand.New(rand.NewSource(1))
	plans := make([]*sqlengine.Plan, 64)
	for i := range plans {
		lo := 1 + rng.Intn(rows-1000)
		sql := fmt.Sprintf("select count(*) as c, sum(hi) as s from h where timed between %d and %d", lo, lo+999)
		if plans[i], err = sqlengine.Compile(sqlparser.MustParse(sql), sqlengine.ColumnsOfSchema(schema), "h"); err != nil {
			b.Fatal(err)
		}
	}
	opts := sqlengine.Options{Clock: stream.NewManualClock(0)}
	b.ReportAllocs()
	folded, decoded = 0, 0
	i := 0
	for b.Loop() {
		rel, err := plans[i%len(plans)].ExecuteTiered(tab, opts)
		if err != nil || rel.Rows[0][0] != int64(1000) {
			b.Fatalf("range aggregate = %v, %v", rel, err)
		}
		i++
	}
	b.ReportMetric(float64(folded)/float64(i), "folded/op")
	b.ReportMetric(float64(decoded)/float64(i), "decoded/op")
}

// foldSchema adds to tempSchema a fractional column and an integer
// column that is NULL on every third row.
var foldSchema = stream.MustSchema(
	stream.Field{Name: "temperature", Type: stream.TypeInt},
	stream.Field{Name: "f", Type: stream.TypeFloat},
	stream.Field{Name: "n", Type: stream.TypeInt},
)

func foldElem(ts stream.Timestamp, i int64) stream.Element {
	var n stream.Value
	if i%3 != 0 {
		n = i%17 - 8
	}
	return stream.MustElement(foldSchema, ts, i, float64(i)/3, n)
}

// foldStatements are TIMED-range aggregates over foldSchema, formatted
// with lo and hi. The first two fold; a float column and a WHERE that
// is more than the interval never do.
var foldStatements = []string{
	"select count(*) as c, sum(temperature) as s, avg(n) as a, min(n) as lo, max(temperature) as hi, count(n) as k from disk where timed between %d and %d",
	"select sum(n) as s, min(temperature) as lo, max(n) as hi from disk where timed >= %d and timed <= %d",
	"select count(*) as c, sum(f) as s, max(f) as m from disk where timed between %d and %d",
	"select count(*) as c, sum(temperature) as s from disk where timed between %d and %d and n > 0",
}

// rowsOnly is a table that folds no page: ExecuteTiered decodes every
// row.
type rowsOnly struct{ *Table }

func (r rowsOnly) FoldTimed(lo, hi stream.Timestamp, cols []int, _ func(int64, []int64), fn func(stream.Element) bool) error {
	return r.Table.FoldTimed(lo, hi, cols, nil, fn)
}

// TestHistoryEquivalenceProperty: a disk-history table with a tiny hot
// window and a starved buffer pool must answer TimedRange
// byte-identically to an all-RAM table over the same inserts — random,
// out-of-order timestamps (duplicates included) and random query
// ranges — and a
// TIMED-range aggregate folded from page summaries byte-identically to
// the same statement decoding every row, NULLs and a float column
// included. Ranges straddle pages at both ends, and the tail page is
// unsealed between the automatic checkpoints.
func TestHistoryEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := NewStore(stream.NewManualClock(0), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var folded, decoded int
	s.SetHistoryMetrics(&HistoryMetrics{
		PagesFolded:  incFunc(func() { folded++ }),
		PagesDecoded: incFunc(func() { decoded++ }),
	})
	opts := historyOptions("16")
	opts.PoolPages = 1 // clamps to the minimum: constant page churn
	opts.CheckpointBytes = 4096
	disk, err := s.CreateTable("disk", foldSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	ram, err := NewTable("ram", foldSchema, stream.MustWindow("100000"), stream.NewManualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for i := 0; i < n; i++ {
		// Out of order within a span of 24 ms, so pages overlap in time.
		e := foldElem(stream.Timestamp(i/8+rng.Intn(24)), int64(i))
		if err := disk.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := ram.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if st := disk.Stats(); st.Checkpoints == 0 {
		t.Fatal("automatic checkpoints never fired during the property run")
	}
	opt := sqlengine.Options{Clock: stream.NewManualClock(0)}
	for q := 0; q < 60; q++ {
		lo := stream.Timestamp(rng.Int63n(520) - 10)
		hi := lo + stream.Timestamp(rng.Int63n(80)+rng.Int63n(2)*rng.Int63n(500))
		got, err := disk.TimedRange(lo, hi)
		if err != nil {
			t.Fatalf("query %d [%d,%d]: %v", q, lo, hi, err)
		}
		want, err := ram.TimedRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(elemBytes(got), elemBytes(want)) {
			t.Fatalf("query %d [%d,%d]: tiered scan diverges from all-RAM: %d vs %d rows",
				q, lo, hi, len(got), len(want))
		}
		for _, f := range foldStatements {
			sql := fmt.Sprintf(f, lo, hi)
			plan, err := sqlengine.Compile(sqlparser.MustParse(sql), sqlengine.ColumnsOfSchema(foldSchema), "disk")
			if err != nil {
				t.Fatal(err)
			}
			fold, err := plan.ExecuteTiered(disk, opt)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			rows, err := plan.ExecuteTiered(rowsOnly{disk}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if fold.String() != rows.String() {
				t.Fatalf("%s: folded\n%s\ndecoded\n%s", sql, fold, rows)
			}
		}
	}
	t.Logf("%d pages folded, %d decoded", folded, decoded)
	if folded == 0 || decoded == 0 {
		t.Fatalf("%d pages folded, %d decoded: the property run must do both", folded, decoded)
	}
}

// TestHistoryRangeOutOfOrderTimestamps: a TIMED range over rows whose
// timestamps run against their arrival order — 40 000 reversed, then as
// many shuffled — must come back in arrival order, byte-identical to an
// all-RAM table over the same inserts.
func TestHistoryRangeOutOfOrderTimestamps(t *testing.T) {
	const n = 40_000
	reversed := make([]stream.Timestamp, n)
	for i := range reversed {
		reversed[i] = stream.Timestamp(n - i)
	}
	shuffled := make([]stream.Timestamp, n)
	for i, v := range rand.New(rand.NewSource(7)).Perm(n) {
		shuffled[i] = stream.Timestamp(v/2 + 1) // pairs share a timestamp
	}
	for _, run := range []struct {
		name string
		ts   []stream.Timestamp
	}{{"reversed", reversed}, {"shuffled", shuffled}} {
		t.Run(run.name, func(t *testing.T) {
			s, err := NewStore(stream.NewManualClock(0), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			disk, err := s.CreateTable("disk", tempSchema, historyOptions("16"))
			if err != nil {
				t.Fatal(err)
			}
			ram, err := NewTable("ram", tempSchema, stream.MustWindow("100000"), stream.NewManualClock(0))
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]stream.Element, 0, 1000)
			for i, ts := range run.ts {
				batch = append(batch, intElem(t, ts, int64(i)))
				if len(batch) == cap(batch) || i == len(run.ts)-1 {
					if err := disk.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
					if err := ram.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
					batch = batch[:0]
				}
			}
			for _, q := range [][2]stream.Timestamp{{0, n + 1}, {1, n / 2}, {n / 3, n / 3}, {n/4 + 1, 3 * n / 4}} {
				got, err := disk.TimedRange(q[0], q[1])
				if err != nil {
					t.Fatalf("[%d,%d]: %v", q[0], q[1], err)
				}
				want, err := ram.TimedRange(q[0], q[1])
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 || !bytes.Equal(elemBytes(got), elemBytes(want)) {
					t.Fatalf("[%d,%d]: tiered scan diverges from all-RAM: %d vs %d rows",
						q[0], q[1], len(got), len(want))
				}
			}
		})
	}
}

// BenchmarkHistoryAppend times InsertBatch into a history table holding
// 20k or 200k rows in its disk tier: every row the 1000-row hot window
// evicts is appended to a data page and inserted into the index, so the
// per-row cost (ns/row) follows the index depth, not the table's size.
// The table is refilled to its starting size, off the clock, whenever
// the timed inserts have grown it by half.
func BenchmarkHistoryAppend(b *testing.B) {
	for _, resident := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("resident=%dk", resident/1000), func(b *testing.B) {
			s, err := NewStore(stream.NewManualClock(0), b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			tab, err := s.CreateTable("h", tempSchema, historyOptions("1000"))
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]stream.Element, 1000)
			next := 0
			insert := func() {
				for i := range batch {
					e, err := stream.NewElement(tempSchema, stream.Timestamp(next/10+1), int64(next))
					if err != nil {
						b.Fatal(err)
					}
					batch[i] = e
					next++
				}
				if err := tab.InsertBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			fill := func() {
				if err := tab.Truncate(); err != nil {
					b.Fatal(err)
				}
				for next = 0; next < resident+len(batch); {
					insert()
				}
			}
			fill()
			rows := 0
			b.ResetTimer()
			for range b.N {
				if next >= resident+resident/2 {
					b.StopTimer()
					fill()
					b.StartTimer()
				}
				insert()
				rows += len(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}

// TestRestartReplaysOnlyTail: after a checkpoint, a crash and reopen
// must replay exactly the un-checkpointed WAL tail — not the whole
// retention — and reconstruct both tiers byte-identically.
func TestRestartReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(stream.NewManualClock(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := s1.CreateTable("h", tempSchema, historyOptions("100"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 1000; i++ {
		if err := tab.Insert(intElem(t, stream.Timestamp(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := int64(1001); i <= 1150; i++ {
		if err := tab.Insert(intElem(t, stream.Timestamp(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	wantWindow := elemBytes(tab.Snapshot())
	wantAll, err := tab.TimedRange(1, 1150)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantAll) != 1150 {
		t.Fatalf("pre-crash full-range scan = %d rows, want 1150", len(wantAll))
	}

	crashed := crashCopy(t, dir)
	s2, err := NewStore(stream.NewManualClock(0), crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tab2, err := s2.CreateTable("h", tempSchema, historyOptions("100"))
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint kept rows 1..900 in the history tier (hot boundary at
	// seq 900); the WAL retains the 100 hot rows plus the 150-row tail.
	if rep := tab2.Stats().Replayed; rep != 250 {
		t.Fatalf("restart replayed %d records, want 250 (the tail)", rep)
	}
	if got := elemBytes(tab2.Snapshot()); !bytes.Equal(got, wantWindow) {
		t.Fatal("hot window after crash+reopen differs from pre-crash snapshot")
	}
	gotAll, err := tab2.TimedRange(1, 1150)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(elemBytes(gotAll), elemBytes(wantAll)) {
		t.Fatalf("full-range scan after reopen: %d rows, want %d identical rows",
			len(gotAll), len(wantAll))
	}
}

// TestTornTailCrashConsistency: under sync="interval" with the flusher
// effectively disabled, nothing is durable until an explicit barrier —
// a crash must reopen to an empty but consistent table (the WAL's
// committed boundary, which checkpoints never overtake), and with the
// barrier the same run survives in full.
func TestTornTailCrashConsistency(t *testing.T) {
	run := func(t *testing.T, barrier bool) (*Table, func()) {
		dir := t.TempDir()
		s1, err := NewStore(stream.NewManualClock(0), dir)
		if err != nil {
			t.Fatal(err)
		}
		opts := historyOptions("10")
		opts.Sync = SyncInterval
		opts.FlushInterval = 1 << 30 // effectively never
		opts.FlushBytes = 1 << 30
		tab, err := s1.CreateTable("h", tempSchema, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 100; i++ {
			if err := tab.Insert(intElem(t, stream.Timestamp(i), i)); err != nil {
				t.Fatal(err)
			}
		}
		if barrier {
			if err := tab.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		crashed := crashCopy(t, dir)
		s2, err := NewStore(stream.NewManualClock(0), crashed)
		if err != nil {
			t.Fatal(err)
		}
		tab2, err := s2.CreateTable("h", tempSchema, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tab2, func() { s2.Close() }
	}

	t.Run("no barrier loses the uncommitted run", func(t *testing.T) {
		tab2, done := run(t, false)
		defer done()
		if n := tab2.Len(); n != 0 {
			t.Fatalf("window after crash = %d rows, want 0 (nothing committed)", n)
		}
		rows, err := tab2.TimedRange(1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("history after crash serves %d rows, want 0", len(rows))
		}
	})
	t.Run("checkpoint barrier makes the run durable", func(t *testing.T) {
		tab2, done := run(t, true)
		defer done()
		rows, err := tab2.TimedRange(1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 100 {
			t.Fatalf("history+window after barrier+crash = %d rows, want 100", len(rows))
		}
	})
}

// TestRewriteHeadClampsToCommitted: a WAL head rewrite may never record
// progress past the last durably flushed group — staged-but-uncommitted
// records keep their place in the sequence space.
func TestRewriteHeadClampsToCommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clamp.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i), i)
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Flush(); err != nil { // committed boundary: 10
		t.Fatal(err)
	}
	for i := int64(11); i <= 15; i++ { // staged only
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i), i)
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.RewriteHead(14); err != nil {
		t.Fatal(err)
	}
	if got := log.CommittedSeq(); got != 10 {
		t.Fatalf("CommittedSeq after clamped rewrite = %d, want 10", got)
	}
	// The staged records must still flush and replay from seq 11 on.
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, elems, err := ReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 5 {
		t.Fatalf("replay after clamped rewrite = %d records, want the 5 staged ones", len(elems))
	}
	for i, e := range elems {
		if e.Value(0) != int64(11+i) {
			t.Fatalf("replayed record %d = %v, want %d", i, e.Value(0), 11+i)
		}
	}
}

// TestTruncateResetsHistoryFiles: Truncate must leave no on-disk trace
// of the old rows in either tier — reopen after truncate sees only what
// was inserted afterwards, and the history file is back to its empty
// (meta-only) size.
func TestTruncateResetsHistoryFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(stream.NewManualClock(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := s.CreateTable("h", tempSchema, historyOptions("5"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 500; i++ {
		if err := tab.Insert(intElem(t, stream.Timestamp(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	histPath := filepath.Join(dir, "H.gsnhist")
	if info, err := os.Stat(histPath); err != nil {
		t.Fatal(err)
	} else if info.Size() != 2*pageSize {
		t.Fatalf("history file after truncate = %d bytes, want meta-only %d", info.Size(), 2*pageSize)
	}
	if rows, err := tab.TimedRange(1, 500); err != nil || len(rows) != 0 {
		t.Fatalf("TimedRange after truncate = %d rows, %v; want none", len(rows), err)
	}
	// New life after truncate: fresh rows, checkpoint, reopen.
	for i := int64(1); i <= 20; i++ {
		if err := tab.Insert(intElem(t, stream.Timestamp(i), i+9000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(stream.NewManualClock(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tab2, err := s2.CreateTable("h", tempSchema, historyOptions("5"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tab2.TimedRange(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 || rows[0].Value(0) != int64(9001) {
		t.Fatalf("reopen after truncate sees %d rows (first %v), want the 20 new ones",
			len(rows), rows[0].Value(0))
	}
}

// TestDestroyTableRemovesHistoryFiles: DestroyTable (the undeploy path)
// must unlink the history pages and WAL; DropTable (shutdown) must keep
// them.
func TestDestroyTableRemovesHistoryFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(stream.NewManualClock(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mk := func(name string) {
		t.Helper()
		tab, err := s.CreateTable(name, tempSchema, historyOptions("5"))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 50; i++ {
			if err := tab.Insert(intElem(t, stream.Timestamp(i), i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	exists := func(name string) bool {
		_, err := os.Stat(filepath.Join(dir, name))
		return err == nil
	}

	mk("gone")
	if !exists("GONE.gsnhist") || !exists("GONE.gsnlog") {
		t.Fatal("history table files missing before destroy")
	}
	if err := s.DestroyTable("gone"); err != nil {
		t.Fatal(err)
	}
	if exists("GONE.gsnhist") || exists("GONE.gsnlog") {
		t.Fatal("DestroyTable left on-disk state behind")
	}

	mk("kept")
	if err := s.DropTable("kept"); err != nil {
		t.Fatal(err)
	}
	if !exists("KEPT.gsnhist") || !exists("KEPT.gsnlog") {
		t.Fatal("DropTable must preserve on-disk state for the next deployment")
	}
}

// legacySchema and legacyRow describe testdata/legacy-v1.gsnhist, a
// history file written before data pages carried summaries: rows 1 to
// 1000 as seq 1 to 1000, checkpointed after row 400 and at the end, so
// it holds two kind-1 data pages and no summarized one.
var legacySchema = stream.MustSchema(
	stream.Field{Name: "a", Type: stream.TypeInt},
	stream.Field{Name: "b", Type: stream.TypeInt},
)

func legacyRow(i int) stream.Element {
	var b stream.Value
	if i%5 != 0 {
		b = int64(i % 11)
	}
	return stream.MustElement(legacySchema, stream.Timestamp(1000+i/3), int64(i*7%1000-300), b)
}

// TestLegacyHistoryPagesDecode: a history file written before page
// summaries opens as it is and answers ranges with the rows it was
// written with. Rows appended to it land on summarized pages, and a fold
// over old and new pages alike decodes the old pages, folds the new ones
// it covers whole and gives the exact answer.
func TestLegacyHistoryPagesDecode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-v1.gsnhist"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.gsnhist")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var folded, decoded int
	h, err := openHistory(nil, path, legacySchema, 8, &HistoryMetrics{
		PagesFolded:  incFunc(func() { folded++ }),
		PagesDecoded: incFunc(func() { decoded++ }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var want []stream.Element
	for i := 1; i <= 1000; i++ {
		want = append(want, legacyRow(i))
	}
	var got []stream.Element
	if err := h.Range(0, 1<<40, math.MaxUint64, func(e stream.Element) bool {
		got = append(got, e.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(elemBytes(got), elemBytes(want)) {
		t.Fatalf("legacy file reads %d rows, not the %d it was written with", len(got), len(want))
	}

	for i := 1001; i <= 2000; i++ {
		if err := h.Append(legacyRow(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if i == 1500 {
			if err := h.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range [][2]int64{{0, 1 << 40}, {1000 + 300/3, 1000 + 1700/3}, {1000 + 990/3, 1000 + 1020/3}, {1000 + 1200/3, 1000 + 2100/3}} {
		for col := range 2 {
			folded, decoded = 0, 0
			var fold, ref intFold
			if err := h.Fold(stream.Timestamp(r[0]), stream.Timestamp(r[1]), math.MaxUint64, []int{col}, fold.page, func(e stream.Element) bool {
				fold.row(e.Value(col))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 2000; i++ {
				if e := legacyRow(i); int64(e.Timestamp()) >= r[0] && int64(e.Timestamp()) <= r[1] {
					ref.row(e.Value(col))
				}
			}
			if fold != ref {
				t.Fatalf("fold of column %d over %v = %+v, want %+v", col, r, fold, ref)
			}
			if r[1] == 1<<40 && (folded != 2 || decoded != 2) {
				t.Fatalf("whole-range fold: %d pages folded, %d decoded; want the 2 new pages folded, the 2 old ones decoded", folded, decoded)
			}
			if r[0] == 1000+300/3 && (folded == 0 || decoded == 0) {
				t.Fatalf("fold over old and new pages: %d folded, %d decoded; want both", folded, decoded)
			}
		}
	}
}

// TestHistoryFoldRacesAppends: folds over a history table while another
// goroutine inserts into it — evicting into the tier, onto the tail
// page the folds read, with automatic checkpoints sealing pages — never
// see a row twice or lose one: a count over the whole range only grows,
// and ends at every row inserted.
func TestHistoryFoldRacesAppends(t *testing.T) {
	s, err := NewStore(stream.NewManualClock(0), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	opts := historyOptions("16")
	opts.CheckpointBytes = 4096
	tab, err := s.CreateTable("race", foldSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range n {
			if err := tab.Insert(foldElem(stream.Timestamp(i/4), int64(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sql := fmt.Sprintf("select count(*) as c, sum(temperature) as s from race where timed between 0 and %d", n)
	plan, err := sqlengine.Compile(sqlparser.MustParse(sql), sqlengine.ColumnsOfSchema(foldSchema), "race")
	if err != nil {
		t.Fatal(err)
	}
	var prev int64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		rel, err := plan.ExecuteTiered(tab, sqlengine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := rel.Rows[0][0].(int64)
		if c < prev {
			t.Fatalf("count went %d → %d", prev, c)
		}
		prev = c
	}
	if prev != n {
		t.Fatalf("final count %d, want %d", prev, n)
	}
}
