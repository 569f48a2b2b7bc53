package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

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

// TestHistoryEquivalenceProperty: a disk-history table with a tiny hot
// window and a starved buffer pool must answer TimedRange
// byte-identically to an all-RAM table over the same inserts — random
// timestamps (duplicates included) and random query ranges.
func TestHistoryEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := NewStore(stream.NewManualClock(0), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	opts := historyOptions("16")
	opts.PoolPages = 1 // clamps to the minimum: constant page churn
	opts.CheckpointBytes = 4096
	disk, err := s.CreateTable("disk", tempSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	ram, err := NewTable("ram", tempSchema, stream.MustWindow("100000"), stream.NewManualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for i := 0; i < n; i++ {
		e := intElem(t, stream.Timestamp(rng.Int63n(500)), int64(i))
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
	for q := 0; q < 60; q++ {
		lo := stream.Timestamp(rng.Int63n(520) - 10)
		hi := lo + stream.Timestamp(rng.Int63n(80))
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
