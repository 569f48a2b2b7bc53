package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// faultStore builds a store whose tables open their files through a
// FaultFS, with the background recovery loop disabled (tests drive
// Table.Recover explicitly) unless recover > 0.
func faultStore(t *testing.T, dir string, recover time.Duration) (*Store, *FaultFS) {
	t.Helper()
	s, err := NewStore(stream.NewManualClock(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(nil)
	s.SetFS(ffs)
	t.Cleanup(func() { s.Close() })
	_ = recover
	return s, ffs
}

func insertN(t *testing.T, tab *Table, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tab.Insert(intElem(t, stream.Timestamp(from+i), int64(from+i))); err != nil {
			t.Fatalf("insert %d: %v", from+i, err)
		}
	}
}

// reopenAndCount closes nothing; it opens the table's files from a
// fresh store over the same directory and returns how many rows a
// restart would see (window replay plus history).
func reopenAndCount(t *testing.T, dir, name string, opts TableOptions) int {
	t.Helper()
	s2, err := NewStore(stream.NewManualClock(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tab, err := s2.CreateTable(name, tempSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tab.HasHistory() {
		elems, err := tab.TimedRange(0, stream.Timestamp(1<<40))
		if err != nil {
			t.Fatal(err)
		}
		return len(elems)
	}
	return tab.Len()
}

// TestWALFaultMatrix drives the full degrade → keep-ingesting → heal →
// recover cycle for each injected WAL fault kind. The contract under
// test: a storage fault must not fail Insert or poison the table for
// the rest of the process; it suspends durability (counted), and an
// explicit Recover after the disk heals re-arms the WAL with every
// live row made durable again.
func TestWALFaultMatrix(t *testing.T) {
	enospc := errors.New("no space left on device")
	cases := []struct {
		name  string
		fault Fault
	}{
		{"write-error", Fault{Op: OpWrite, Path: ".gsnlog", Count: -1}},
		{"torn-write", Fault{Op: OpWrite, Path: ".gsnlog", Count: -1, Short: 5}},
		{"enospc", Fault{Op: OpWrite, Path: ".gsnlog", Count: -1, Err: enospc}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := TableOptions{
				Window:          stream.MustWindow("100"),
				Permanent:       true,
				Sync:            SyncAlways,
				RecoverInterval: -1, // recovery driven explicitly
			}
			s, ffs := faultStore(t, dir, 0)
			tab, err := s.CreateTable("m", tempSchema, opts)
			if err != nil {
				t.Fatal(err)
			}
			insertN(t, tab, 1, 5)

			ffs.Inject(tc.fault)
			// The faulted inserts must still be acknowledged and land in
			// the window — degraded, not failed.
			insertN(t, tab, 6, 5)
			st := tab.Stats()
			if !st.Degraded {
				t.Fatalf("table not degraded after %s fault: %+v", tc.name, st)
			}
			if st.DegradedAppends == 0 {
				t.Error("degraded appends not counted")
			}
			if tab.Len() != 10 {
				t.Fatalf("window len = %d while degraded, want 10 (reads must keep working)", tab.Len())
			}
			if tc.fault.Err != nil && !strings.Contains(st.DegradedReason, "no space left") {
				t.Errorf("degraded reason %q does not carry the injected error", st.DegradedReason)
			}

			// Disk heals: recovery must re-arm durability and own up to
			// exactly one reopen.
			ffs.Clear()
			if err := tab.Recover(); err != nil {
				t.Fatalf("Recover after heal: %v", err)
			}
			st = tab.Stats()
			if st.Degraded {
				t.Fatalf("still degraded after successful Recover: %+v", st)
			}
			if st.WalReopens != 1 {
				t.Errorf("wal reopens = %d, want 1", st.WalReopens)
			}
			// Every acked row — including the ones acked while degraded —
			// survives a restart.
			insertN(t, tab, 11, 3)
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := reopenAndCount(t, dir, "m", opts); got != 13 {
				t.Errorf("restart sees %d rows, want 13", got)
			}
		})
	}
}

// TestBackgroundFlushFaultDegradesAndSelfHeals exercises the
// asynchronous path end to end: a SyncInterval group-commit failure
// happens after Insert has returned, so the OnError callback must flip
// the table into degraded mode, and the supervised recovery loop —
// not an explicit Recover call — must re-arm durability once the disk
// heals, ticking the external wal-reopen counter.
func TestBackgroundFlushFaultDegradesAndSelfHeals(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ffs := NewFaultFS(nil)
	s.SetFS(ffs)
	var reopens atomic.Uint64
	s.SetWalReopenCounter(incFunc(func() { reopens.Add(1) }))

	tab, err := s.CreateTable("bg", tempSchema, TableOptions{
		Window:          stream.MustWindow("100"),
		Permanent:       true,
		Sync:            SyncInterval,
		FlushInterval:   2 * time.Millisecond,
		RecoverInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, tab, 1, 3)
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}

	ffs.Inject(Fault{Op: OpWrite, Path: ".gsnlog", Count: -1})
	insertN(t, tab, 4, 3)
	waitCond(t, "table degraded by background flush", func() bool {
		if tab.Stats().Degraded {
			return true
		}
		// Appends staged before the fault may already have flushed; keep
		// feeding until a group commit hits the injected error.
		tab.Insert(intElem(t, 99, 99))
		return false
	})

	// While degraded, ingestion and reads keep working.
	before := tab.Len()
	insertN(t, tab, 200, 2)
	if tab.Len() != before+2 {
		t.Fatalf("degraded table stopped ingesting: len %d -> %d", before, tab.Len())
	}

	ffs.Clear()
	waitCond(t, "recovery loop re-armed durability", func() bool {
		st := tab.Stats()
		return !st.Degraded && st.WalReopens >= 1
	})
	if reopens.Load() == 0 {
		t.Error("external wal_reopens_total counter not ticked")
	}
}

// incFunc adapts a func to the Incrementer metric seam.
type incFunc func()

func (f incFunc) Inc() { f() }

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointMetaFaultFallsBackAGeneration: a failed meta-slot
// commit must degrade the table, and recovery must fall back to the
// previous durable generation and re-migrate the WAL tail the failed
// checkpoint would have covered — no acked row may be lost.
func TestCheckpointMetaFaultFallsBackAGeneration(t *testing.T) {
	dir := t.TempDir()
	opts := historyOptions("4")
	opts.RecoverInterval = -1
	s, ffs := faultStore(t, dir, 0)
	tab, err := s.CreateTable("ck", tempSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, tab, 1, 8) // 4 evicted into history, 4 live
	if err := tab.Checkpoint(); err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	insertN(t, tab, 9, 6)

	// Meta slots live below 2*pageSize; data pages above. Failing only
	// the meta write models a checkpoint that dies between flushing
	// pages and committing the generation.
	ffs.Inject(Fault{Op: OpWriteAt, Path: ".gsnhist", OffLow: 0, OffHigh: 2 * pageSize, Count: -1})
	if err := tab.Checkpoint(); err == nil {
		t.Fatal("checkpoint with failing meta commit succeeded")
	}
	if !tab.Stats().Degraded {
		t.Fatal("table not degraded after meta-commit failure")
	}

	ffs.Clear()
	if err := tab.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st := tab.Stats(); st.Degraded || st.WalReopens != 1 {
		t.Fatalf("after recover: %+v", st)
	}
	// All 14 acked rows are durable again: a restart over a crash copy
	// of the directory serves every one of them.
	if got := reopenAndCount(t, crashCopy(t, dir), "ck", historyOptions("4")); got != 14 {
		t.Errorf("restart sees %d rows, want 14", got)
	}
}

// TestHistoryPageWriteFaultRecovers: an I/O error flushing history
// data pages degrades the table; after the disk heals, recovery
// restores the tier from its last durable meta and re-migrates from
// the WAL.
func TestHistoryPageWriteFaultRecovers(t *testing.T) {
	dir := t.TempDir()
	opts := historyOptions("4")
	opts.RecoverInterval = -1
	s, ffs := faultStore(t, dir, 0)
	tab, err := s.CreateTable("pg", tempSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, tab, 1, 8)
	if err := tab.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertN(t, tab, 9, 8)

	ffs.Inject(Fault{Op: OpWriteAt, Path: ".gsnhist", OffLow: 2 * pageSize, OffHigh: 1 << 40, Count: -1})
	if err := tab.Checkpoint(); err == nil {
		t.Fatal("checkpoint with failing page writes succeeded")
	}
	if !tab.Stats().Degraded {
		t.Fatal("table not degraded after page-write failure")
	}
	// Hot-window reads keep serving while degraded; a cross-tier scan
	// refuses loudly (an explicit error beats silently partial results).
	if tab.Len() != 4 {
		t.Fatalf("window len = %d while degraded, want 4", tab.Len())
	}
	if _, err := tab.TimedRange(0, 1<<40); err == nil || !strings.Contains(err.Error(), "history tier disabled") {
		t.Fatalf("cross-tier scan while degraded = %v, want history-tier-disabled error", err)
	}

	ffs.Clear()
	if err := tab.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := reopenAndCount(t, crashCopy(t, dir), "pg", historyOptions("4")); got != 16 {
		t.Errorf("restart sees %d rows, want 16", got)
	}
}

// tableCatalog serves one table to the interpreter, a TIMED range
// through its tiered scan, as the container's catalog does.
type tableCatalog struct{ tab *Table }

func (c tableCatalog) Relation(string) (*sqlengine.Relation, error) {
	return sqlengine.RelationOfSource(c.tab), nil
}

func (c tableCatalog) RelationRange(_ string, lo, hi int64) (*sqlengine.Relation, error) {
	elems, err := c.tab.TimedRange(stream.Timestamp(lo), stream.Timestamp(hi))
	if err != nil {
		return nil, err
	}
	return sqlengine.RelationOfElements(c.tab.Schema(), elems), nil
}

// TestHistoryBrokenTierFailsRangeStatements: while a page-write fault
// keeps the history tier disabled, a TIMED-range statement fails with
// the tier's error on the compiled path and on the interpreter alike;
// neither answers from the 4 hot rows of 16. After recovery both answer
// all 16.
func TestHistoryBrokenTierFailsRangeStatements(t *testing.T) {
	opts := historyOptions("4")
	opts.RecoverInterval = -1
	s, ffs := faultStore(t, t.TempDir(), 0)
	tab, err := s.CreateTable("pg", tempSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, tab, 1, 8)
	if err := tab.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertN(t, tab, 9, 8)
	ffs.Inject(Fault{Op: OpWriteAt, Path: ".gsnhist", OffLow: 2 * pageSize, OffHigh: 1 << 40, Count: -1})
	if err := tab.Checkpoint(); err == nil {
		t.Fatal("checkpoint with failing page writes succeeded")
	}
	stmt := sqlparser.MustParse("select count(*) as c, sum(temperature) as s from pg where timed between 0 and 100")
	plan, err := sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(tempSchema), "pg")
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]func() (*sqlengine.Relation, error){
		"compiled": func() (*sqlengine.Relation, error) { return plan.ExecuteTiered(tab, sqlengine.Options{}) },
		"interpreter": func() (*sqlengine.Relation, error) {
			return sqlengine.Execute(stmt, tableCatalog{tab}, sqlengine.Options{})
		},
	}
	for name, exec := range run {
		if rel, err := exec(); err == nil || !strings.Contains(err.Error(), "history tier disabled") {
			t.Errorf("%s over the broken tier = %v, %v; want the history-tier-disabled error", name, rel, err)
		}
	}
	ffs.Clear()
	if err := tab.Recover(); err != nil {
		t.Fatal(err)
	}
	for name, exec := range run {
		if rel, err := exec(); err != nil || fmt.Sprint(rel.Rows) != "[[16 136]]" {
			t.Errorf("%s after recovery = %v, %v; want 16 rows summing to 136", name, rel, err)
		}
	}
}

// TestHistorySyncFaultDegrades: the durability barrier between page
// data and the meta commit is itself injectable; a failing fsync must
// degrade rather than poison.
func TestHistorySyncFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	opts := historyOptions("4")
	opts.RecoverInterval = -1
	s, ffs := faultStore(t, dir, 0)
	tab, err := s.CreateTable("sy", tempSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, tab, 1, 10)
	ffs.Inject(Fault{Op: OpSync, Path: ".gsnhist", Count: -1})
	if err := tab.Checkpoint(); err == nil {
		t.Fatal("checkpoint with failing fsync succeeded")
	}
	if !tab.Stats().Degraded {
		t.Fatal("table not degraded after fsync failure")
	}
	// Ingestion continues while degraded.
	insertN(t, tab, 11, 4)
	ffs.Clear()
	if err := tab.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reopenAndCount(t, crashCopy(t, dir), "sy", historyOptions("4")); got != 14 {
		t.Errorf("restart sees %d rows, want 14", got)
	}
}

// TestDegradedFlushReportsSuspension: Flush on a degraded table must
// say durability is suspended rather than silently succeed.
func TestDegradedFlushReportsSuspension(t *testing.T) {
	dir := t.TempDir()
	s, ffs := faultStore(t, dir, 0)
	tab, err := s.CreateTable("fl", tempSchema, TableOptions{
		Window: stream.MustWindow("10"), Permanent: true,
		Sync: SyncAlways, RecoverInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(Fault{Op: OpWrite, Path: ".gsnlog", Count: -1})
	insertN(t, tab, 1, 1)
	err = tab.Flush()
	if err == nil || !strings.Contains(err.Error(), "durability suspended") {
		t.Errorf("degraded Flush = %v, want durability-suspended error", err)
	}
}

// TestRecoverWhileStillBrokenStaysDegraded: recovery against a disk
// that has not healed must fail cleanly and leave the table degraded
// (the loop keeps retrying), never half-armed.
func TestRecoverWhileStillBrokenStaysDegraded(t *testing.T) {
	dir := t.TempDir()
	s, ffs := faultStore(t, dir, 0)
	tab, err := s.CreateTable("rb", tempSchema, TableOptions{
		Window: stream.MustWindow("10"), Permanent: true,
		Sync: SyncAlways, RecoverInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, tab, 1, 2)
	ffs.Inject(Fault{Op: OpWrite, Path: ".gsnlog", Count: -1})
	ffs.Inject(Fault{Op: OpOpen, Path: ".gsnlog", Count: -1})
	insertN(t, tab, 3, 2)
	if !tab.Stats().Degraded {
		t.Fatal("not degraded")
	}
	if err := tab.Recover(); err == nil {
		t.Fatal("Recover succeeded against a still-broken disk")
	}
	st := tab.Stats()
	if !st.Degraded || st.WalReopens != 0 {
		t.Fatalf("after failed recover: %+v", st)
	}
	// And the real recovery still works afterwards.
	ffs.Clear()
	if err := tab.Recover(); err != nil {
		t.Fatalf("Recover after heal: %v", err)
	}
	if tab.Stats().Degraded {
		t.Fatal("still degraded")
	}
}

// TestDegradedWindowEvictionKeepsServing: with the history tier
// degraded, evictions out of the hot window must not block ingestion
// — the window slides, the loss is owned by DegradedAppends, and
// recovery re-migrates what the WAL still holds.
func TestDegradedWindowEvictionKeepsServing(t *testing.T) {
	dir := t.TempDir()
	opts := historyOptions("4")
	opts.RecoverInterval = -1
	s, ffs := faultStore(t, dir, 0)
	tab, err := s.CreateTable("ev", tempSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, tab, 1, 4)
	// Degrade via the WAL so history migration of evicted rows happens
	// while the table is already degraded.
	ffs.Inject(Fault{Op: OpWrite, Path: ".gsnlog", Count: -1})
	insertN(t, tab, 5, 8) // evicts rows into the (healthy) history tier
	if tab.Len() != 4 {
		t.Fatalf("window len = %d, want 4", tab.Len())
	}
	ffs.Clear()
	if err := tab.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	elems, err := tab.TimedRange(0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 12 {
		t.Errorf("after recovery TimedRange has %d rows, want 12", len(elems))
	}
	for i, e := range elems {
		if e.Timestamp() != stream.Timestamp(i+1) {
			t.Fatalf("row %d has ts %d, want %d", i, e.Timestamp(), i+1)
		}
	}
}
