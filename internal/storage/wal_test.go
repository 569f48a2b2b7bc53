package storage

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"gsn/internal/stream"
)

// Append is AppendBatch for one record: the form the log-level tests
// read best in (nothing outside tests appends a lone record to a bare
// Log; tables stage).
func (l *Log) Append(e stream.Element) error {
	return l.AppendBatch([]stream.Element{e})
}

// chunkedReader caps every Read at chunk bytes, simulating a file
// reader that legally returns short reads.
type chunkedReader struct {
	r     io.ReadSeeker
	chunk int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}

func (c *chunkedReader) Seek(off int64, whence int) (int64, error) {
	return c.r.Seek(off, whence)
}

// TestReadLogHeaderShortReads: the header schema must decode correctly
// even when the underlying reader returns a few bytes per Read — the
// old single-Read implementation truncated the schema mid-field.
func TestReadLogHeaderShortReads(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "a_rather_long_field_name_one", Type: stream.TypeInt},
		stream.Field{Name: "a_rather_long_field_name_two", Type: stream.TypeFloat},
		stream.Field{Name: "a_rather_long_field_name_three", Type: stream.TypeBytes},
	)
	path := filepath.Join(t.TempDir(), "short.gsnlog")
	log, err := OpenLog(path, schema, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := stream.NewElement(schema, 1, int64(7), 1.5, []byte("x"))
	if err := log.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, chunk := range []int{1, 3, 7} {
		hdr, err := readLogHeader(&chunkedReader{r: f, chunk: chunk})
		if err != nil {
			t.Fatalf("chunk=%d: readLogHeader: %v", chunk, err)
		}
		if !hdr.schema.Equal(schema) {
			t.Fatalf("chunk=%d: schema = %s, want %s", chunk, hdr.schema, schema)
		}
		if hdr.len <= int64(len(logMagic)) {
			t.Fatalf("chunk=%d: implausible header offset %d", chunk, hdr.len)
		}
		if hdr.version != 2 {
			t.Fatalf("chunk=%d: fresh log version = %d, want 2", chunk, hdr.version)
		}
	}
}

// TestTornBatchTailReplay: a crash that tears the last record of a
// group commit must replay the clean prefix — including the intact
// records of the same batch.
func TestTornBatchTailReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var batch []stream.Element
	for i := int64(1); i <= 5; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i), i)
		batch = append(batch, e)
	}
	if err := log.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. Tear the last record of the group.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	_, elems, err := ReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 4 {
		t.Fatalf("replayed %d records from torn batch, want 4", len(elems))
	}
}

// TestCrashLosesOnlyStagedTail: without a barrier, SyncNone keeps
// records staged in memory; a crash (no Close, no Flush) must lose
// exactly those and the file must replay to the flushed prefix.
func TestCrashLosesOnlyStagedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "staged.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := stream.NewElement(tempSchema, 1, int64(1))
	e2, _ := stream.NewElement(tempSchema, 2, int64(2))
	if err := log.Append(e1); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(e2); err != nil {
		t.Fatal(err)
	}
	// Crash: e2 was only staged.
	_, elems, err := ReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 1 || elems[0].Value(0) != int64(1) {
		t.Fatalf("replayed %v, want exactly the flushed record", elems)
	}
}

// TestTruncateDiscardsStagedRecords: Truncate → crash → replay must
// not resurrect rows under any sync policy, even rows that were still
// sitting in the WAL staging buffer at truncate time.
func TestTruncateDiscardsStagedRecords(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewStore(stream.NewManualClock(0), dir)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := s.CreateTable("perm", tempSchema, TableOptions{
				Window:        stream.MustWindow("100"),
				Permanent:     true,
				Sync:          sync,
				FlushInterval: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 5; i++ {
				if err := tab.Insert(intElem(t, stream.Timestamp(i), i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tab.Truncate(); err != nil {
				t.Fatal(err)
			}
			if err := tab.Insert(intElem(t, 9, 99)); err != nil {
				t.Fatal(err)
			}
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
			// Crash: no Close. The file alone decides what survives.
			path := filepath.Join(dir, "PERM.gsnlog")
			_, elems, err := ReplayLog(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(elems) != 1 || elems[0].Value(0) != int64(99) {
				t.Fatalf("sync=%s: replay after truncate+crash = %v, want only the post-truncate row", sync, elems)
			}
			s.Close()
		})
	}
}

// TestSyncIntervalBackgroundFlush: the group-commit flusher must make
// appends durable without any explicit barrier.
func TestSyncIntervalBackgroundFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "interval.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{Sync: SyncInterval, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	e, _ := stream.NewElement(tempSchema, 1, int64(42))
	if err := log.Append(e); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, elems, err := ReplayLog(path)
		if err == nil && len(elems) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background flusher never committed the record (replayed %d)", len(elems))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSyncIntervalAppendStagesWithoutSyscall pins the deferred-sync
// write-amplification contract: under SyncInterval an Append that stays
// below FlushBytes only stages — it must not issue a write syscall of
// its own, nor wake the background flusher early. A steady
// one-append-per-tick workload therefore costs one syscall per
// interval, not one per record. Flushes counts write syscalls, so the
// whole burst must leave it at zero until the (here, explicit) flush.
func TestSyncIntervalAppendStagesWithoutSyscall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stage.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{
		Sync:          SyncInterval,
		FlushInterval: time.Hour,        // timer must never fire during the test
		FlushBytes:    64 * 1024 * 1024, // threshold must never trip
	})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	const records = 200
	for i := int64(1); i <= records; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i), i)
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if st := log.Stats(); st.Flushes != 0 {
		t.Fatalf("%d appends issued %d write syscalls; staging must defer them all to the flusher", records, st.Flushes)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	st := log.Stats()
	if st.Flushes != 1 {
		t.Fatalf("group commit of the burst took %d syscalls, want exactly 1", st.Flushes)
	}
	if _, elems, err := ReplayLog(path); err != nil || len(elems) != records {
		t.Fatalf("replay after group commit: %d records, err %v; want %d", len(elems), err, records)
	}
}

// TestSyncIntervalIdleTicksIssueNoSyscalls: once the staged buffer has
// drained, further flusher ticks are no-ops — an idle log must not
// accumulate write syscalls (or touch the file) in the background.
func TestSyncIntervalIdleTicksIssueNoSyscalls(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idle.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{
		Sync:          SyncInterval,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	e, _ := stream.NewElement(tempSchema, 1, int64(1))
	if err := log.Append(e); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for log.Stats().Flushes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never committed the staged record")
		}
		time.Sleep(time.Millisecond)
	}
	// Dozens of ticks elapse with nothing staged; the syscall count
	// must not move.
	time.Sleep(100 * time.Millisecond)
	if st := log.Stats(); st.Flushes != 1 {
		t.Fatalf("idle ticks issued syscalls: Flushes = %d, want 1", st.Flushes)
	}
}

// TestFlushBytesThresholdForcesWrite: SyncNone must still bound staged
// memory — crossing FlushBytes triggers an inline group commit.
func TestFlushBytesThresholdForcesWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "thresh.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{Sync: SyncNone, FlushBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for i := int64(1); i <= 20; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i), i)
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	st := log.Stats()
	if st.Flushes == 0 {
		t.Fatalf("no flushes despite crossing the byte threshold: %+v", st)
	}
	if st.Buffered >= 32 {
		t.Fatalf("staged bytes %d never bounded by threshold", st.Buffered)
	}
}

// TestAppendAfterCloseFails pins the closed-log contract.
func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	e, _ := stream.NewElement(tempSchema, 1, int64(1))
	if err := log.Append(e); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := log.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFailedCommitPoisonsLog: after a failed group commit the file may
// end in a torn group and the v2 delta chain no longer matches what
// was staged, so the log must refuse every further append — otherwise
// later records would replay with silently wrong timestamps behind
// bytes the replayer can never pass.
func TestFailedCommitPoisonsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{}) // SyncAlways
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := stream.NewElement(tempSchema, 100, int64(1))
	if err := log.Append(e1); err != nil {
		t.Fatal(err)
	}
	// Sabotage the file so the next commit's write fails.
	log.f.Close()
	e2, _ := stream.NewElement(tempSchema, 200, int64(2))
	if err := log.Append(e2); err == nil {
		t.Fatal("Append with dead file succeeded")
	}
	e3, _ := stream.NewElement(tempSchema, 300, int64(3))
	if err := log.Append(e3); err == nil {
		t.Fatal("poisoned log accepted a record")
	}
	if err := log.Flush(); err == nil {
		t.Fatal("poisoned log flushed cleanly")
	}
	st := log.Stats()
	if st.Appends != 2 { // e3 must not even stage
		t.Fatalf("appends = %d, want 2", st.Appends)
	}
	// The file holds exactly the pre-failure prefix with intact
	// timestamps.
	_, elems, err := ReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 1 || elems[0].Timestamp() != 100 {
		t.Fatalf("replay after poison = %v", elems)
	}
}

// TestV1LogUpgradedOnOpen: a log written in the original full-record
// format (outside input: nothing has produced one since PR 2) must
// still replay, and opening it for append must rewrite it once as a
// compact log — same records, one encoder from then on, checkpointable
// — leaving a window that is byte-identical across the upgrade.
func TestV1LogUpgradedOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "V1.gsnlog")
	// Hand-write a v1 log: v1 magic, schema, full element records.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte{}, logMagic...)
	hdr = stream.EncodeSchema(hdr, tempSchema)
	if _, err := f.Write(hdr); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i*100), i)
		if err := stream.WriteElement(f, e.WithArrival(stream.Timestamp(i*100+5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, v1, err := ReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1) != 3 || v1[2].Value(0) != int64(3) {
		t.Fatalf("v1 replay = %v", v1)
	}
	// v1 records carry their arrival stamps through replay.
	if v1[0].Arrival() != 105 {
		t.Fatalf("v1 arrival = %v, want 105", v1[0].Arrival())
	}

	opts := TableOptions{Window: stream.MustWindow("100"), Permanent: true, History: true, CheckpointBytes: -1}
	open := func() (*Store, *Table) {
		s, err := NewStore(stream.NewManualClock(0), dir)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := s.CreateTable("v1", tempSchema, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s, tab
	}
	s, tab := open()
	if got := elemBytes(tab.Snapshot()); !bytes.Equal(got, elemBytes(v1)) {
		t.Fatalf("window over the v1 log = %v, want the v1 records", tab.Snapshot())
	}
	magic := make([]byte, len(logMagicV2))
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data[:copy(magic, data)], logMagicV2) {
		t.Fatalf("log not rewritten as compact on open: magic %q, err %v", magic, err)
	}
	if _, err := os.Stat(path + ".rewrite"); !os.IsNotExist(err) {
		t.Fatalf("upgrade left its temp file behind: %v", err)
	}
	if err := tab.Insert(intElem(t, 400, 4)); err != nil {
		t.Fatal(err)
	}
	before := elemBytes(tab.Snapshot())
	// The upgraded log checkpoints like any other.
	if err := tab.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, tab = open()
	defer s.Close()
	if got := elemBytes(tab.Snapshot()); !bytes.Equal(got, before) {
		t.Fatalf("window after reopening the upgraded log = %v, differs from before", tab.Snapshot())
	}
}

// TestOpenLogTruncatesTornTail: reopening a log with a torn tail must
// truncate the tear so later appends extend the clean prefix instead of
// hiding behind undecodable bytes.
func TestOpenLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recover.gsnlog")
	log, err := OpenLog(path, tempSchema, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i*10), i)
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-2); err != nil {
		t.Fatal(err)
	}

	log, err = OpenLog(path, tempSchema, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := stream.NewElement(tempSchema, 40, int64(4))
	if err := log.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, elems, err := ReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	// Records 1, 2 (clean prefix) and 4 (post-recovery append); the
	// torn record 3 is gone.
	if len(elems) != 3 || elems[2].Value(0) != int64(4) || elems[2].Timestamp() != 40 {
		t.Fatalf("replay after torn-tail recovery = %v", elems)
	}
}

// TestInsertErrorLeavesWindowUnchanged: when the WAL stage fails, the
// element must be neither visible to readers nor reported to the
// observer, and the failure must be counted — the seed left the window
// and the log diverged here.
func TestInsertErrorLeavesWindowUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(stream.NewManualClock(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tab, err := s.CreateTable("perm", tempSchema, TableOptions{
		Window:    stream.MustWindow("100"),
		Permanent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(intElem(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	events := &windowReader{key: valueKey}
	events.read(tab)
	before := len(events.events)

	// Close the log underneath the table: staging is refused. (A fault
	// found later, at the group commit, degrades instead — the rows are
	// already visible by then; see TestLeaderCommitFailureDegradesFollowers.)
	tab.log.Close()

	if err := tab.Insert(intElem(t, 2, 2)); err == nil {
		t.Fatal("Insert with closed WAL succeeded")
	}
	if err := tab.InsertBatch([]stream.Element{intElem(t, 3, 3), intElem(t, 4, 4)}); err == nil {
		t.Fatal("InsertBatch with closed WAL succeeded")
	}
	if n := tab.Len(); n != 1 {
		t.Fatalf("window has %d elements after failed appends, want 1", n)
	}
	if events.read(tab); len(events.events) != before {
		t.Fatalf("a reader saw %v for elements that were never published", events.events[before:])
	}
	st := tab.Stats()
	if st.LogErrors != 2 {
		t.Fatalf("LogErrors = %d, want 2", st.LogErrors)
	}
	if st.Inserted != 1 {
		t.Fatalf("Inserted = %d, want 1", st.Inserted)
	}
}

// TestInsertBatchEquivalence: any split of an arrival sequence into
// batches must yield identical window contents, stats and reader event
// sequences — a reader catching up at every batch boundary — as the
// per-element inserts (count and time windows). A reader of the
// per-element table that also reads after every element mirrors its
// window throughout.
func TestInsertBatchEquivalence(t *testing.T) {
	f := func(values []int16, splits []uint8, bound, sizeSec uint8, useTime bool) bool {
		var window stream.Window
		if useTime {
			window = stream.Window{Kind: stream.TimeWindow,
				Size: time.Duration(int(sizeSec%30)+1) * time.Second}
		} else {
			window = stream.Window{Kind: stream.CountWindow, Count: int(bound%10) + 1}
		}
		clockA := stream.NewManualClock(0)
		clockB := stream.NewManualClock(0)
		tabA, err := NewTable("a", tempSchema, window, clockA)
		if err != nil {
			return false
		}
		tabB, err := NewTable("b", tempSchema, window, clockB)
		if err != nil {
			return false
		}
		evA, evB, fine := &windowReader{key: valueKey}, &windowReader{key: valueKey}, &windowReader{key: valueKey}

		elems := make([]stream.Element, len(values))
		// Batch boundaries from the fuzzed split list; both clocks
		// advance identically at each boundary.
		pos := 0
		for si := 0; pos < len(elems); si++ {
			n := 1
			if si < len(splits) {
				n = int(splits[si]%5) + 1
			}
			if pos+n > len(elems) {
				n = len(elems) - pos
			}
			clockA.Advance(500 * time.Millisecond)
			clockB.Advance(500 * time.Millisecond)
			batch := elems[pos : pos+n]
			for i := range batch {
				ts := clockA.Now()
				e, err := stream.NewElement(tempSchema, ts, int64(values[pos+i]))
				if err != nil {
					return false
				}
				batch[i] = e
				if err := tabA.Insert(e); err != nil {
					return false
				}
				fine.read(tabA)
				if fine.first+uint64(len(fine.mirror)) != uint64(pos+i+1) || len(fine.mirror) != tabA.Len() {
					return false
				}
			}
			// The batch slice is consumed by InsertBatch; tabA already
			// copied what it needed.
			if err := tabB.InsertBatch(batch); err != nil {
				return false
			}
			evA.read(tabA)
			evB.read(tabB)
			pos += n
		}

		snapA, snapB := tabA.Snapshot(), tabB.Snapshot()
		if len(snapA) != len(snapB) {
			return false
		}
		for i := range snapA {
			if snapA[i].Value(0) != snapB[i].Value(0) || snapA[i].Timestamp() != snapB[i].Timestamp() {
				return false
			}
		}
		stA, stB := tabA.Stats(), tabB.Stats()
		if stA.Inserted != stB.Inserted || stA.Evicted != stB.Evicted ||
			stA.Live != stB.Live || stA.Bytes != stB.Bytes {
			return false
		}
		if len(evA.events) != len(evB.events) {
			return false
		}
		for i := range evA.events {
			if evA.events[i] != evB.events[i] {
				return false
			}
		}
		return fine.first == evB.first && len(fine.mirror) == len(evB.mirror)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReadPathSharedLock: while one reader holds the table's shared
// lock mid-scan, other read-side methods must complete — the seed
// serialised every read behind the exclusive lock.
func TestReadPathSharedLock(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("100"), stream.NewManualClock(0))
	for i := int64(1); i <= 10; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i), i))
	}
	holding := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		tab.ReadWindow(func(uint64, []stream.Element) {
			close(holding)
			<-release
		})
	}()
	<-holding

	done := make(chan struct{})
	go func() {
		defer close(done)
		if tab.Len() != 10 {
			t.Error("Len under shared lock")
		}
		if len(tab.Snapshot()) != 10 {
			t.Error("Snapshot under shared lock")
		}
		if len(tab.Last(3)) != 3 {
			t.Error("Last under shared lock")
		}
		if elems, _, _, _, _ := tab.SinceSeq(5); len(elems) != 5 {
			t.Error("SinceSeq under shared lock")
		}
		if _, ok := tab.Latest(); !ok {
			t.Error("Latest under shared lock")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read-side methods blocked behind a concurrent reader: still taking the exclusive lock")
	}
	close(release)
	<-scanDone
}

// TestTimeWindowReadUpgradesAndEvicts: the shared-lock fast path must
// still apply expiry when it is actually due.
func TestTimeWindowReadUpgradesAndEvicts(t *testing.T) {
	clock := stream.NewManualClock(0)
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("10s"), clock)
	clock.Advance(time.Second)
	tab.Insert(intElem(t, clock.Now(), 1))
	clock.Advance(time.Second)
	tab.Insert(intElem(t, clock.Now(), 2))

	// No eviction due: reads serve under RLock and see both.
	if n := tab.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	// Expire the first element; every read form must upgrade and evict.
	clock.Set(11_500)
	if n := tab.Len(); n != 1 {
		t.Fatalf("Len after expiry = %d, want 1", n)
	}
	clock.Set(stream.Timestamp(time.Hour.Milliseconds()))
	if got := tab.Snapshot(); len(got) != 0 {
		t.Fatalf("Snapshot after full expiry = %v", got)
	}
	if st := tab.Stats(); st.Evicted != 2 {
		t.Fatalf("Evicted = %d, want 2", st.Evicted)
	}
}
