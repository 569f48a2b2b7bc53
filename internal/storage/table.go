// Package storage implements the GSN container's storage layer (paper
// §4): one windowed, time-ordered relation per stream source and per
// virtual sensor output. Tables evict by the descriptor's window
// (time-based or count-based) and can optionally persist to an
// append-only log ("permanent-storage" in the descriptor).
//
// The original GSN delegated this to MySQL; an embedded store keeps the
// identical access pattern (insert-on-arrival, window-scan-on-trigger)
// without an external dependency, which is what the latency experiments
// measure.
//
// # Ingestion and durability
//
// Insert and InsertBatch are the only way into a table, and Insert is
// a batch of one. Under the table lock a batch is validated, its WAL
// records are staged in memory (permanent tables, see Log) and it is
// published to the window; the lock is then released, and a producer
// whose sync policy promises durability on return waits for the group
// commit covering its records — its own, or one a concurrent producer
// is already leading. Readers and triggers never queue behind a write
// syscall or an fsync, and every producer that stages while a commit is
// on the disk shares the next one.
//
// A WAL or history I/O error does not poison the table for the life
// of the process: the table enters a *degraded* state in which the RAM
// window keeps ingesting and serving queries while durability is
// suspended (rows acknowledged meanwhile are counted in
// TableStats.DegradedAppends — they are the loss bound if the process
// dies before recovery). A background recovery loop re-arms the tiers
// with backoff: the history tier falls back to its last durable meta
// generation, the WAL reopens through the same torn-tail truncation a
// restart would perform, forgotten records are re-migrated from the
// file and the still-live window suffix is re-appended. Closing the
// underlying file (table shutdown) remains a hard error, not a
// degradation.
//
// TableOptions.Sync (see SyncPolicy) decides who waits for which
// commit; what each policy guarantees across a crash is stated once, in
// docs/operations.md "Durability contract".
//
// # Read concurrency
//
// Read-side methods (Len, Snapshot, Last, SinceSeq, Latest, ForEach) take
// a shared lock and upgrade to the exclusive lock only when window
// retention actually has work to do — count windows never evict on
// read, and time windows check the head timestamp first — so long-poll
// readers and dashboards do not serialise against ingestion.
package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/resilience"
	"gsn/internal/stream"
)

// TableStats reports table activity counters.
type TableStats struct {
	// Inserted is the total number of elements ever inserted.
	Inserted uint64
	// Evicted is the number of elements dropped by window retention.
	Evicted uint64
	// Live is the number of elements currently retained.
	Live int
	// Bytes is the approximate payload size of live elements.
	Bytes int
	// LogErrors counts failed WAL appends and flushes (elements the
	// caller was told are not durable).
	LogErrors uint64
	// LogFlushes counts WAL write syscalls (zero for memory-only
	// tables); the batched-ingest benchmarks assert on it.
	LogFlushes uint64
	// Replayed is the number of elements replayed from the WAL when the
	// table was opened — for a history table, the un-checkpointed tail.
	Replayed int
	// Checkpoints counts checkpoints taken by this table since open.
	Checkpoints uint64
	// HistoryErrors counts failed disk-tier operations (evicted elements
	// that could not be migrated, failed checkpoints).
	HistoryErrors uint64
	// Degraded reports that durability is currently suspended: a WAL or
	// history fault poisoned a tier and recovery has not yet re-armed
	// it. The window keeps ingesting and serving.
	Degraded bool
	// DegradedReason is the fault that suspended durability.
	DegradedReason string
	// DegradedAppends counts rows acknowledged while durability was
	// suspended — the loss bound if the process dies before recovery.
	DegradedAppends uint64
	// WalReopens counts successful recoveries (durability re-armed).
	WalReopens uint64
	// History reports disk-tier counters; nil for tables without one.
	History *HistoryStats
	// Lanes is always nil.
	//
	// Deprecated: the ingest-lane tier is gone. The field survives only
	// because benchmark/common.go reads Lanes.Merges and Lanes.Collapsed
	// and could not be edited in the PR that removed lanes; the next
	// [benchmark] PR deletes that read, this field and LaneStats.
	Lanes *LaneStats
}

// LaneStats is the part of the removed ingest-lane counters that
// benchmark/common.go still names.
//
// Deprecated: see TableStats.Lanes.
type LaneStats struct {
	Merges    uint64
	Collapsed uint64
}

// Observer receives element lifecycle events from a table. Methods are
// invoked while the table lock is held: implementations must be fast
// and must not call back into the table. Insert and eviction events
// arrive in arrival order — a batch insert reports the same interleaved
// insert/evict sequence as the equivalent single-element inserts — so
// an observer can mirror the window with FIFO state (the incremental
// aggregate maintainers in sqlengine rely on this).
type Observer interface {
	// OnInsert is called after an element is appended, before any
	// eviction it displaces.
	OnInsert(e stream.Element)
	// OnEvict is called for each element dropped by window retention,
	// oldest first.
	OnEvict(e stream.Element)
	// OnTruncate is called when the table is cleared wholesale.
	OnTruncate()
}

// Incrementer is the minimal counter surface the storage layer needs to
// report events into an external metrics system (satisfied by
// *metrics.Counter).
type Incrementer interface{ Inc() }

// Table is a windowed stream relation. All methods are safe for
// concurrent use.
type Table struct {
	name   string
	schema *stream.Schema
	window stream.Window
	clock  stream.Clock

	mu       sync.RWMutex
	elems    []stream.Element // live elements in arrival order; elems[head:] are valid
	head     int
	inserted uint64
	evicted  uint64
	bytes    int
	log      *Log
	observer Observer

	// seq is the absolute insert ordinal of the last inserted element:
	// element i of the live window carries sequence number
	// seq-(len(elems)-1-i). It survives restarts (CreateTable seeds it
	// from the WAL base) so the history tier's dedup-by-seq works across
	// crash/replay cycles. Zero except for history tables.
	seq uint64
	// epoch identifies this continuous run of the sequence space (see
	// epoch.go): bumped on open and Truncate, persisted for permanent
	// tables in the .gsnepoch sidecar, process-unique otherwise. The
	// p2p replication protocol pairs it with seq so a consumer can tell
	// a resumable cursor from one that must re-sync.
	epoch uint64
	// epochPath/epochFS, when set, persist epoch bumps (permanent
	// tables); persistence is best-effort — see storeEpoch.
	epochPath string
	epochFS   FS
	// history is the on-disk tier absorbing evicted elements; nil for
	// ordinary tables. Set once before the table is published.
	history *history
	// replayed counts the WAL records loaded at open (TableStats).
	replayed int
	// checkpoints counts checkpointLocked successes.
	checkpoints uint64
	// ckptBytes triggers an automatic checkpoint when the WAL tail
	// exceeds it (0 disables); ckptLowWater is the tail size right after
	// the last attempt, so a checkpoint that could not shrink the tail
	// (everything still hot or uncommitted) does not retrigger on every
	// insert.
	ckptBytes    int64
	ckptLowWater int64

	// version counts window mutations (insert, evict, truncate, bulk
	// load). Two equal Version() reads bracket an unchanged window, so
	// query-result caches can validate entries without rescanning.
	// Written under mu, read under at least the shared lock.
	version uint64
	// signal fires on every insert and Truncate and is closed by Close;
	// guarded by mu.
	signal Signal

	// logErrors is atomic: background WAL flush failures are counted
	// from the flusher goroutine without the table lock.
	logErrors  atomic.Uint64
	logErrMetr Incrementer
	histErrors atomic.Uint64

	// degradedErr, when non-nil, records why durability is suspended:
	// a poisoned WAL or history tier. The window keeps ingesting and
	// serving; the recovery loop (or an explicit Recover) clears it.
	degradedErr error
	// degradedAppends counts rows acknowledged while degraded.
	degradedAppends uint64
	// walReopens counts successful recoveries.
	walReopens    uint64
	walReopenMetr Incrementer
	// recovering guards against spawning a second recovery loop;
	// recoverStop (created by the Store for permanent tables) ends the
	// loop at Close; recoverBase is the loop's backoff floor.
	recovering  bool
	recoverStop chan struct{}
	recoverBase time.Duration
}

// DefaultRecoverInterval is the base delay between recovery attempts on
// a degraded table.
const DefaultRecoverInterval = 100 * time.Millisecond

// DefaultCheckpointBytes is the WAL tail size that triggers an
// automatic checkpoint on a history table.
const DefaultCheckpointBytes = 1 << 20

// NewTable creates a standalone table (the Store is the usual entry
// point). The window governs retention; clock may be nil for
// stream.SystemClock.
func NewTable(name string, schema *stream.Schema, window stream.Window, clock stream.Clock) (*Table, error) {
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("storage: table %q needs a non-empty schema", name)
	}
	if window.Kind == stream.CountWindow && window.Count <= 0 {
		return nil, fmt.Errorf("storage: table %q has non-positive count window", name)
	}
	if window.Kind == stream.TimeWindow && window.Size <= 0 {
		return nil, fmt.Errorf("storage: table %q has non-positive time window", name)
	}
	if clock == nil {
		clock = stream.SystemClock()
	}
	return &Table{
		name:   stream.CanonicalName(name),
		schema: schema,
		window: window,
		clock:  clock,
		epoch:  nextMemoryEpoch(),
	}, nil
}

// Name returns the canonical table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *stream.Schema { return t.schema }

// Window returns the retention window.
func (t *Table) Window() stream.Window { return t.window }

// checkSchema validates one element against the table schema. Elements
// almost always carry the table's own schema pointer, so identity is
// the fast path.
func (t *Table) checkSchema(e stream.Element) error {
	if s := e.Schema(); s == t.schema || (s != nil && s.Equal(t.schema)) {
		return nil
	}
	return fmt.Errorf("storage: element schema %s does not match table %s schema %s",
		e.Schema(), t.name, t.schema)
}

// recordLogError counts a WAL failure (also called from the log's
// background flusher, without the table lock).
func (t *Table) recordLogError() {
	t.logErrors.Add(1)
	if t.logErrMetr != nil {
		t.logErrMetr.Inc()
	}
}

// Insert appends one element: InsertBatch of one, with identical
// semantics.
func (t *Table) Insert(e stream.Element) error {
	return t.InsertBatch([]stream.Element{e})
}

// InsertBatch appends a burst of elements under one lock acquisition
// and one WAL group. Schemas are validated and the whole batch is staged
// before any element becomes visible, and the observer sees the exact
// insert/evict interleaving the equivalent sequence of Insert calls
// would produce. Only a schema mismatch or a closed log (table shutting
// down) rejects the batch, with no element published. A WAL I/O fault
// does not: the table enters degraded mode — the rows stay in the
// window, are counted in DegradedAppends, and durability is suspended
// until the recovery loop re-arms the tier. Under SyncAlways/SyncDurable
// the call returns once the batch is committed; the rows may be visible
// to readers slightly earlier (docs/operations.md "Durability
// contract"). Eviction by the retention window happens inline so the
// table never holds more than one extra element beyond its bound.
func (t *Table) InsertBatch(elems []stream.Element) error {
	if len(elems) == 0 {
		return nil
	}
	for _, e := range elems {
		if err := t.checkSchema(e); err != nil {
			return err
		}
	}
	log, seq, err := t.stageAndPublish(elems)
	if err != nil || log == nil {
		return err
	}
	if err := log.CommitThrough(seq); err != nil {
		return t.commitFailed(err, len(elems))
	}
	return nil
}

// stageAndPublish is the locked body of every insert (schemas
// pre-validated): stage the WAL records (or own up to a degraded
// append), publish element by element so the observer sees the
// canonical insert/evict interleaving, run the checkpoint policy. WAL
// order is window order because both happen under mu. A non-nil log
// tells the caller to wait for CommitThrough(seq) after the lock is
// released.
func (t *Table) stageAndPublish(elems []stream.Element) (log *Log, seq uint64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log != nil {
		if t.degradedErr != nil {
			t.degradedAppends += uint64(len(elems))
		} else if s, wait, err := t.log.Stage(elems); err != nil {
			t.recordLogError()
			if !t.enterDegradedLocked(err) {
				return nil, 0, fmt.Errorf("storage: persist %s: %w", t.name, err)
			}
			t.degradedAppends += uint64(len(elems))
		} else if wait {
			log, seq = t.log, s
		}
	}
	for _, e := range elems {
		t.publishLocked(e)
	}
	t.signal.Fire()
	t.maybeCheckpointLocked()
	return log, seq, nil
}

// Changed returns a channel closed by the table's next insert, Truncate
// or Close, whichever comes first (see Signal.Changed).
func (t *Table) Changed() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.signal.Changed()
}

// Closed reports whether Close has released the table.
func (t *Table) Closed() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.signal.Closed()
}

// commitFailed accounts for a group commit that failed after its rows
// were published — a producer's own CommitThrough (n rows it was about
// to ack) or the background flusher's (n = 0: its rows were acked
// long ago). The table degrades and the rows are owned up to in
// DegradedAppends; only a closed file (table shutting down) is reported
// to the producer.
func (t *Table) commitFailed(err error, n int) error {
	t.recordLogError()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enterDegradedLocked(err) {
		return fmt.Errorf("storage: persist %s: %w", t.name, err)
	}
	t.degradedAppends += uint64(n)
	return nil
}

// publishLocked publishes one element to the window: append, notify,
// evict. Running eviction per element (it is a cheap bound check once
// the window is full) keeps the observer event sequence identical for
// any batching of the same arrivals.
func (t *Table) publishLocked(e stream.Element) {
	t.elems = append(t.elems, e)
	t.inserted++
	t.seq++
	t.version++
	t.bytes += e.Size()
	if t.observer != nil {
		t.observer.OnInsert(e)
	}
	t.evictLocked()
}

// evictLocked drops elements outside the retention window and compacts
// the backing slice when more than half is dead space.
func (t *Table) evictLocked() {
	switch t.window.Kind {
	case stream.CountWindow:
		for t.liveLenLocked() > t.window.Count {
			t.dropHeadLocked()
		}
	case stream.TimeWindow:
		now := t.clock.Now()
		for t.liveLenLocked() > 0 && !t.window.Covers(t.elems[t.head].Timestamp(), now) {
			t.dropHeadLocked()
		}
	}
	if t.head > len(t.elems)/2 && t.head > 32 {
		live := copy(t.elems, t.elems[t.head:])
		// Release references so evicted payloads can be collected.
		for i := live; i < len(t.elems); i++ {
			t.elems[i] = stream.Element{}
		}
		t.elems = t.elems[:live]
		t.head = 0
	}
}

func (t *Table) liveLenLocked() int { return len(t.elems) - t.head }

func (t *Table) dropHeadLocked() {
	t.version++
	t.bytes -= t.elems[t.head].Size()
	if t.history != nil {
		// Migrate the evicted element into the disk tier before it
		// leaves the window. Its absolute sequence number follows from
		// its position relative to the newest element; replayed rows
		// re-offered here are deduplicated by that number.
		seq := t.seq - uint64(len(t.elems)-1-t.head)
		if err := t.history.Append(t.elems[t.head], seq); err != nil {
			t.histErrors.Add(1)
			// The tier is poisoned; the WAL still holds the evicted
			// record, so recovery can re-migrate it after the tier
			// falls back to its durable generation.
			t.enterDegradedLocked(err)
		}
	}
	if t.observer != nil {
		t.observer.OnEvict(t.elems[t.head])
	}
	t.elems[t.head] = stream.Element{}
	t.head++
	t.evicted++
}

// evictionDueLocked reports whether a read must apply retention before
// serving; callable under the shared lock. Count windows never exceed
// their bound between inserts (Insert evicts inline), so only time
// windows with an expired head need the exclusive path.
func (t *Table) evictionDueLocked() bool {
	if t.window.Kind != stream.TimeWindow || t.liveLenLocked() == 0 {
		return false
	}
	return !t.window.Covers(t.elems[t.head].Timestamp(), t.clock.Now())
}

// readLocked runs fn with at least the shared lock held and retention
// applied: the common case serves entirely under RLock, upgrading to
// the write lock only when a time-window head has actually expired.
// The upgrade re-checks nothing — evictLocked is idempotent — so the
// brief unlock between the two modes cannot produce a stale view.
func (t *Table) readLocked(fn func()) {
	t.mu.RLock()
	if !t.evictionDueLocked() {
		// Deferred so a panicking caller (e.g. a ForEach callback the
		// trigger pipeline recovers from) cannot leak the lock.
		defer t.mu.RUnlock()
		fn()
		return
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictLocked()
	fn()
}

// Len returns the number of live elements, applying time-window expiry
// as of the current clock.
func (t *Table) Len() int {
	var n int
	t.readLocked(func() { n = t.liveLenLocked() })
	return n
}

// Snapshot returns a copy of the live window contents in arrival order.
func (t *Table) Snapshot() []stream.Element {
	var out []stream.Element
	t.readLocked(func() {
		out = make([]stream.Element, t.liveLenLocked())
		copy(out, t.elems[t.head:])
	})
	return out
}

// ForEach calls fn for every live element in arrival order; fn must not
// call back into the table and must not mutate shared state without its
// own synchronisation (scans may run concurrently under the shared
// lock). Returning false stops iteration early. This is the zero-copy
// path the query engine uses to materialise window relations: eviction
// (when due) and iteration happen in one critical section, so a
// concurrent writer can never mutate the window mid-scan.
func (t *Table) ForEach(fn func(stream.Element) bool) {
	t.readLocked(func() {
		for i := t.head; i < len(t.elems); i++ {
			if !fn(t.elems[i]) {
				return
			}
		}
	})
}

// WithLock applies retention and then runs fn while holding the
// table's write lock, excluding concurrent inserts, evictions and
// readers. The container uses it to read an observer's state at an
// instant that is consistent with the window (observer callbacks also
// run under this lock); fn must not call back into the table.
func (t *Table) WithLock(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictLocked()
	fn()
}

// Version returns the window mutation counter, applying any due
// time-window retention first so a pending expiry can never hide
// behind an unchanged number. Result caches key on it: two reads
// returning the same value bracket an identical window.
func (t *Table) Version() uint64 {
	var v uint64
	t.readLocked(func() { v = t.version })
	return v
}

// Last returns up to n most recent elements in arrival order.
func (t *Table) Last(n int) []stream.Element {
	if n <= 0 {
		return nil
	}
	var out []stream.Element
	t.readLocked(func() {
		k := n
		if live := t.liveLenLocked(); k > live {
			k = live
		}
		out = make([]stream.Element, k)
		copy(out, t.elems[len(t.elems)-k:])
	})
	return out
}

// Epoch returns the table's sequence-space epoch: a value that changes
// whenever the sequence numbering could have restarted or regressed
// (table open, Truncate). Consumers resuming by sequence number must
// re-sync when it changes.
func (t *Table) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// SinceSeq returns the elements with sequence number strictly greater
// than after, in arrival order, together with the sequence number of
// the first returned element and the window's live sequence bounds
// [winFirst, winLast] (winFirst = winLast+1 for an empty window). The
// window's sequence numbers are contiguous, so the result is always a
// suffix of the live window and first > after+1 tells the caller that
// elements it never saw have already been evicted. This is the
// exactly-once long-poll primitive of the p2p layer; it runs under the
// shared lock so concurrent pollers do not serialise against ingestion.
func (t *Table) SinceSeq(after uint64) (elems []stream.Element, first, winFirst, winLast, epoch uint64) {
	t.readLocked(func() {
		epoch = t.epoch
		winLast = t.seq
		live := uint64(t.liveLenLocked())
		winFirst = winLast - live + 1
		start := winFirst
		if after+1 > start {
			start = after + 1
		}
		if live == 0 || start > winLast {
			return
		}
		first = start
		idx := t.head + int(start-winFirst)
		elems = make([]stream.Element, len(t.elems)-idx)
		copy(elems, t.elems[idx:])
	})
	return elems, first, winFirst, winLast, epoch
}

// Latest returns the most recent element and false if the table is
// empty.
func (t *Table) Latest() (stream.Element, bool) {
	var (
		e  stream.Element
		ok bool
	)
	t.readLocked(func() {
		if t.liveLenLocked() > 0 {
			e, ok = t.elems[len(t.elems)-1], true
		}
	})
	return e, ok
}

// Truncate discards all live elements (used on redeploy). A permanent
// table's log is reset too — including any records still staged in the
// WAL buffer — so a later CreateTable replay cannot resurrect the
// truncated rows. A history table's disk tier is reinitialised to an
// empty file in the same critical section: no pages or index nodes of
// the truncated rows survive, and the sequence space restarts at zero
// alongside the WAL's.
func (t *Table) Truncate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evicted += uint64(t.liveLenLocked())
	t.elems = nil
	t.head = 0
	t.bytes = 0
	t.version++
	t.seq = 0
	t.bumpEpochLocked()
	t.ckptLowWater = 0
	t.signal.Fire()
	if t.observer != nil {
		t.observer.OnTruncate()
	}
	if t.history != nil {
		if err := t.history.Reset(); err != nil {
			return fmt.Errorf("storage: resetting history of %s: %w", t.name, err)
		}
	}
	if t.log != nil {
		if err := t.log.Recreate(0); err != nil {
			return fmt.Errorf("storage: resetting log of %s: %w", t.name, err)
		}
	}
	// Both tiers reinitialised cleanly: any suspended durability is
	// trivially restored for the now-empty table.
	t.degradedErr = nil
	return nil
}

// Flush forces any staged WAL records out to the file — the durability
// barrier for permanent tables under SyncInterval/SyncNone. It is a
// no-op for memory-only tables. While the table is degraded, Flush
// reports the suspension: the caller must not assume durability until
// a Flush succeeds again.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log == nil {
		return nil
	}
	if t.degradedErr != nil {
		return fmt.Errorf("storage: flushing %s: durability suspended: %w", t.name, t.degradedErr)
	}
	if err := t.log.Flush(); err != nil {
		t.recordLogError()
		t.enterDegradedLocked(err)
		return fmt.Errorf("storage: flushing %s: %w", t.name, err)
	}
	return nil
}

// HasHistory reports whether the table has an on-disk history tier.
func (t *Table) HasHistory() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.history != nil
}

// Checkpoint makes the history tier durable and truncates the WAL head
// to the un-checkpointed tail, so the next open replays O(tail) records
// instead of the whole retention. It happens automatically when the
// tail outgrows TableOptions.CheckpointBytes; tests and shutdown call
// it directly.
func (t *Table) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkpointLocked()
}

// maybeCheckpointLocked runs the automatic checkpoint policy after an
// insert. The low-water mark stops a checkpoint that could not shrink
// the tail (everything still hot, or not yet group-committed) from
// retriggering on every subsequent insert: the next attempt waits for
// another ckptBytes of fresh records.
func (t *Table) maybeCheckpointLocked() {
	if t.history == nil || t.log == nil || t.ckptBytes <= 0 || t.degradedErr != nil {
		return
	}
	tail := t.log.TailBytes()
	if tail < t.ckptBytes || tail < t.ckptLowWater+t.ckptBytes {
		return
	}
	if err := t.checkpointLocked(); err != nil {
		t.histErrors.Add(1)
	}
	t.ckptLowWater = t.log.TailBytes()
}

// checkpointLocked is the checkpoint protocol: flush the WAL (so the
// durable boundary covers everything staged), make the history pages
// durable, then drop the WAL head up to the oldest record still needed
// — the minimum of the hot window's start, the history tier's durable
// coverage and the WAL's own committed boundary. The last clamp is the
// crash-safety contract with sync="interval": a checkpoint never
// records progress past the last durably flushed group, so a torn tail
// can only ever lose records the WAL still holds.
func (t *Table) checkpointLocked() error {
	if t.history == nil {
		return nil
	}
	if t.log != nil {
		if err := t.log.Flush(); err != nil {
			// Best effort: the pages appended so far can still become
			// durable; the WAL head is left alone.
			t.history.Checkpoint()
			t.recordLogError()
			t.enterDegradedLocked(err)
			return fmt.Errorf("storage: checkpoint %s: %w", t.name, err)
		}
	}
	if err := t.history.Checkpoint(); err != nil {
		t.enterDegradedLocked(err)
		return fmt.Errorf("storage: checkpoint %s: %w", t.name, err)
	}
	t.checkpoints++
	if t.log != nil {
		keep := t.history.DurableSeq()
		if hot := t.seq - uint64(t.liveLenLocked()); hot < keep {
			keep = hot
		}
		if c := t.log.CommittedSeq(); c < keep {
			keep = c
		}
		if err := t.log.RewriteHead(keep); err != nil {
			t.recordLogError()
			t.enterDegradedLocked(err)
			return fmt.Errorf("storage: checkpoint %s: truncating log head: %w", t.name, err)
		}
	}
	return nil
}

// ForEachTimed hands fn every element with lo <= timed <= hi in
// arrival order, merging the disk tier with the hot window, until fn
// returns false. Elements the window evicted are read back through the
// B+tree index and buffer pool, one at a time; for tables without a
// history tier fn sees just the hot rows. The two tiers are read under
// their own locks — the hot snapshot fixes the boundary sequence first,
// and the disk scan excludes anything at or above it, so an element
// migrating between the two phases is served exactly once. fn runs
// under the history tier's shared lock and must not call back into the
// table, and its element is valid only during the call (disk rows are
// decoded into one reused buffer): a caller that keeps elements clones
// them, as TimedRange does. On an error fn has seen a prefix of the
// range.
func (t *Table) ForEachTimed(lo, hi stream.Timestamp, fn func(stream.Element) bool) error {
	if hi < lo {
		return nil
	}
	var hot []stream.Element
	var hotFirst uint64
	var h *history
	t.readLocked(func() {
		h = t.history
		hotFirst = t.seq - uint64(t.liveLenLocked()) + 1
		for i := t.head; i < len(t.elems); i++ {
			if ts := t.elems[i].Timestamp(); ts >= lo && ts <= hi {
				hot = append(hot, t.elems[i])
			}
		}
	})
	if h != nil {
		more := true
		err := h.Range(lo, hi, hotFirst, func(e stream.Element) bool {
			more = fn(e)
			return more
		})
		if err != nil {
			return fmt.Errorf("storage: range scan of %s history: %w", t.name, err)
		}
		if !more {
			return nil
		}
	}
	for _, e := range hot {
		if !fn(e) {
			break
		}
	}
	return nil
}

// TimedRange is ForEachTimed collected into a slice of elements the
// caller owns.
func (t *Table) TimedRange(lo, hi stream.Timestamp) (out []stream.Element, err error) {
	err = t.ForEachTimed(lo, hi, func(e stream.Element) bool {
		out = append(out, e.Clone())
		return true
	})
	return out, err
}

// SetObserver installs (or with nil removes) the table's lifecycle
// observer. The current live contents are replayed into the observer as
// inserts under the same critical section, so the observer's state
// starts consistent with the window no matter when it is attached.
func (t *Table) SetObserver(o Observer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictLocked()
	t.observer = o
	if o == nil {
		return
	}
	o.OnTruncate()
	for i := t.head; i < len(t.elems); i++ {
		o.OnInsert(t.elems[i])
	}
}

// bulkLoad appends replayed elements in one critical section, applying
// window retention once at the end. CreateTable replay uses it instead
// of per-element Insert so an unpublished table is loaded without
// lock churn and without appending the rows back into the log.
func (t *Table) bulkLoad(elems []stream.Element) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range elems {
		t.elems = append(t.elems, e)
		t.inserted++
		t.seq++
		t.version++
		t.bytes += e.Size()
		if t.observer != nil {
			t.observer.OnInsert(e)
		}
	}
	t.evictLocked()
}

// enterDegradedLocked suspends durability after a tier fault and
// ensures the recovery loop is running. It reports false for errors
// that mean the table is shutting down (closed file), which stay hard
// errors rather than degradations.
func (t *Table) enterDegradedLocked(err error) bool {
	if err == nil || errors.Is(err, os.ErrClosed) {
		return false
	}
	if t.degradedErr == nil {
		t.degradedErr = err
	}
	t.startRecoveryLocked()
	return true
}

// startRecoveryLocked spawns the background recovery loop unless one is
// already running or the table has no loop configured (memory-only
// tables, RecoverInterval < 0).
func (t *Table) startRecoveryLocked() {
	if t.recovering || t.recoverStop == nil {
		return
	}
	t.recovering = true
	go t.recoveryLoop(t.recoverStop)
}

// recoveryLoop retries Recover with backoff until it succeeds or the
// table closes.
func (t *Table) recoveryLoop(stop chan struct{}) {
	defer func() {
		t.mu.Lock()
		t.recovering = false
		if t.degradedErr != nil {
			// Re-degraded between our success and this cleanup: hand
			// off to a fresh loop.
			t.startRecoveryLocked()
		}
		t.mu.Unlock()
	}()
	bo := resilience.NewBackoff(t.recoverBase, 50*t.recoverBase, int64(len(t.name)))
	for {
		select {
		case <-stop:
			return
		case <-time.After(bo.Next()):
		}
		if err := t.Recover(); err == nil || errors.Is(err, os.ErrClosed) {
			return
		}
	}
}

// Recover attempts to restore durability on a degraded table, returning
// nil when the table is healthy afterwards. The background loop calls
// it with backoff; tests call it directly for determinism. The
// procedure: re-arm the history tier (fall back to its last durable
// generation), reopen the WAL through the same torn-tail truncation a
// restart performs, re-migrate file records the fallen-back tier
// forgot, then re-append and flush the live window suffix past the
// durable boundary so acknowledged rows still in RAM become durable
// again.
func (t *Table) Recover() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recoverLocked()
}

func (t *Table) recoverLocked() error {
	if t.degradedErr == nil {
		return nil
	}
	if t.log == nil {
		return os.ErrClosed
	}
	if t.history != nil {
		if err := t.history.Recover(); err != nil {
			return err
		}
	}
	firstLive := t.seq - uint64(t.liveLenLocked()) + 1 // seq of the oldest window row
	var rep *logReplay
	var err error
	if t.log.Broken() != nil {
		rep, err = t.log.Reopen()
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			// The file itself vanished; recreate it continuing the
			// sequence space at the window start. Evicted records are
			// gone with it — the history tier keeps what it had.
			if err := t.log.Recreate(firstLive - 1); err != nil {
				return err
			}
		}
	} else {
		// Degradation came from the history tier alone: commit staged
		// records, then decode the file for re-migration.
		if err := t.log.Flush(); err != nil {
			return err
		}
		rep, err = t.log.replayFile()
		if err != nil {
			return err
		}
	}
	// Re-migrate records below the hot window into the history tier:
	// its fallback generation may predate evictions the WAL file still
	// covers (checkpoints only ever truncate the WAL up to a durable
	// generation, so the file is a superset of what any fallback
	// forgot). Append dedups by sequence number.
	if t.history != nil && rep != nil {
		for i, e := range rep.elems {
			seq := rep.base + 1 + uint64(i)
			if seq >= firstLive {
				break
			}
			if err := t.history.Append(e, seq); err != nil {
				return err
			}
		}
	}
	durable := t.log.CommittedSeq()
	if durable+1 < firstLive && t.history != nil {
		// Ordinal gap: rows in (durable, firstLive) were acknowledged
		// while durability was suspended and already evicted — they are
		// the loss DegradedAppends owns up to. The WAL numbers records
		// implicitly (base+index), so the file must be rebased at the
		// window start; checkpoint the tier first so dropping the old
		// prefix loses nothing it still covers.
		if err := t.history.Checkpoint(); err != nil {
			return err
		}
		if err := t.log.Recreate(firstLive - 1); err != nil {
			return err
		}
		durable = firstLive - 1
	}
	// Re-append the live rows past the durable boundary and commit
	// them: this is the moment suspended durability is restored for
	// everything still in RAM.
	live := t.elems[t.head:]
	skip := 0
	if durable >= firstLive {
		skip = int(durable - firstLive + 1)
	}
	if skip < len(live) {
		if err := t.log.AppendBatch(live[skip:]); err != nil {
			return err
		}
		if err := t.log.Flush(); err != nil {
			return err
		}
	}
	t.degradedErr = nil
	t.walReopens++
	if t.walReopenMetr != nil {
		t.walReopenMetr.Inc()
	}
	return nil
}

// Health reports whether durability is armed; when degraded, reason is
// the original fault.
func (t *Table) Health() (healthy bool, reason string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.degradedErr != nil {
		return false, t.degradedErr.Error()
	}
	return true, ""
}

// Stats returns activity counters.
func (t *Table) Stats() TableStats {
	var st TableStats
	var h *history
	t.readLocked(func() {
		h = t.history
		st = TableStats{
			Inserted:    t.inserted,
			Evicted:     t.evicted,
			Live:        t.liveLenLocked(),
			Bytes:       t.bytes,
			Replayed:    t.replayed,
			Checkpoints: t.checkpoints,
		}
		if t.log != nil {
			st.LogFlushes = t.log.Stats().Flushes
		}
		if t.degradedErr != nil {
			st.Degraded = true
			st.DegradedReason = t.degradedErr.Error()
		}
		st.DegradedAppends = t.degradedAppends
		st.WalReopens = t.walReopens
	})
	st.LogErrors = t.logErrors.Load()
	st.HistoryErrors = t.histErrors.Load()
	if h != nil {
		hs := h.Stats()
		st.History = &hs
	}
	return st
}

// Close releases the persistence log and history tier, if any. A
// history table checkpoints first so a clean shutdown leaves an empty
// WAL tail — the next open replays nothing.
func (t *Table) Close() error {
	t.mu.Lock()
	t.signal.Close()
	if t.recoverStop != nil {
		close(t.recoverStop)
		t.recoverStop = nil
	}
	var first error
	if t.history != nil && t.log != nil && t.degradedErr == nil {
		first = t.checkpointLocked()
	}
	log, history := t.log, t.history
	t.log, t.history = nil, nil
	t.mu.Unlock()
	// Closed outside the lock: Log.Close waits for the flusher, and a
	// flusher reporting a failed commit (OnError) takes t.mu.
	if log != nil {
		if err := log.Close(); err != nil && first == nil {
			first = err
		}
	}
	if history != nil {
		if err := history.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
