package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/stream"
)

// logMagic identifies the original log format (version 1: records are
// length-prefixed full element encodings). Nothing has written it since
// the compact format landed; it is read-only — OpenLog replays such a
// file and rewrites it once as a compact log (upgradeV1), so the
// appender has one encoder and every log can checkpoint.
var logMagic = []byte("GSNLOG1\n")

// logMagicV2 identifies the compact-record format: a delta-encoded
// logical timestamp and no arrival/production stamps, roughly halving
// the bytes per small sensor tuple.
var logMagicV2 = []byte("GSNLOG2\n")

// logMagicV3 identifies the compact-record format with a header base:
// the absolute sequence number and timestamp the file's records
// continue from. Checkpoints (RewriteHead) produce v3 files — the log
// holds only the un-checkpointed tail, records below the base being
// durable in the table's history tier.
var logMagicV3 = []byte("GSNLOG3\n")

// encodeLogHeader builds a log file header: magic, schema and — when the
// file must continue a sequence space (base > 0, format v3) — the
// sequence number and timestamp of the record before its first one.
func encodeLogHeader(schema *stream.Schema, base uint64, baseTS stream.Timestamp) []byte {
	if base == 0 {
		return stream.EncodeSchema(append([]byte{}, logMagicV2...), schema)
	}
	hdr := stream.EncodeSchema(append([]byte{}, logMagicV3...), schema)
	hdr = binary.AppendUvarint(hdr, base)
	return binary.AppendVarint(hdr, int64(baseTS))
}

// SyncPolicy selects when staged WAL records are committed to the file.
// The four policies are two decisions over one write path: does the
// producer wait for the group commit covering its records before it is
// acknowledged (always, durable), and does that commit fdatasync
// (durable)? interval and none acknowledge on staging and differ only
// in who commits later: a background flusher, or byte thresholds and
// barriers. What each policy promises across a crash — acked ⇒ durable,
// visible-before-acked, ordering — is stated once, in
// docs/operations.md "Durability contract".
type SyncPolicy int

const (
	// SyncAlways acknowledges an append once a write syscall covering it
	// has returned: survives a process crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval stages records in memory and lets a background
	// flusher group-commit them every FlushInterval (or earlier when
	// FlushBytes accumulate). A crash can lose at most the last
	// interval's records.
	SyncInterval
	// SyncNone stages records and writes only when FlushBytes
	// accumulate or a barrier (Flush, Close) forces it.
	SyncNone
	// SyncDurable commits like SyncAlways and additionally fdatasyncs
	// the file, so an acked append survives OS/power failure, not just
	// process crash. The sync dominates commit latency (~100µs on
	// commodity disks), which is exactly where group commit pays:
	// every record staged behind the same commit shares one sync.
	SyncDurable
)

// String returns the descriptor spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	case SyncDurable:
		return "durable"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps descriptor strings to policies. The empty string
// is SyncAlways (the conservative default).
func ParseSyncPolicy(s string) (SyncPolicy, bool) {
	switch s {
	case "", "always":
		return SyncAlways, true
	case "interval":
		return SyncInterval, true
	case "none":
		return SyncNone, true
	case "durable":
		return SyncDurable, true
	default:
		return SyncAlways, false
	}
}

// Log durability tuning defaults. DefaultMaxStagedBytes bounds the
// staging buffer (raised to FlushBytes when that is larger): an
// appender that finds at least this much staged commits inline —
// backpressure that stops memory growing without bound when the disk
// cannot keep up with ingestion.
const (
	DefaultFlushInterval  = 5 * time.Millisecond
	DefaultFlushBytes     = 256 << 10
	DefaultMaxStagedBytes = 4 << 20
)

// LogOptions tunes a Log's group-commit behaviour.
type LogOptions struct {
	// Sync is the flush policy (default SyncAlways).
	Sync SyncPolicy
	// FlushInterval is the SyncInterval flusher period (default 5ms).
	FlushInterval time.Duration
	// FlushBytes forces a flush whenever at least this much is staged,
	// under every policy (default 256 KiB).
	FlushBytes int
	// OnError receives asynchronous flush failures (records that were
	// acknowledged to Append but could not be written). May be nil.
	// Called without internal locks held.
	OnError func(error)
	// BaseSeq, when creating a fresh file, is the absolute sequence
	// number the first record will follow (non-zero when a table's
	// history tier already holds records but the WAL file is gone).
	// A non-zero base makes the fresh file v3. Ignored for existing
	// files, which carry their own base.
	BaseSeq uint64
	// FS is the filesystem the log opens its file through (nil =
	// DefaultFS). Fault-injection tests swap in a FaultFS here.
	FS FS
}

func (o LogOptions) withDefaults() LogOptions {
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = DefaultFlushBytes
	}
	return o
}

// LogStats reports WAL activity.
type LogStats struct {
	// Appends counts records staged.
	Appends uint64
	// Flushes counts write syscalls issued.
	Flushes uint64
	// Buffered is the number of staged, unwritten bytes.
	Buffered int
}

// Log is an append-only element log backing "permanent-storage" tables,
// organised as a group-commit WAL: Stage encodes length-prefixed records
// into memory and numbers them, CommitThrough writes everything staged
// in one syscall, and the sync policy decides who calls it when (see
// SyncPolicy). Staging and writing use separate buffers (swapped under
// the staging lock), so a group commit in flight never blocks stagers:
// every producer that stages while a commit is on the disk rides the
// next one, sharing its write and its fdatasync. The file starts with a
// magic header and the binary-encoded schema, followed by the records.
type Log struct {
	f      File
	fs     FS
	path   string
	schema *stream.Schema
	hdrLen int64 // file offset of the first element record
	opts   LogOptions
	// The sync policy as the two decisions the write path makes.
	waitCommit bool // producers are acked only after their records commit
	fsync      bool // a commit fdatasyncs the file

	// mu guards the staging state only; it is never held across a
	// write syscall.
	mu      sync.Mutex
	buf     []byte           // staged records, not yet written
	shadow  []byte           // spare buffer, swapped in by commit
	lastTS  stream.Timestamp // previous staged timestamp (v2 deltas)
	appends uint64
	flushes uint64
	closed  bool
	// dirty mirrors len(buf) > 0 (written under mu, read without it):
	// the flusher's idle ticks check it and skip the lock round-trip
	// entirely, so a log with nothing staged costs nothing — appenders
	// never wake the flusher below FlushBytes and the timer's wakeups
	// are no-ops until something is staged.
	dirty atomic.Bool
	// base is the absolute sequence number of the record before the
	// file's first one (0 except for v3 files); recs and committed
	// count the records staged/durably committed beyond it, so
	// base+recs is the number Stage hands out and base+committed the
	// durable sequence boundary — what CommitThrough compares against
	// and what a checkpoint may truncate up to. tailBytes tracks the
	// record bytes in file plus staging, the checkpoint trigger's size
	// estimate.
	base      uint64
	recs      uint64
	committed uint64
	tailBytes int64
	// leading is set while a group commit is in flight; commitDone
	// (on mu) is broadcast when it finishes. See CommitThrough.
	leading    bool
	commitDone sync.Cond
	// broken poisons the log after a failed commit: the file may end in
	// a torn group and the v2 delta chain no longer matches what was
	// staged, so appending anything further would write records that
	// replay with silently wrong timestamps behind bytes the replayer
	// can never pass. Every later Stage/Flush fails with this error;
	// Reopen and Recreate (attach) clear it, as the next OpenLog would:
	// by truncating the torn tail and resuming from the clean prefix.
	broken error

	// writeMu serializes commits so swapped-out groups reach the file
	// in staging order. off (guarded by writeMu) is the end of the last
	// fully-committed group: a failed commit truncates back to it so a
	// partially-written group cannot resurrect records whose append was
	// reported failed.
	writeMu sync.Mutex
	off     int64

	kick        chan struct{} // wakes the flusher before its tick
	flusherStop chan struct{}
	flusherDone chan struct{}
}

// OpenLog opens (or creates) the log at path for appending. If the file
// already exists its header must match the given schema. A SyncInterval
// log starts its background flusher immediately; Close stops it.
func OpenLog(path string, schema *stream.Schema, opts LogOptions) (*Log, error) {
	return openLog(path, schema, opts, nil)
}

// openLog is OpenLog with an optionally pre-computed replay, so a
// caller that already decoded the file to load the window (CreateTable)
// does not pay for a second full scan.
func openLog(path string, schema *stream.Schema, opts LogOptions, rep *logReplay) (*Log, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if fsys == nil {
		fsys = DefaultFS()
	}
	if rep == nil {
		if info, err := fsys.Stat(path); err == nil && info.Size() > 0 {
			if rep, err = replayLogFile(fsys, path); err != nil {
				return nil, err
			}
		}
	}
	if rep != nil {
		if !rep.schema.Equal(schema) {
			return nil, fmt.Errorf("storage: log %s has schema %s, table wants %s", path, rep.schema, schema)
		}
		if rep.version == 1 {
			if err := upgradeV1(fsys, path, rep); err != nil {
				return nil, fmt.Errorf("storage: upgrading v1 log %s: %w", path, err)
			}
		}
	}
	l := &Log{fs: fsys, path: path, schema: schema, opts: opts,
		waitCommit: opts.Sync == SyncAlways || opts.Sync == SyncDurable,
		fsync:      opts.Sync == SyncDurable}
	l.commitDone.L = &l.mu
	if err := l.attach(rep, opts.BaseSeq); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.kick = make(chan struct{}, 1)
		l.flusherStop = make(chan struct{})
		l.flusherDone = make(chan struct{})
		go l.flusher(l.flusherStop, l.flusherDone)
	}
	return l, nil
}

// attach points the log at its file and resets the in-memory state to
// match it — at open, and whenever recovery or a truncate replaces what
// the file holds (the caller then holds writeMu). With a replay the
// existing file is opened and any torn tail dropped, so new records
// extend the clean prefix (and its delta chain) instead of hiding
// behind bytes the replayer can never pass. With rep nil the file is
// (re)created empty, its sequence space continuing at baseSeq. Staged
// records are discarded and a poisoned log becomes usable again; on
// error the log is left as it was.
func (l *Log) attach(rep *logReplay, baseSeq uint64) error {
	flag := os.O_RDWR
	if rep == nil {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := l.fs.OpenFile(l.path, flag, 0o644)
	if err != nil {
		return err
	}
	var end int64
	if rep == nil {
		hdr := encodeLogHeader(l.schema, baseSeq, 0)
		rep = &logReplay{hdrLen: int64(len(hdr)), base: baseSeq}
		end = rep.hdrLen
		_, err = f.Write(hdr)
	} else {
		var info fs.FileInfo
		if info, err = f.Stat(); err == nil && rep.clean < info.Size() {
			err = f.Truncate(rep.clean)
		}
		if err == nil {
			end, err = f.Seek(0, io.SeekEnd)
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	if l.f != nil {
		l.f.Close() // the replaced, possibly poisoned handle; its close error is moot
	}
	l.f, l.off = f, end
	l.mu.Lock()
	l.buf = l.buf[:0]
	l.dirty.Store(false)
	l.lastTS = rep.baseTS
	if n := len(rep.elems); n > 0 {
		l.lastTS = rep.elems[n-1].Timestamp()
	}
	l.hdrLen = rep.hdrLen
	l.base = rep.base
	l.recs = uint64(len(rep.elems))
	l.committed = l.recs
	l.tailBytes = end - rep.hdrLen
	l.broken = nil
	l.mu.Unlock()
	return nil
}

// flusher is the SyncInterval group-commit loop: it wakes every
// FlushInterval — or immediately when a stager crosses the byte
// threshold — and commits whatever has been staged since the last
// wake-up in one syscall. An idle tick (nothing staged since the last
// commit) returns without touching the staging or write locks, so the
// flusher never contends with stagers it has nothing to do for.
func (l *Log) flusher(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(l.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if !l.dirty.Load() {
				continue
			}
		case <-l.kick:
		}
		if err := l.CommitThrough(allStaged); err != nil {
			// The commit has already poisoned the log; report the
			// acknowledged-but-lost records.
			if cb := l.opts.OnError; cb != nil {
				cb(err)
			}
		}
	}
}

// allStaged, as CommitThrough's argument, forces out everything staged:
// no committed boundary ever reaches it.
const allStaged = ^uint64(0)

// CommitThrough returns once every record numbered <= seq (a number
// Stage returned) is committed to the file — and fdatasynced, under
// SyncDurable. One commit is in flight at a time and whoever runs it is
// the group's leader; a producer that arrives meanwhile follows: it
// waits for the leader to finish and returns at once if the group
// covered its number (followers wait on a condition, not on writeMu —
// queueing for a mutex just to learn "already done" lets the leader
// barge back in with a group of one). Otherwise it leads the next
// commit, which takes everything staged while the last one was on the
// disk. The poison is checked before the boundary: on a log whose tail
// state is unknown (see Log.broken) a follower of the failed group —
// and anyone after it — gets the error, never an ack.
func (l *Log) CommitThrough(seq uint64) error {
	l.mu.Lock()
	for l.leading && l.broken == nil && l.base+l.committed < seq {
		l.commitDone.Wait()
	}
	if l.broken == nil && l.base+l.committed >= seq {
		l.mu.Unlock()
		return nil
	}
	l.leading = true
	l.mu.Unlock()
	return l.lead()
}

// lead runs one group commit: it swaps the staged group out from under
// the stagers and writes it with no staging lock held. Commits are
// serialized on writeMu, so groups reach the file in staging order. A
// failed write or sync poisons the log. Entered with l.leading set;
// clears it and wakes the followers on every path.
func (l *Log) lead() error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.mu.Lock()
	l.dirty.Store(false)
	if l.broken != nil || len(l.buf) == 0 {
		err := l.broken
		l.buf = l.buf[:0] // records behind a tear can never replay
		l.leading = false
		l.commitDone.Broadcast()
		l.mu.Unlock()
		return err
	}
	buf := l.buf
	l.buf = l.shadow[:0]
	staged := l.recs // records staged so far = records durable if this write lands
	l.mu.Unlock()
	_, err := l.f.Write(buf)
	if err != nil {
		// Best effort: cut any partially-written group back off the
		// file, so records whose append was reported failed cannot
		// replay. Poisoning below covers the case where even this
		// fails.
		if l.f.Truncate(l.off) == nil {
			l.f.Seek(l.off, io.SeekStart)
		}
	} else {
		l.off += int64(len(buf))
		if l.fsync {
			// A failed sync leaves durability unknown: poison the log
			// below, but keep the written bytes — they still replay
			// after a plain process crash.
			err = l.f.Sync()
		}
	}
	l.mu.Lock()
	l.shadow = buf[:0] // recycle the group's capacity
	l.flushes++
	if err != nil {
		l.broken = fmt.Errorf("storage: log poisoned by failed group commit: %w", err)
		err = l.broken
	} else {
		l.committed = staged
	}
	l.leading = false
	l.commitDone.Broadcast()
	l.mu.Unlock()
	return err
}

// encodeScratch pools the per-call record-encode buffers, so staging
// from many goroutines (concurrent inserts, recovery re-appends) reuses
// encode scratch instead of growing a per-log buffer under the staging
// lock or allocating per batch.
var encodeScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// appendRecord appends e to dst as one length-prefixed compact record
// whose timestamp delta continues from prev, encoding through the
// caller's scratch.
func appendRecord(dst []byte, scratch *[]byte, e stream.Element, prev stream.Timestamp) []byte {
	s := stream.EncodeElementCompact((*scratch)[:0], e, prev)
	*scratch = s
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Stage encodes the records into the staging buffer — memory only, so a
// table can call it under its own lock — and returns the sequence
// number of the last one together with what the sync policy asks of the
// caller: wait reports that the caller must CommitThrough(seq) before
// acknowledging. That is every call under SyncAlways/SyncDurable;
// otherwise only backpressure — staging has reached DefaultMaxStagedBytes, or
// FlushBytes with no flusher to wake — so memory cannot grow without
// bound when the disk cannot keep up. An error means nothing was staged.
func (l *Log) Stage(elems []stream.Element) (seq uint64, wait bool, err error) {
	scratch := encodeScratch.Get().(*[]byte)
	defer encodeScratch.Put(scratch)
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return 0, false, err
	}
	before := len(l.buf)
	for _, e := range elems {
		l.buf = appendRecord(l.buf, scratch, e, l.lastTS)
		l.lastTS = e.Timestamp()
	}
	n := uint64(len(elems))
	l.appends += n
	l.recs += n
	l.dirty.Store(true)
	staged := len(l.buf)
	l.tailBytes += int64(staged - before)
	seq = l.base + l.recs
	l.mu.Unlock()
	switch {
	case l.waitCommit || staged >= max(DefaultMaxStagedBytes, l.opts.FlushBytes):
		wait = true
	case staged >= l.opts.FlushBytes:
		if l.kick == nil {
			wait = true // SyncNone: the stager bounds staged memory itself
			break
		}
		// SyncInterval: wake the flusher early; the stager does not pay
		// for the write.
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return seq, wait, nil
}

// AppendBatch is Stage plus whatever commit the sync policy asks for,
// for callers with no lock of their own to release in between. A
// returned error means the records are not and will never be durable.
func (l *Log) AppendBatch(elems []stream.Element) error {
	seq, wait, err := l.Stage(elems)
	if err != nil || !wait {
		return err
	}
	return l.CommitThrough(seq)
}

// usableLocked reports whether the log can accept records.
func (l *Log) usableLocked() error {
	if l.closed {
		return os.ErrClosed
	}
	return l.broken
}

// Flush is the group-commit barrier: it forces every staged record out
// to the file. Close implies it; tests and checkpoints call it
// directly.
func (l *Log) Flush() error {
	l.mu.Lock()
	err := l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.CommitThrough(allStaged)
}

// CommittedSeq returns the absolute sequence number of the last record
// durably committed to the file: the boundary a checkpoint may
// truncate the head up to (staged records beyond it exist only in
// memory).
func (l *Log) CommittedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + l.committed
}

// TailBytes estimates the bytes of record data the log holds (file
// plus staging) since its base — the un-checkpointed tail size that
// drives the auto-checkpoint trigger.
func (l *Log) TailBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailBytes
}

// RewriteHead drops every committed record with absolute sequence
// number <= keep by rewriting the file as a v3 log whose header base
// is the new boundary, atomically (temp file + rename). keep is
// clamped to the committed boundary: a checkpoint can never truncate
// past the last durably flushed group, so records staged but not yet
// committed — and groups a crash may yet tear — always survive in
// full. The retained suffix is copied byte-for-byte: its first
// record's timestamp delta is relative to the last dropped record,
// whose timestamp becomes the header's base timestamp.
func (l *Log) RewriteHead(keep uint64) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return os.ErrClosed
	}
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return err
	}
	base, committed := l.base, l.committed
	l.mu.Unlock()
	if keep > base+committed {
		keep = base + committed
	}
	if keep <= base {
		return nil
	}
	drop := keep - base

	// Decode the dropped prefix to find where the retained suffix
	// starts and the timestamp its delta chain continues from.
	rf, err := l.fs.Open(l.path)
	if err != nil {
		return err
	}
	hdr, err := readLogHeader(rf)
	if err != nil {
		rf.Close()
		return err
	}
	rr := recordReader{r: bufio.NewReader(rf), schema: l.schema, version: hdr.version,
		vals: make([]stream.Value, 0, l.schema.Len())}
	prev := hdr.baseTS
	off := hdr.len
	for i := uint64(0); i < drop; i++ {
		e, n, err := rr.next(prev)
		if err != nil {
			rf.Close()
			return fmt.Errorf("storage: log %s: decoding record %d for head truncation: %w", l.path, i, err)
		}
		prev = e.Timestamp()
		off += int64(n)
	}

	nh := encodeLogHeader(l.schema, keep, prev)
	err = replaceLogFile(l.fs, l.path, func(w File) error {
		if _, err := w.Write(nh); err != nil {
			return err
		}
		if _, err := rf.Seek(off, io.SeekStart); err != nil {
			return err
		}
		_, err := io.Copy(w, rf)
		return err
	})
	rf.Close()
	if err != nil {
		return err
	}

	// The rename replaced the inode under the open handle; swap to a
	// handle on the new file before any further commit.
	nf, err := l.fs.OpenFile(l.path, os.O_RDWR, 0o644)
	var end int64
	if err == nil {
		end, err = nf.Seek(0, io.SeekEnd)
		if err != nil {
			nf.Close()
		}
	}
	if err != nil {
		l.mu.Lock()
		l.broken = fmt.Errorf("storage: log poisoned by failed head truncation reopen: %w", err)
		err = l.broken
		l.mu.Unlock()
		return err
	}
	old := l.f
	l.f = nf
	l.off = end
	old.Close()
	l.mu.Lock()
	l.base = keep
	l.recs -= drop
	l.committed -= drop
	l.hdrLen = int64(len(nh))
	l.tailBytes -= off - hdr.len
	l.mu.Unlock()
	return nil
}

// replaceLogFile atomically replaces the log at path with whatever fill
// writes: a temp file beside it, renamed over it on success and removed
// on failure, so a crash at any point leaves either the old file or the
// new one.
func replaceLogFile(fsys FS, path string, fill func(w File) error) error {
	tmp := path + ".rewrite"
	w, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = fill(w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// upgradeV1 rewrites a replayed v1 log as a compact log holding the
// same records and updates rep to describe the new file. The one-shot
// migration syncs before the rename: unlike a checkpoint's rewrite,
// nothing else holds these records.
func upgradeV1(fsys FS, path string, rep *logReplay) error {
	buf := encodeLogHeader(rep.schema, 0, 0)
	hdrLen := int64(len(buf))
	var scratch []byte
	var prev stream.Timestamp
	for _, e := range rep.elems {
		buf = appendRecord(buf, &scratch, e, prev)
		prev = e.Timestamp()
	}
	err := replaceLogFile(fsys, path, func(w File) error {
		if _, err := w.Write(buf); err != nil {
			return err
		}
		return w.Sync()
	})
	if err != nil {
		return err
	}
	rep.version, rep.hdrLen, rep.clean = 2, hdrLen, int64(len(buf))
	return nil
}

// Stats reports WAL activity counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{Appends: l.appends, Flushes: l.flushes, Buffered: len(l.buf)}
}

// Close stops the flusher, commits the staged tail and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true // new appends fail from here on
	stop, done := l.flusherStop, l.flusherDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	flushErr := l.CommitThrough(allStaged)
	if err := l.f.Close(); err != nil && flushErr == nil {
		flushErr = err
	}
	return flushErr
}

// replayFile decodes the file's current clean contents without touching
// the log's state (recovery reads the records a fallen-back history
// tier needs re-migrated). Holding writeMu keeps commits from moving
// the file under the read.
func (l *Log) replayFile() (*logReplay, error) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	return replayLogFile(l.fs, l.path)
}

// Broken returns the poison error, nil for a healthy log.
func (l *Log) Broken() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Reopen discards poisoned state by re-reading the file: the clean
// record prefix is decoded, any torn tail is truncated (the same
// recovery OpenLog performs after a crash) and a fresh handle replaces
// the dead one. Records that were staged but never committed are
// dropped — the caller (Table recovery) re-appends what the window
// still holds. On success the poison clears and the decoded replay is
// returned; rep.base + len(rep.elems) is the durable boundary.
func (l *Log) Reopen() (*logReplay, error) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if l.isClosed() {
		return nil, os.ErrClosed
	}
	rep, err := replayLogFile(l.fs, l.path)
	if err != nil {
		return nil, err
	}
	if !rep.schema.Equal(l.schema) {
		return nil, fmt.Errorf("storage: log %s changed schema across reopen", l.path)
	}
	return rep, l.attach(rep, 0)
}

// Recreate replaces the file with a fresh, empty log whose sequence
// space continues at baseSeq, discarding every record, staged and
// written. Truncate uses it (baseSeq 0) so a truncated table's log
// cannot resurrect rows on the next replay; recovery uses it when the
// file is gone or its prefix can no longer be trusted to line up with
// the table's implicit record numbering, and re-appends the live window
// afterwards. Holding writeMu waits out any in-flight group commit.
func (l *Log) Recreate(baseSeq uint64) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if l.isClosed() {
		return os.ErrClosed
	}
	return l.attach(nil, baseSeq)
}

func (l *Log) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// maxRecordLen bounds decoded record sizes to guard against a corrupt
// length prefix.
const maxRecordLen = 64 << 20

// logHeader is the decoded fixed prefix of a log file.
type logHeader struct {
	schema  *stream.Schema
	len     int64 // file offset of the first record
	version int
	// base and baseTS are the absolute sequence number and timestamp of
	// the (checkpointed, dropped) record immediately before the file's
	// first one. Zero except for v3 files.
	base   uint64
	baseTS stream.Timestamp
}

// readLogHeader validates the magic and decodes the schema (plus, for
// v3, the sequence/timestamp base), leaving the read position at the
// first record. It takes an io.ReadSeeker so tests can exercise
// short-read behaviour with wrapped readers.
func readLogHeader(f io.ReadSeeker) (logHeader, error) {
	var h logHeader
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return h, err
	}
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return h, fmt.Errorf("storage: reading log header: %w", err)
	}
	switch string(magic) {
	case string(logMagic):
		h.version = 1
	case string(logMagicV2):
		h.version = 2
	case string(logMagicV3):
		h.version = 3
	default:
		return h, fmt.Errorf("storage: not a GSN log file")
	}
	// The schema is small; fill a bounded prefix to decode it. A single
	// Read may legally return fewer bytes than available, so keep
	// reading until the buffer is full or the file ends — a short read
	// must not truncate the schema mid-field.
	buf := make([]byte, 64*1024)
	n := 0
	for n < len(buf) {
		m, err := f.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return h, err
		}
	}
	schema, consumed, err := stream.DecodeSchema(buf[:n])
	if err != nil {
		return h, fmt.Errorf("storage: decoding log schema: %w", err)
	}
	h.schema = schema
	if h.version == 3 {
		base, bn := binary.Uvarint(buf[consumed:n])
		if bn <= 0 {
			return h, fmt.Errorf("storage: decoding log base sequence")
		}
		consumed += bn
		ts, tn := binary.Varint(buf[consumed:n])
		if tn <= 0 {
			return h, fmt.Errorf("storage: decoding log base timestamp")
		}
		consumed += tn
		h.base = base
		h.baseTS = stream.Timestamp(ts)
	}
	h.len = int64(len(magic) + consumed)
	if _, err := f.Seek(h.len, io.SeekStart); err != nil {
		return h, err
	}
	return h, nil
}

// recordReader reads length-prefixed records in one format into one
// reused record buffer, so a pass over a log allocates only what the
// elements it returns keep. With vals non-nil the values decode into
// that one slice too: each element is then valid only until the next
// read, which suits a pass that needs just timestamps and offsets.
type recordReader struct {
	r       *bufio.Reader
	schema  *stream.Schema
	version int
	rec     []byte
	vals    []stream.Value
}

// next reads one record, returning the element and the record's total
// encoded size.
func (rr *recordReader) next(prev stream.Timestamp) (stream.Element, int, error) {
	size, err := binary.ReadUvarint(rr.r)
	if err != nil {
		return stream.Element{}, 0, err
	}
	if size > maxRecordLen {
		return stream.Element{}, 0, fmt.Errorf("storage: record of %d bytes exceeds limit", size)
	}
	if uint64(cap(rr.rec)) < size {
		rr.rec = make([]byte, size)
	}
	buf := rr.rec[:size]
	if _, err := io.ReadFull(rr.r, buf); err != nil {
		return stream.Element{}, 0, err
	}
	var e stream.Element
	if rr.version >= 2 {
		e, _, err = stream.DecodeElementCompactInto(rr.schema, buf, prev, rr.vals)
	} else {
		e, _, err = stream.DecodeElement(rr.schema, buf)
	}
	if err != nil {
		return stream.Element{}, 0, err
	}
	return e, uvarintLen(size) + int(size), nil
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// logReplay is the decoded state of an existing log file.
type logReplay struct {
	schema  *stream.Schema
	elems   []stream.Element // the clean record prefix
	hdrLen  int64            // offset of the first record
	clean   int64            // offset where the clean prefix ends
	version int              // record format
	base    uint64           // absolute seq of the record before elems[0]
	baseTS  stream.Timestamp // timestamp elems[0]'s delta continues from
}

// replayLogFile decodes the log at path. Corrupt trailing records — a
// torn single append or the partial tail of a group commit cut short
// by a crash — terminate the replay without error, leaving clean at
// the last decodable offset.
func replayLogFile(fsys FS, path string) (*logReplay, error) {
	if fsys == nil {
		fsys = DefaultFS()
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr, err := readLogHeader(f)
	if err != nil {
		return nil, err
	}
	rep := &logReplay{schema: hdr.schema, hdrLen: hdr.len, clean: hdr.len,
		version: hdr.version, base: hdr.base, baseTS: hdr.baseTS}
	rr := recordReader{r: bufio.NewReader(f), schema: hdr.schema, version: hdr.version}
	prev := hdr.baseTS
	for {
		e, n, err := rr.next(prev)
		if err != nil {
			// EOF or torn tail: keep the clean prefix.
			return rep, nil
		}
		prev = e.Timestamp()
		rep.elems = append(rep.elems, e)
		rep.clean += int64(n)
	}
}

// ReplayLog reads every cleanly-decodable element from the log at path
// (either record format).
func ReplayLog(path string) (*stream.Schema, []stream.Element, error) {
	rep, err := replayLogFile(nil, path)
	if err != nil {
		return nil, nil, err
	}
	return rep.schema, rep.elems, nil
}
