package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gsn/internal/stream"
)

// Store is the per-container table catalog. Table names are
// case-insensitive (SQL identifiers).
type Store struct {
	clock   stream.Clock
	dataDir string // persistence directory; empty disables persistence

	// logErrs, when set, is bumped for every WAL append/flush failure
	// in any of the store's tables (the container points it at its
	// storage_log_errors counter).
	logErrs Incrementer
	// walReopens, when set, is bumped every time a degraded table's
	// recovery re-arms its durability tiers (wal_reopens_total).
	walReopens Incrementer
	// histMetr, when set, receives page/pool/checkpoint accounting from
	// every history tier opened after the call (SetHistoryMetrics).
	histMetr *HistoryMetrics
	// fs is the filesystem tables open their files through (SetFS; the
	// default is the os). Only consulted at CreateTable.
	fs FS

	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore creates a store. clock may be nil for the system clock;
// dataDir, when non-empty, is created and used for permanent-storage
// table logs.
func NewStore(clock stream.Clock, dataDir string) (*Store, error) {
	if clock == nil {
		clock = stream.SystemClock()
	}
	if dataDir != "" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: creating data dir: %w", err)
		}
	}
	return &Store{clock: clock, dataDir: dataDir, fs: DefaultFS(), tables: make(map[string]*Table)}, nil
}

// TableOptions configures table creation.
type TableOptions struct {
	// Window is the retention window (required; use stream.ParseWindow).
	Window stream.Window
	// Permanent enables the append-only persistence log (descriptor
	// attribute permanent-storage="true"). Requires the store to have a
	// data directory.
	Permanent bool
	// Sync selects the WAL durability policy for a permanent table
	// (descriptor attribute sync="always|interval|none|durable"; default
	// SyncAlways).
	Sync SyncPolicy
	// FlushInterval tunes the SyncInterval group-commit period (zero
	// means DefaultFlushInterval).
	FlushInterval time.Duration
	// FlushBytes forces a flush when at least this much is staged (zero
	// means DefaultFlushBytes).
	FlushBytes int
	// History enables the on-disk history tier (descriptor attribute
	// history="disk"): elements evicted from the retention window are
	// migrated to paged storage with a B+tree time index instead of
	// being discarded, and checkpoints truncate the WAL head so restart
	// replays only the un-checkpointed tail. Requires Permanent.
	History bool
	// PoolPages bounds the history buffer pool (zero means
	// DefaultPoolPages frames).
	PoolPages int
	// CheckpointBytes triggers an automatic checkpoint when the WAL
	// tail exceeds it (zero means DefaultCheckpointBytes; negative
	// disables automatic checkpoints — tests drive them explicitly).
	CheckpointBytes int64
	// RecoverInterval is the base delay of the degraded table's
	// recovery backoff (zero means DefaultRecoverInterval; negative
	// disables the background loop — tests call Table.Recover
	// directly).
	RecoverInterval time.Duration
}

// CreateTable registers a new table. It fails if the name is taken.
// When Permanent is set and a previous log exists, its contents are
// replayed into the window before new inserts are accepted.
func (s *Store) CreateTable(name string, schema *stream.Schema, opts TableOptions) (*Table, error) {
	canonical := stream.CanonicalName(name)
	if canonical == "" {
		return nil, fmt.Errorf("storage: empty table name")
	}
	t, err := NewTable(canonical, schema, opts.Window, s.clock)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[canonical]; exists {
		return nil, fmt.Errorf("storage: table %s already exists", canonical)
	}

	if opts.History && !opts.Permanent {
		return nil, fmt.Errorf("storage: table %s wants disk history but not permanent storage", canonical)
	}
	if opts.Permanent {
		if s.dataDir == "" {
			return nil, fmt.Errorf("storage: table %s wants permanent storage but the store has no data directory", canonical)
		}
		path := filepath.Join(s.dataDir, canonical+".gsnlog")
		var rep *logReplay
		if _, err := s.fs.Stat(path); err == nil {
			rep, err = replayLogFile(s.fs, path)
			if err != nil {
				return nil, fmt.Errorf("storage: replaying %s: %w", path, err)
			}
			if !rep.schema.Equal(schema) {
				return nil, fmt.Errorf("storage: log %s schema %s does not match %s", path, rep.schema, schema)
			}
		}
		logOpts := LogOptions{
			Sync:          opts.Sync,
			FlushInterval: opts.FlushInterval,
			FlushBytes:    opts.FlushBytes,
			FS:            s.fs,
			// Background group-commit failures happen after Insert has
			// returned; count the loss and enter degraded mode so the
			// recovery loop can re-arm durability. The returned error
			// (table shutting down) has no producer left to go to.
			OnError: func(err error) { _ = t.commitFailed(err, 0) },
		}
		if opts.History {
			// The history tier opens before the replay is loaded: the
			// table's sequence counter continues from the WAL's base (the
			// checkpoint boundary), so replayed rows the window evicts
			// re-migrate with their original sequence numbers and the
			// tier's dedup drops the ones a checkpoint already covers.
			h, err := openHistory(s.fs, filepath.Join(s.dataDir, canonical+".gsnhist"),
				schema, opts.PoolPages, s.histMetr)
			if err != nil {
				return nil, err
			}
			t.history = h
			t.seq = h.DurableSeq()
			if rep != nil {
				t.seq = rep.base
			} else {
				// WAL file gone but the history holds records: the fresh
				// log must continue the sequence space, not restart it.
				logOpts.BaseSeq = h.DurableSeq()
			}
			switch {
			case opts.CheckpointBytes > 0:
				t.ckptBytes = opts.CheckpointBytes
			case opts.CheckpointBytes == 0:
				t.ckptBytes = DefaultCheckpointBytes
			}
		}
		if rep != nil {
			t.bulkLoad(rep.elems)
			t.replayed = len(rep.elems)
		}
		t.logErrMetr = s.logErrs
		t.walReopenMetr = s.walReopens
		switch {
		case opts.RecoverInterval > 0:
			t.recoverBase = opts.RecoverInterval
		case opts.RecoverInterval == 0:
			t.recoverBase = DefaultRecoverInterval
		}
		if t.recoverBase > 0 {
			t.recoverStop = make(chan struct{})
		}
		// openLog reuses the replay, so the file is decoded once.
		log, err := openLog(path, schema, logOpts, rep)
		if err != nil {
			if t.history != nil {
				t.history.Close()
			}
			return nil, err
		}
		t.log = log

		// Every open is a potential sequence-space discontinuity (a crash
		// may have lost tail records the WAL never made durable), so the
		// epoch advances past whatever the sidecar recorded. A corrupt or
		// unreadable sidecar falls back to a process-unique value — the
		// contract only needs inequality across discontinuities.
		epochPath := filepath.Join(s.dataDir, canonical+".gsnepoch")
		if prev, ok := loadEpoch(s.fs, epochPath); ok {
			t.epoch = prev + 1
		} else {
			t.epoch = nextMemoryEpoch()
		}
		t.epochPath = epochPath
		t.epochFS = s.fs
		_ = storeEpoch(s.fs, epochPath, t.epoch)
	}

	s.tables[canonical] = t
	return t, nil
}

// Table looks up a table by name.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[stream.CanonicalName(name)]
	return t, ok
}

// DropTable removes and closes a table. Dropping a missing table is an
// error so descriptor bugs surface early.
func (s *Store) DropTable(name string) error {
	canonical := stream.CanonicalName(name)
	s.mu.Lock()
	t, ok := s.tables[canonical]
	delete(s.tables, canonical)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: table %s does not exist", canonical)
	}
	return t.Close()
}

// DestroyTable removes and closes a table like DropTable and, for a
// table with a disk history tier, deletes its on-disk state (history
// and WAL files) so an undeployed sensor leaves no orphaned pages or
// index nodes behind. Tables without a history tier keep their WAL —
// the pre-history undeploy semantics, where a redeploy under the same
// name replays it.
func (s *Store) DestroyTable(name string) error {
	canonical := stream.CanonicalName(name)
	s.mu.Lock()
	t, ok := s.tables[canonical]
	delete(s.tables, canonical)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: table %s does not exist", canonical)
	}
	hadHistory := t.HasHistory()
	err := t.Close()
	if hadHistory && s.dataDir != "" {
		for _, suffix := range []string{".gsnhist", ".gsnlog", ".gsnlog.rewrite", ".gsnepoch"} {
			p := filepath.Join(s.dataDir, canonical+suffix)
			if rerr := s.fs.Remove(p); rerr != nil && !os.IsNotExist(rerr) && err == nil {
				err = rerr
			}
		}
	}
	return err
}

// List returns the table names in sorted order.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for name := range s.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close closes every table.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, t := range s.tables {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.tables, name)
	}
	return first
}

// Clock returns the store's clock (shared with its container).
func (s *Store) Clock() stream.Clock { return s.clock }

// SetLogErrorCounter points WAL failure accounting for tables created
// after this call at an external metrics counter (the container wires
// its storage_log_errors counter here before deploying sensors).
func (s *Store) SetLogErrorCounter(c Incrementer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logErrs = c
}

// SetHistoryMetrics points history-tier accounting (page reads/writes,
// pool hits/evictions, checkpoints) for tables created after this call
// at external metrics counters.
func (s *Store) SetHistoryMetrics(m *HistoryMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.histMetr = m
}

// SetWalReopenCounter points recovery accounting for tables created
// after this call at an external metrics counter (wal_reopens_total).
func (s *Store) SetWalReopenCounter(c Incrementer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walReopens = c
}

// SetFS swaps the filesystem tables created after this call open their
// files through — the fault-injection seam. It must be called before
// CreateTable; existing tables keep their filesystem.
func (s *Store) SetFS(fsys FS) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fsys == nil {
		fsys = DefaultFS()
	}
	s.fs = fsys
}
