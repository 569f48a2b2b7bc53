package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"gsn/internal/stream"
)

// history is the on-disk tier of a two-tier table: elements the
// retention window evicts are appended to slotted data pages in the
// table's .gsnhist file and indexed by a B+tree on (timed, seq), both
// cached through a small buffer pool. The in-RAM window stays the hot
// tier — continuous queries and incremental maintainers never touch
// this code — while timed-range queries merge the two tiers
// (Table.ForEachTimed).
//
// # Crash consistency
//
// The file's durable root is a ping-pong meta pair (pages 0 and 1,
// page.go): a checkpoint flushes every dirty page and then writes meta
// generation g to slot g%2, so a torn meta write leaves generation g-1
// intact. Between checkpoints, mutations follow a copy-on-write rule:
// a page the durable generation references is never written in place —
// B+tree nodes relocate to freshly allocated pages on their first
// modification of the epoch (btree.go), and data pages are only ever
// appended to a tail page allocated this epoch (checkpoints seal the
// tail, so a sealed data page never changes again and btRef pointers
// into it stay valid forever). Any LRU write-back order is therefore
// crash-safe: pages reachable from the durable meta are immutable
// until the next generation commits. Page ids freed by relocation
// re-enter the allocatable free list only after the meta generation
// that no longer references them is on disk.
//
// Records above meta.lastSeq are not durable here — they are exactly
// the WAL tail the next open replays and re-migrates; Append
// deduplicates by sequence number, so replaying a longer tail than
// necessary is harmless.
type history struct {
	path   string
	f      File
	schema *stream.Schema
	pool   *bufferPool

	// mu orders appends/checkpoints (write) against range scans
	// (read). Lock order: Table.mu → history.mu → pool.mu.
	mu sync.RWMutex

	root   pageID
	tail   pageID // unsealed data page accepting appends (0 = none)
	npages uint32 // high-water page allocation mark
	gen    uint64 // last durable meta generation

	lastSeq     uint64 // highest appended seq (including un-checkpointed)
	durableSeq  uint64 // meta.lastSeq of the last durable generation
	count       uint64 // records appended (including un-checkpointed)
	checkpoints uint64

	free        []pageID            // allocatable now
	pendingFree []pageID            // allocatable after the next checkpoint
	epochAlloc  map[pageID]struct{} // pages allocated since the last checkpoint
	leakedPages uint64              // free ids dropped to meta free-list overflow

	scratch []byte

	// broken poisons the tier after a page-level I/O error: the index
	// may no longer cover every migrated record, so serving a range
	// scan could silently omit rows. Appends and scans fail until the
	// table is truncated or reopened.
	broken error

	metr *HistoryMetrics
}

// HistoryStats reports disk-tier activity for one table.
type HistoryStats struct {
	// Rows is the number of records in the tier (hot-window rows not
	// yet evicted are not counted).
	Rows uint64
	// DurableRows is the number of records covered by the last
	// checkpoint.
	DurableRows uint64
	// Pages is the high-water page allocation count (× pageSize bytes
	// of file).
	Pages uint32
	// Checkpoints counts meta generations written by this process.
	Checkpoints uint64
	// PoolHits/PoolMisses/PoolEvictions/PagesWritten are buffer-pool
	// counters; PoolMisses equals pages read from disk.
	PoolHits, PoolMisses, PoolEvictions, PagesWritten uint64
}

// openHistory opens (or initialises) the history file at path. The
// newest valid meta generation becomes the durable root; pages beyond
// it — allocated during an epoch that never checkpointed — are garbage
// that later allocations overwrite.
func openHistory(fsys FS, path string, schema *stream.Schema, poolPages int, metr *HistoryMetrics) (*history, error) {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	if metr == nil {
		metr = &HistoryMetrics{}
	}
	if fsys == nil {
		fsys = DefaultFS()
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	h := &history{
		path:       path,
		f:          f,
		schema:     schema,
		pool:       newBufferPool(f, poolPages, metr),
		epochAlloc: make(map[pageID]struct{}),
		metr:       metr,
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size() == 0 {
		if err := h.initMeta(); err != nil {
			f.Close()
			return nil, err
		}
		return h, nil
	}
	m, err := readBestMeta(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	h.gen = m.gen
	h.root = m.root
	h.npages = m.npages
	h.lastSeq = m.lastSeq
	h.durableSeq = m.lastSeq
	h.count = m.count
	h.free = m.free
	return h, nil
}

// readBestMeta returns the valid meta slot with the highest generation.
func readBestMeta(f File, path string) (histMeta, error) {
	var best histMeta
	found := false
	buf := make([]byte, pageSize)
	for slot := int64(0); slot < 2; slot++ {
		if _, err := f.ReadAt(buf, slot*pageSize); err != nil {
			continue
		}
		if m, ok := decodeMeta(buf); ok && (!found || m.gen > best.gen) {
			best, found = m, true
		}
	}
	if !found {
		return best, fmt.Errorf("storage: history file %s has no valid meta page", path)
	}
	return best, nil
}

// initMeta writes generation 1 into slot 1 of a fresh file.
func (h *history) initMeta() error {
	h.gen = 1
	h.npages = 2
	buf := make([]byte, pageSize)
	// Slot 0 stays zero (invalid); slot 1 carries the first generation.
	if _, err := h.f.WriteAt(buf, 0); err != nil {
		return err
	}
	encodeMeta(buf, histMeta{gen: h.gen, npages: h.npages})
	_, err := h.f.WriteAt(buf, pageSize)
	return err
}

// allocPage hands out a page id, preferring the free list. Called with
// the history write lock held.
func (h *history) allocPage() pageID {
	var pid pageID
	if n := len(h.free); n > 0 {
		pid = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		pid = h.npages
		h.npages++
	}
	h.epochAlloc[pid] = struct{}{}
	return pid
}

// Append migrates one evicted element into the tier. Replays re-offer
// records the tier already has; seq deduplicates them.
func (h *history) Append(e stream.Element, seq uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.broken != nil {
		return h.broken
	}
	if seq <= h.lastSeq {
		return nil
	}
	// Record: seq (uvarint) + compact element with an absolute
	// timestamp (prev=0) so pages decode standalone.
	h.scratch = binary.AppendUvarint(h.scratch[:0], seq)
	h.scratch = stream.EncodeElementCompact(h.scratch, e, 0)
	if len(h.scratch) > pageSize-dataHdrLen-2 {
		return fmt.Errorf("storage: history record of %d bytes exceeds page capacity", len(h.scratch))
	}

	ref, err := h.appendRecord(h.scratch)
	if err != nil {
		h.broken = fmt.Errorf("storage: history tier disabled: %w", err)
		return h.broken
	}
	if err := h.btInsert(btKey{timed: int64(e.Timestamp()), seq: seq}, ref); err != nil {
		h.broken = fmt.Errorf("storage: history tier disabled: %w", err)
		return h.broken
	}
	h.lastSeq = seq
	h.count++
	return nil
}

// appendRecord places rec on the tail data page, starting a new page
// when the tail is missing, sealed or full.
func (h *history) appendRecord(rec []byte) (btRef, error) {
	if h.tail != noPage {
		fr, err := h.pool.get(h.tail)
		if err != nil {
			return btRef{}, err
		}
		if slot, ok := dataPageAppend(fr.data, rec); ok {
			h.pool.unpin(fr, true)
			return btRef{page: h.tail, slot: slot}, nil
		}
		h.pool.unpin(fr, false)
	}
	pid := h.allocPage()
	fr, err := h.pool.alloc(pid)
	if err != nil {
		return btRef{}, err
	}
	dataPageInit(fr.data)
	slot, ok := dataPageAppend(fr.data, rec)
	h.pool.unpin(fr, true)
	if !ok {
		return btRef{}, fmt.Errorf("storage: record does not fit an empty page")
	}
	h.tail = pid
	return btRef{page: pid, slot: slot}, nil
}

// Checkpoint makes every appended record durable: flush dirty pages,
// then commit a new meta generation. The tail data page is sealed —
// nothing will ever write to it again — so data pages reachable from
// any durable generation are immutable, and ids freed by node
// relocation become allocatable only now that the generation that
// dropped them is on disk.
func (h *history) Checkpoint() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.checkpointLocked()
}

func (h *history) checkpointLocked() error {
	if h.broken != nil {
		return h.broken
	}
	if err := h.pool.flushAll(); err != nil {
		h.broken = fmt.Errorf("storage: history tier disabled: %w", err)
		return h.broken
	}
	// Page data must be on the platter before the meta generation that
	// references it — without this barrier a power loss could persist
	// the meta but not the pages it points at. The WAL's sync policies
	// deliberately stay fsync-free ("survives process death"); the
	// checkpoint is where the history tier promises more.
	if err := h.f.Sync(); err != nil {
		h.broken = fmt.Errorf("storage: history tier disabled: %w", err)
		return h.broken
	}
	h.tail = noPage
	free := append(h.free, h.pendingFree...)
	if len(free) > maxMetaFree {
		h.leakedPages += uint64(len(free) - maxMetaFree)
		free = free[:maxMetaFree]
	}
	buf := make([]byte, pageSize)
	m := histMeta{
		gen:     h.gen + 1,
		root:    h.root,
		npages:  h.npages,
		lastSeq: h.lastSeq,
		count:   h.count,
		free:    free,
	}
	encodeMeta(buf, m)
	if _, err := h.f.WriteAt(buf, int64(m.gen%2)*pageSize); err != nil {
		h.broken = fmt.Errorf("storage: history tier disabled: %w", err)
		return h.broken
	}
	if err := h.f.Sync(); err != nil {
		h.broken = fmt.Errorf("storage: history tier disabled: %w", err)
		return h.broken
	}
	h.gen = m.gen
	h.durableSeq = h.lastSeq
	h.free = free
	h.pendingFree = h.pendingFree[:0]
	h.epochAlloc = make(map[pageID]struct{})
	h.checkpoints++
	h.metr.inc(h.metr.Checkpoints)
	return nil
}

// Range hands fn the records with lo <= timed <= hi and seq < maxSeqExcl
// (the caller passes the oldest hot-window sequence so a record is
// never served from both tiers), ordered by seq — i.e. arrival order,
// matching a hot-window scan — until fn returns false. Records are
// decoded one at a time into one value buffer, so a long interval costs
// its index entries, not its rows, and fn's element is valid only
// during the call. Consecutive records mostly share a data page, which
// stays pinned across them. Runs under the shared lock: concurrent
// scans proceed in parallel, appends wait; fn must not call back into
// the table.
func (h *history) Range(lo, hi stream.Timestamp, maxSeqExcl uint64, fn func(stream.Element) bool) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.broken != nil {
		return h.broken
	}
	entries, err := h.btRange(int64(lo), int64(hi))
	if err != nil {
		return err
	}
	matched := entries[:0]
	for _, e := range entries {
		if e.key.seq < maxSeqExcl {
			matched = append(matched, e)
		}
	}
	// The index yields (timed, seq) order; arrival order is seq order.
	// Timestamps are near-monotone, so this sort is cheap in practice.
	sortEntriesBySeq(matched)
	var fr *frame
	defer func() {
		if fr != nil {
			h.pool.unpin(fr, false)
		}
	}()
	vals := make([]stream.Value, 0, h.schema.Len())
	for _, ent := range matched {
		if fr == nil || fr.pid != ent.ref.page {
			if fr != nil {
				h.pool.unpin(fr, false)
			}
			if fr, err = h.pool.get(ent.ref.page); err != nil {
				return err
			}
		}
		rec, err := dataPageSlot(fr.data, ent.ref.slot)
		if err != nil {
			return err
		}
		seq, n := binary.Uvarint(rec)
		if n <= 0 || seq != ent.key.seq {
			return fmt.Errorf("storage: history index points at record with seq %d, want %d", seq, ent.key.seq)
		}
		e, _, err := stream.DecodeElementCompactInto(h.schema, rec[n:], 0, vals)
		if err != nil {
			return err
		}
		if !fn(e) {
			return nil
		}
	}
	return nil
}

// sortEntriesBySeq sorts by sequence number. Entries arrive almost
// sorted (time and arrival order rarely diverge), so insertion sort
// beats the allocation-happy generic sort on the common case.
func sortEntriesBySeq(entries []btEntry) {
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i - 1
		for j >= 0 && entries[j].key.seq > e.key.seq {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = e
	}
}

// DurableSeq returns the highest sequence number covered by the last
// durable checkpoint.
func (h *history) DurableSeq() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.durableSeq
}

// Broken returns the poison error, nil for a healthy tier.
func (h *history) Broken() error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.broken
}

// LastSeq returns the highest appended sequence number, durable or not.
func (h *history) LastSeq() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.lastSeq
}

// Recover re-arms a poisoned tier by falling back to the last durable
// meta generation — exactly what the next process start would do, minus
// the restart. Everything above the durable root (the unsealed tail
// page, un-checkpointed appends, resident frames, free-list churn) is
// discarded; the copy-on-write rule guarantees the durable generation's
// pages were never overwritten, so the fallback state is consistent.
// The WAL still holds every record past durableSeq (checkpoints only
// truncate up to it), so the caller re-migrates them afterwards.
func (h *history) Recover() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.broken == nil {
		return nil
	}
	m, err := readBestMeta(h.f, h.path)
	if err != nil {
		return fmt.Errorf("storage: recovering history %s: %w", h.path, err)
	}
	h.pool.forget()
	h.gen = m.gen
	h.root = m.root
	h.tail = noPage
	h.npages = m.npages
	h.lastSeq = m.lastSeq
	h.durableSeq = m.lastSeq
	h.count = m.count
	h.free = m.free
	h.pendingFree = h.pendingFree[:0]
	h.epochAlloc = make(map[pageID]struct{})
	h.broken = nil
	return nil
}

// Reset discards every record and reinitialises the file to an empty
// tier (Table.Truncate): no orphaned pages or index nodes survive, and
// the sequence space restarts at zero alongside the table's.
func (h *history) Reset() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pool.forget()
	if err := h.f.Truncate(0); err != nil {
		return err
	}
	h.root = noPage
	h.tail = noPage
	h.lastSeq = 0
	h.durableSeq = 0
	h.count = 0
	h.free = nil
	h.pendingFree = nil
	h.epochAlloc = make(map[pageID]struct{})
	h.broken = nil
	if err := h.initMeta(); err != nil {
		h.broken = fmt.Errorf("storage: history tier disabled: %w", err)
		return h.broken
	}
	return nil
}

// Stats returns disk-tier counters.
func (h *history) Stats() HistoryStats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	hits, misses, evictions, writes := h.pool.snapshotStats()
	return HistoryStats{
		Rows:          h.count,
		DurableRows:   h.countDurableLocked(),
		Pages:         h.npages,
		Checkpoints:   h.checkpoints,
		PoolHits:      hits,
		PoolMisses:    misses,
		PoolEvictions: evictions,
		PagesWritten:  writes,
	}
}

func (h *history) countDurableLocked() uint64 {
	if h.durableSeq == h.lastSeq {
		return h.count
	}
	return h.count - (h.lastSeq - h.durableSeq)
}

// Close releases the file. The caller (Table.Close) checkpoints first;
// closing without one simply leaves a longer WAL tail for next open.
func (h *history) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.f.Close()
}
