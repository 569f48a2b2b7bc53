package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// HistoryMetrics points the history tier's page accounting at external
// metrics counters (the container wires its pages_read/pages_written/
// pool_hits/pool_evictions/checkpoints_total/pages_folded/pages_decoded
// counters here before deploying sensors; history.Fold ticks the last
// two). Any field may be nil.
type HistoryMetrics struct {
	PagesRead     Incrementer
	PagesWritten  Incrementer
	PoolHits      Incrementer
	PoolEvictions Incrementer
	Checkpoints   Incrementer
	PagesFolded   Incrementer
	PagesDecoded  Incrementer
}

func (m *HistoryMetrics) inc(c Incrementer) {
	if m != nil && c != nil {
		c.Inc()
	}
}

// frame is one in-memory page. pins counts live references: a pinned
// frame is never evicted, so callers may read (or, under the history
// write lock, mutate) frame.data without the pool lock held.
type frame struct {
	pid   pageID
	data  []byte
	pins  int
	dirty bool
	elem  *list.Element
}

// bufferPool caches a bounded number of history pages, reading frames
// from the file on miss and evicting the least-recently-used unpinned
// frame — writing it back first when dirty — to make room. Dirty
// write-back outside a checkpoint is crash-safe because the page
// allocation protocol (history.go) never dirties a page the durable
// meta generation references.
//
// The pool has its own lock so concurrent range scans (shared history
// lock) can fault pages in without racing each other; it is never held
// while caller code runs.
type bufferPool struct {
	f     File
	limit int
	metr  *HistoryMetrics

	mu     sync.Mutex
	frames map[pageID]*frame
	lru    *list.List // front = most recently used; holds every frame

	hits, misses, evictions, writes uint64
}

// DefaultPoolPages is the per-table buffer pool capacity (frames).
const DefaultPoolPages = 256

func newBufferPool(f File, limit int, metr *HistoryMetrics) *bufferPool {
	if limit < 8 {
		limit = 8
	}
	if metr == nil {
		// Counter sites read fields off metr before the nil-safe inc
		// runs, so a pool without external metrics needs a zero value.
		metr = &HistoryMetrics{}
	}
	return &bufferPool{
		f:      f,
		limit:  limit,
		metr:   metr,
		frames: make(map[pageID]*frame),
		lru:    list.New(),
	}
}

// get returns the frame for pid, pinned, reading it from the file if it
// is not resident.
func (p *bufferPool) get(pid pageID) (*frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr, ok := p.frames[pid]; ok {
		p.hits++
		p.metr.inc(p.metr.PoolHits)
		fr.pins++
		p.lru.MoveToFront(fr.elem)
		return fr, nil
	}
	fr, err := p.newFrameLocked(pid)
	if err != nil {
		return nil, err
	}
	p.misses++
	p.metr.inc(p.metr.PagesRead)
	if _, err := p.f.ReadAt(fr.data, int64(pid)*pageSize); err != nil {
		p.removeLocked(fr)
		return nil, fmt.Errorf("storage: reading history page %d: %w", pid, err)
	}
	return fr, nil
}

// alloc returns a pinned zeroed frame for a page that has no meaningful
// on-disk content yet (a freshly allocated page), skipping the read.
func (p *bufferPool) alloc(pid pageID) (*frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr, ok := p.frames[pid]; ok {
		// A reused free-list page may still be resident; recycle the
		// frame in place.
		fr.pins++
		fr.dirty = true
		for i := range fr.data {
			fr.data[i] = 0
		}
		p.lru.MoveToFront(fr.elem)
		return fr, nil
	}
	fr, err := p.newFrameLocked(pid)
	if err != nil {
		return nil, err
	}
	fr.dirty = true
	return fr, nil
}

// newFrameLocked makes room and registers a pinned frame for pid.
func (p *bufferPool) newFrameLocked(pid pageID) (*frame, error) {
	if err := p.evictForSpaceLocked(); err != nil {
		return nil, err
	}
	fr := &frame{pid: pid, data: make([]byte, pageSize), pins: 1}
	fr.elem = p.lru.PushFront(fr)
	p.frames[pid] = fr
	return fr, nil
}

// evictForSpaceLocked drops LRU unpinned frames until the pool is under
// its limit, writing dirty victims back. When every frame is pinned the
// pool grows past the limit instead of failing — pins are shallow
// (one tree path plus a data page), so this stays bounded.
func (p *bufferPool) evictForSpaceLocked() error {
	for len(p.frames) >= p.limit {
		var victim *frame
		for e := p.lru.Back(); e != nil; e = e.Prev() {
			if fr := e.Value.(*frame); fr.pins == 0 {
				victim = fr
				break
			}
		}
		if victim == nil {
			return nil
		}
		if victim.dirty {
			if err := p.writeLocked(victim); err != nil {
				return err
			}
		}
		p.evictions++
		p.metr.inc(p.metr.PoolEvictions)
		p.removeLocked(victim)
	}
	return nil
}

func (p *bufferPool) removeLocked(fr *frame) {
	p.lru.Remove(fr.elem)
	delete(p.frames, fr.pid)
}

func (p *bufferPool) writeLocked(fr *frame) error {
	if _, err := p.f.WriteAt(fr.data, int64(fr.pid)*pageSize); err != nil {
		return fmt.Errorf("storage: writing history page %d: %w", fr.pid, err)
	}
	p.writes++
	p.metr.inc(p.metr.PagesWritten)
	fr.dirty = false
	return nil
}

// unpin releases a reference; dirty marks the frame as modified so
// eviction and checkpoints write it back.
func (p *bufferPool) unpin(fr *frame, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if dirty {
		fr.dirty = true
	}
	fr.pins--
}

// flushAll writes every dirty frame back (the page half of a
// checkpoint). Frames stay resident.
func (p *bufferPool) flushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fr := range p.frames {
		if fr.dirty {
			if err := p.writeLocked(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

// forget drops resident frames without write-back (Reset).
func (p *bufferPool) forget() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frames = make(map[pageID]*frame)
	p.lru.Init()
}

// snapshotStats returns the pool counters.
func (p *bufferPool) snapshotStats() (hits, misses, evictions, writes uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.evictions, p.writes
}
