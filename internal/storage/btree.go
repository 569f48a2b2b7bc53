package storage

import (
	"encoding/binary"
	"fmt"
)

// The history index is a B+tree keyed on (timed, seq): timed orders
// entries for range scans, seq (the table's absolute insert ordinal)
// breaks ties, so keys are unique even when many readings share a
// timestamp. Leaves hold (key → data page, slot) entries; interior
// nodes hold separator keys. The tree only ever inserts — eviction
// from the window is append-mostly, and Truncate resets the whole
// file — so there is no delete or merge path.
//
// Node mutation follows the copy-on-write protocol in history.go: a
// node that the durable meta generation can reach is relocated to a
// freshly allocated page before its first modification in an epoch, so
// any write-back order between checkpoints leaves the previous
// generation's tree intact. Range scans descend from the root rather
// than chaining sibling leaves: a sibling pointer would keep naming the
// stale pre-relocation page after a copy-on-write move, while the
// parent path is rewritten on every relocation and is therefore always
// current.
//
// Node layout (within one pageSize page):
//
//	leaf:      kind(1) count(2) reserved(4) entries[count]×22
//	           entry = timed(8) seq(8) dataPage(4) slot(2)
//	interior:  kind(1) count(2) child0(4) entries[count]×20
//	           entry = timed(8) seq(8) child(4)
//	           child0 covers keys < entry[0]; entry[i].child covers
//	           keys >= entry[i] and < entry[i+1]
const (
	btHdrLen     = 7
	leafEntryLen = 22
	intEntryLen  = 20
	leafCapacity = (pageSize - btHdrLen) / leafEntryLen
	intCapacity  = (pageSize - btHdrLen - 4) / intEntryLen
)

// btKey orders index entries.
type btKey struct {
	timed int64
	seq   uint64
}

func (a btKey) less(b btKey) bool {
	if a.timed != b.timed {
		return a.timed < b.timed
	}
	return a.seq < b.seq
}

// btRef locates one record in the data pages.
type btRef struct {
	page pageID
	slot uint16
}

// btEntry is one decoded leaf entry.
type btEntry struct {
	key btKey
	ref btRef
}

func nodeCount(p []byte) int       { return int(binary.BigEndian.Uint16(p[1:3])) }
func setNodeCount(p []byte, n int) { binary.BigEndian.PutUint16(p[1:3], uint16(n)) }

func leafEntry(p []byte, i int) btEntry {
	off := btHdrLen + i*leafEntryLen
	return btEntry{
		key: btKey{
			timed: int64(binary.BigEndian.Uint64(p[off:])),
			seq:   binary.BigEndian.Uint64(p[off+8:]),
		},
		ref: btRef{
			page: binary.BigEndian.Uint32(p[off+16:]),
			slot: binary.BigEndian.Uint16(p[off+20:]),
		},
	}
}

func putLeafEntry(p []byte, i int, e btEntry) {
	off := btHdrLen + i*leafEntryLen
	binary.BigEndian.PutUint64(p[off:], uint64(e.key.timed))
	binary.BigEndian.PutUint64(p[off+8:], e.key.seq)
	binary.BigEndian.PutUint32(p[off+16:], e.ref.page)
	binary.BigEndian.PutUint16(p[off+20:], e.ref.slot)
}

func intChild0(p []byte) pageID         { return binary.BigEndian.Uint32(p[3:7]) }
func setIntChild0(p []byte, pid pageID) { binary.BigEndian.PutUint32(p[3:7], pid) }

func intKey(p []byte, i int) btKey {
	off := btHdrLen + 4 + i*intEntryLen
	return btKey{
		timed: int64(binary.BigEndian.Uint64(p[off:])),
		seq:   binary.BigEndian.Uint64(p[off+8:]),
	}
}

func intChild(p []byte, i int) pageID {
	return binary.BigEndian.Uint32(p[btHdrLen+4+i*intEntryLen+16:])
}

func putIntEntry(p []byte, i int, k btKey, child pageID) {
	off := btHdrLen + 4 + i*intEntryLen
	binary.BigEndian.PutUint64(p[off:], uint64(k.timed))
	binary.BigEndian.PutUint64(p[off+8:], k.seq)
	binary.BigEndian.PutUint32(p[off+16:], child)
}

// searchKey returns the index of the first of a node's n keys that is
// above k, n when none is: a leaf's insert position for k, one past the
// separator whose child covers k. The keys start at byte off of p, one
// every stride bytes, sorted; only their (timed, seq) prefix is read.
func searchKey(p []byte, off, stride, n int, k btKey) int {
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		o := off + m*stride
		t := int64(binary.BigEndian.Uint64(p[o:]))
		if t > k.timed || t == k.timed && binary.BigEndian.Uint64(p[o+8:]) > k.seq {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// searchTimed returns the index of the first of a node's n keys (laid
// out as for searchKey) whose timed is at least t, n when none is.
func searchTimed(p []byte, off, stride, n int, t int64) int {
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int64(binary.BigEndian.Uint64(p[off+m*stride:])) < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// btSplit reports a node split to the parent: right absorbs keys
// >= sep.
type btSplit struct {
	sep   btKey
	right pageID
}

// btInsert adds key→ref to the tree rooted at h.root, handling root
// creation, copy-on-write relocation and splits. Called with the
// history write lock held.
func (h *history) btInsert(k btKey, ref btRef) error {
	if h.root == noPage {
		pid, fr, err := h.allocNode(pageKindLeaf)
		if err != nil {
			return err
		}
		putLeafEntry(fr.data, 0, btEntry{key: k, ref: ref})
		setNodeCount(fr.data, 1)
		h.pool.unpin(fr, true)
		h.root = pid
		return nil
	}
	newRoot, split, err := h.btInsertRec(h.root, k, ref)
	if err != nil {
		return err
	}
	h.root = newRoot
	if split != nil {
		// Grow a new root over the two halves.
		pid, fr, err := h.allocNode(pageKindInterior)
		if err != nil {
			return err
		}
		setIntChild0(fr.data, h.root)
		putIntEntry(fr.data, 0, split.sep, split.right)
		setNodeCount(fr.data, 1)
		h.pool.unpin(fr, true)
		h.root = pid
	}
	return nil
}

// btInsertRec descends to the leaf for k, inserting on the way back up.
// It returns the node's (possibly relocated) page id and a split to
// propagate, if any.
func (h *history) btInsertRec(pid pageID, k btKey, ref btRef) (pageID, *btSplit, error) {
	fr, err := h.pool.get(pid)
	if err != nil {
		return pid, nil, err
	}
	kind := fr.data[0]
	if kind == pageKindLeaf {
		return h.btInsertLeaf(pid, fr, k, ref)
	}
	if kind != pageKindInterior {
		h.pool.unpin(fr, false)
		return pid, nil, fmt.Errorf("storage: history page %d is not an index node (kind %d)", pid, kind)
	}

	// The child covering k sits left of the first separator above k;
	// -1 is child0.
	n := nodeCount(fr.data)
	idx := searchKey(fr.data, btHdrLen+4, intEntryLen, n, k) - 1
	child := intChild0(fr.data)
	if idx >= 0 {
		child = intChild(fr.data, idx)
	}
	h.pool.unpin(fr, false)

	newChild, split, err := h.btInsertRec(child, k, ref)
	if err != nil {
		return pid, nil, err
	}
	if newChild == child && split == nil {
		return pid, nil, nil
	}

	// The child relocated and/or split: this node mutates, so make it
	// writable first.
	wpid, wfr, err := h.writableNode(pid)
	if err != nil {
		return pid, nil, err
	}
	if newChild != child {
		if idx < 0 {
			setIntChild0(wfr.data, newChild)
		} else {
			putIntEntry(wfr.data, idx, intKey(wfr.data, idx), newChild)
		}
	}
	if split == nil {
		h.pool.unpin(wfr, true)
		return wpid, nil, nil
	}

	// Insert (split.sep → split.right) after idx.
	n = nodeCount(wfr.data)
	if n < intCapacity {
		for i := n; i > idx+1; i-- {
			putIntEntry(wfr.data, i, intKey(wfr.data, i-1), intChild(wfr.data, i-1))
		}
		putIntEntry(wfr.data, idx+1, split.sep, split.right)
		setNodeCount(wfr.data, n+1)
		h.pool.unpin(wfr, true)
		return wpid, nil, nil
	}

	// Interior split. Append-friendly: a split entry landing past the
	// last key (the steady state for time-ordered ingest) starts a
	// fresh right node instead of halving a node that will never see
	// another insert.
	rpid, rfr, err := h.allocNode(pageKindInterior)
	if err != nil {
		h.pool.unpin(wfr, true)
		return wpid, nil, err
	}
	var up btSplit
	if idx == n-1 {
		setIntChild0(rfr.data, split.right)
		setNodeCount(rfr.data, 0)
		up = btSplit{sep: split.sep, right: rpid}
	} else {
		mid := n / 2
		// Key at mid moves up; entries right of it move to the new node.
		setIntChild0(rfr.data, intChild(wfr.data, mid))
		rn := 0
		for i := mid + 1; i < n; i++ {
			putIntEntry(rfr.data, rn, intKey(wfr.data, i), intChild(wfr.data, i))
			rn++
		}
		setNodeCount(rfr.data, rn)
		up = btSplit{sep: intKey(wfr.data, mid), right: rpid}
		setNodeCount(wfr.data, mid)
		// Re-insert the pending entry into the correct half.
		tfr := wfr
		insAt := idx + 1
		if !split.sep.less(up.sep) {
			tfr = rfr
			insAt = 0
			for insAt < nodeCount(tfr.data) && !split.sep.less(intKey(tfr.data, insAt)) {
				insAt++
			}
		}
		tn := nodeCount(tfr.data)
		for i := tn; i > insAt; i-- {
			putIntEntry(tfr.data, i, intKey(tfr.data, i-1), intChild(tfr.data, i-1))
		}
		putIntEntry(tfr.data, insAt, split.sep, split.right)
		setNodeCount(tfr.data, tn+1)
	}
	h.pool.unpin(rfr, true)
	h.pool.unpin(wfr, true)
	return wpid, &up, nil
}

// btInsertLeaf inserts into a leaf (fr is pinned for pid; consumed).
func (h *history) btInsertLeaf(pid pageID, fr *frame, k btKey, ref btRef) (pageID, *btSplit, error) {
	n := nodeCount(fr.data)
	pos := searchKey(fr.data, btHdrLen, leafEntryLen, n, k)
	h.pool.unpin(fr, false)
	wpid, wfr, err := h.writableNode(pid)
	if err != nil {
		return pid, nil, err
	}

	if n < leafCapacity {
		for i := n; i > pos; i-- {
			putLeafEntry(wfr.data, i, leafEntry(wfr.data, i-1))
		}
		putLeafEntry(wfr.data, pos, btEntry{key: k, ref: ref})
		setNodeCount(wfr.data, n+1)
		h.pool.unpin(wfr, true)
		return wpid, nil, nil
	}

	// Leaf split. Append-friendly: a key landing past the last entry
	// starts a fresh right leaf so time-ordered ingest packs leaves
	// full instead of half-full.
	rpid, rfr, err := h.allocNode(pageKindLeaf)
	if err != nil {
		h.pool.unpin(wfr, false)
		return wpid, nil, err
	}
	if pos == n {
		putLeafEntry(rfr.data, 0, btEntry{key: k, ref: ref})
		setNodeCount(rfr.data, 1)
	} else {
		mid := n / 2
		rn := 0
		for i := mid; i < n; i++ {
			putLeafEntry(rfr.data, rn, leafEntry(wfr.data, i))
			rn++
		}
		setNodeCount(rfr.data, rn)
		setNodeCount(wfr.data, mid)
		if pos >= mid {
			insertLeafAt(rfr.data, pos-mid, btEntry{key: k, ref: ref})
		} else {
			insertLeafAt(wfr.data, pos, btEntry{key: k, ref: ref})
		}
	}
	sep := leafEntry(rfr.data, 0).key
	h.pool.unpin(rfr, true)
	h.pool.unpin(wfr, true)
	return wpid, &btSplit{sep: sep, right: rpid}, nil
}

func insertLeafAt(p []byte, pos int, e btEntry) {
	n := nodeCount(p)
	for i := n; i > pos; i-- {
		putLeafEntry(p, i, leafEntry(p, i-1))
	}
	putLeafEntry(p, pos, e)
	setNodeCount(p, n+1)
}

// btWalk hands visit every index entry with lo <= timed <= hi, in key
// order, by descending from the root and pruning subtrees whose
// separator interval misses the range; visit runs with the entry's
// leaf pinned, and its error ends the walk. Called with at least the
// shared history lock held (the tree cannot change underneath it).
func (h *history) btWalk(lo, hi int64, visit func(btEntry) error) error {
	if h.root == noPage || lo > hi {
		return nil
	}
	return h.btRangeRec(h.root, lo, hi, visit)
}

func (h *history) btRangeRec(pid pageID, lo, hi int64, visit func(btEntry) error) error {
	fr, err := h.pool.get(pid)
	if err != nil {
		return err
	}
	kind := fr.data[0]
	if kind == pageKindLeaf {
		defer h.pool.unpin(fr, false)
		n := nodeCount(fr.data)
		for i := searchTimed(fr.data, btHdrLen, leafEntryLen, n, lo); i < n; i++ {
			e := leafEntry(fr.data, i)
			if e.key.timed > hi {
				break
			}
			if err := visit(e); err != nil {
				return err
			}
		}
		return nil
	}
	if kind != pageKindInterior {
		h.pool.unpin(fr, false)
		return fmt.Errorf("storage: history page %d is not an index node (kind %d)", pid, kind)
	}
	// Child i covers keys in [sep(i-1), sep(i)) with sep(-1) = -inf and
	// sep(n) = +inf. Collect the children whose interval can intersect
	// [lo, hi], then unpin before recursing so the pin depth stays one
	// tree path. Keys in child i are strictly below sep(i), so a child
	// whose sep(i) has timed < lo holds no key in range; sequence
	// numbers start at 1, so a sep(i) with timed == lo lies above (lo, 0)
	// and its child may hold keys at lo.
	n := nodeCount(fr.data)
	var kids []pageID
	for i := searchTimed(fr.data, btHdrLen+4, intEntryLen, n, lo); i <= n; i++ {
		if i > 0 && intKey(fr.data, i-1).timed > hi {
			break
		}
		if i == 0 {
			kids = append(kids, intChild0(fr.data))
		} else {
			kids = append(kids, intChild(fr.data, i-1))
		}
	}
	h.pool.unpin(fr, false)
	for _, c := range kids {
		if err := h.btRangeRec(c, lo, hi, visit); err != nil {
			return err
		}
	}
	return nil
}

// allocNode allocates a page and pins an initialised node frame for it.
func (h *history) allocNode(kind byte) (pageID, *frame, error) {
	pid := h.allocPage()
	fr, err := h.pool.alloc(pid)
	if err != nil {
		return noPage, nil, err
	}
	fr.data[0] = kind
	return pid, fr, nil
}

// writableNode returns a node frame that is safe to mutate this epoch,
// relocating the page if the durable meta generation still references
// it (copy-on-write). The returned frame is pinned.
func (h *history) writableNode(pid pageID) (pageID, *frame, error) {
	if _, fresh := h.epochAlloc[pid]; fresh {
		fr, err := h.pool.get(pid)
		return pid, fr, err
	}
	old, err := h.pool.get(pid)
	if err != nil {
		return pid, nil, err
	}
	npid := h.allocPage()
	fr, err := h.pool.alloc(npid)
	if err != nil {
		h.pool.unpin(old, false)
		return pid, nil, err
	}
	copy(fr.data, old.data)
	h.pool.unpin(old, false)
	h.pendingFree = append(h.pendingFree, pid)
	return npid, fr, nil
}
