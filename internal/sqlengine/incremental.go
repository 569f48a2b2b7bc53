package sqlengine

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"gsn/internal/stream"
)

// AggMaintainer keeps a plan's groups over a sliding window as the
// window changes (Plan.Incremental), so evaluating the dominant
// `SELECT agg(col) FROM wrapper` trigger shape, or a GROUP BY rollup, is
// O(groups) instead of O(window). It implements storage.Observer: the
// table calls OnInsert, OnEvict and OnTruncate under its own lock and
// in arrival (FIFO) order, for count and time windows alike; Result is
// called from trigger workers and sweeps, so the maintainer carries its
// own mutex.
//
// Each live group — one per encoded GROUP BY key vector, the one empty
// key for an ungrouped aggregate — holds the aggregate states and the
// arrival sequences of its live rows. The table evicts in arrival
// order, so an evicted element is always its group's oldest live row.
// A plan with a WHERE runs its bound predicate on the element at insert
// and again at evict, and folds in or takes out only the rows it
// admits: the predicate never calls NOW(), so both runs answer alike.
// An input a state cannot digest (a non-numeric SUM input, incomparable
// MIN operands), a WHERE that fails on an element, or an eviction the
// maintainer never saw inserted poisons it: Result returns nil until
// the next truncate, and the caller executes the plan instead, which
// reports the error.
type AggMaintainer struct {
	prog *IncProgram

	mu      sync.Mutex
	groups  map[string]*liveGroup
	single  *liveGroup // the live group of an ungrouped statement, found unhashed
	broken  bool
	seq     uint64         // next insert's arrival sequence: the OnInsert calls so far
	keyVals []stream.Value // scratch key vector, guarded by mu
	keyBuf  []byte         // scratch encoded key, guarded by mu

	// where is the plan's bound WHERE, nil when it has none; row and ctx
	// are its scratch input row and evaluation context, guarded by mu.
	// ctx's memo cells keep the predicate's row-independent parts, which
	// never change, across elements.
	where boundExpr
	row   []stream.Value
	ctx   boundCtx

	// drift counts the evictions subtracted from a float sum since the
	// last rebuild. Subtract-on-evict re-associates the sum (and can be
	// corrupted outright by catastrophic absorption when magnitudes
	// differ wildly), so after resyncFloatEvery of them NeedsResync
	// reports true and the owner rebuilds the state from the live window
	// (storage.Table.SetObserver replays it).
	drift uint64
}

// resyncFloatEvery bounds float SUM/AVG drift: one O(window) rebuild
// per this many float subtractions keeps amortised maintenance O(1).
const resyncFloatEvery = 65536

// liveGroup is one live group: the bound run's group — its key values
// in an otherwise NULL representative row, and its aggregate states —
// and the arrival sequences of its live rows, seqs[head:], oldest first.
// A push reuses the room evictions freed before it grows seqs, so a
// steady window allocates nothing.
type liveGroup struct {
	boundGroup
	seqs []uint64
	head int
}

// seqValue is one entry of aggState.live: an input value and the
// arrival sequence of the row it came from.
type seqValue struct {
	seq uint64
	v   stream.Value
}

// insert is add for a maintained state: MIN, MAX and LAST also keep in
// live what evict needs to find their next answer. seq is the row's
// arrival sequence. It returns false when the state cannot digest v.
func (a *aggState) insert(v stream.Value, seq uint64) bool {
	if v == nil || a.kind != aggMin && a.kind != aggMax && a.kind != aggLast {
		return a.add(v) == nil
	}
	if a.kind != aggLast {
		// MIN keeps a non-decreasing deque and MAX a non-increasing one:
		// drop the candidates v outlives and beats. A tie stays, so the
		// head is the oldest of equal values, as a scan's add keeps it —
		// unless the two are identical: then the queued twin answers for
		// v, and its entry lives on as long as v does (a run of equal
		// timestamps keeps one entry, not one per row).
		want := -1
		if a.kind == aggMax {
			want = 1
		}
		for n := len(a.live); n > 0; n-- {
			c, known, err := compare(a.live[n-1].v, v)
			if err != nil || !known {
				return false
			}
			if c == 0 && identical(a.live[n-1].v, v) {
				a.live[n-1].seq = seq
				a.count++
				return true
			}
			if c*want >= 0 {
				break
			}
			a.live = a.live[:n-1]
		}
	}
	a.live = append(a.live, seqValue{seq: seq, v: v})
	a.count++
	a.setEnds()
	return true
}

// identical reports whether two values that compare equal are also the
// same value to a reader: the same type and, for floats, the same bits
// (-0 and +0 compare equal but print apart). It answers false for kinds
// it does not know, which only costs a deque entry.
func identical(a, b stream.Value) bool {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case string:
		y, ok := b.(string)
		return ok && x == y
	}
	return false
}

// evict takes back out one input insert folded in, which must be the
// oldest live one; seq is its arrival sequence. Each subtraction from a
// float sum counts in drift. It returns false when the state cannot
// digest v.
func (a *aggState) evict(v stream.Value, seq uint64, drift *uint64) bool {
	if v == nil {
		return true
	}
	a.count--
	switch a.kind {
	case aggSum, aggAvg:
		switch x := v.(type) {
		case int64:
			a.intSum -= x
			a.sum -= float64(x)
		case float64:
			a.floats--
			a.sum -= x
		default:
			return false
		}
		if a.floats == 0 {
			a.sum = float64(a.intSum) // nothing left to drift
		} else {
			*drift++
		}
	case aggMin, aggMax, aggLast:
		if len(a.live) > 0 && a.live[0].seq == seq {
			a.live = a.live[1:]
			a.setEnds()
		}
	}
	return true
}

// setEnds reads a maintained MIN or MAX off its deque's head, or LAST
// off its FIFO's tail.
func (a *aggState) setEnds() {
	var v stream.Value
	if n := len(a.live); n > 0 && a.kind == aggLast {
		v = a.live[n-1].v
	} else if n > 0 {
		v = a.live[0].v
	}
	switch a.kind {
	case aggMin:
		a.min = v
	case aggMax:
		a.max = v
	default:
		a.last = v
	}
}

// NewAggMaintainer builds the maintainer of a plan's incremental form.
func NewAggMaintainer(prog *IncProgram) *AggMaintainer {
	m := &AggMaintainer{
		prog:    prog,
		groups:  make(map[string]*liveGroup),
		keyVals: make([]stream.Value, len(prog.Keys)),
	}
	if bp := prog.plan.prog; bp.where != nil {
		m.where = bp.where
		m.row = make([]stream.Value, len(prog.plan.inCols))
		m.ctx = boundCtx{ev: newEvaluator(nil, Options{}), once: make([]onceCell, bp.ncells)}
	}
	return m
}

// NewGroupedAggMaintainer returns NewAggMaintainer(prog).
//
// Deprecated: use NewAggMaintainer, which maintains grouped plans too.
func NewGroupedAggMaintainer(prog *IncProgram) *AggMaintainer { return NewAggMaintainer(prog) }

// group encodes e's GROUP BY key into the scratch buffers (callers hold
// mu) and returns its live group, or nil. Lookups via
// groups[string(m.keyBuf)] compile without a string allocation — these
// run per element on the ingest path, under the table lock — so the key
// string is materialised only on first sight of a group.
func (m *AggMaintainer) group(e stream.Element) *liveGroup {
	if m.single != nil {
		return m.single
	}
	for i, col := range m.prog.Keys {
		m.keyVals[i] = inputValue(e, col)
	}
	m.keyBuf = appendRowKey(m.keyBuf[:0], m.keyVals)
	return m.groups[string(m.keyBuf)]
}

// input is the value aggregate slot i folds in for e.
func (m *AggMaintainer) input(e stream.Element, i int) stream.Value {
	if col := m.prog.args[i]; col >= 0 {
		return inputValue(e, col)
	}
	return int64(1) // COUNT(*), as the bound run feeds it
}

// inputValue extracts an input column from an element, mapping the
// implicit TIMED column (index == element length) to the timestamp.
func inputValue(e stream.Element, col int) stream.Value {
	if col == e.Len() {
		return int64(e.Timestamp())
	}
	return e.Value(col)
}

// admits reports whether the plan's WHERE keeps e, reading e's values
// as boundRun.scan does. A failing WHERE poisons the maintainer (callers
// hold mu and have checked that there is a WHERE).
func (m *AggMaintainer) admits(e stream.Element) bool {
	for _, c := range m.prog.plan.prog.reads {
		m.row[c] = inputValue(e, c)
	}
	v, err := m.where(m.row, &m.ctx)
	if err != nil {
		m.broken = true
		return false
	}
	t, known := truth(v)
	return known && t
}

// OnInsert implements storage.Observer.
func (m *AggMaintainer) OnInsert(e stream.Element) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.seq
	m.seq++
	if m.broken || m.where != nil && !m.admits(e) {
		return
	}
	g := m.group(e)
	if g == nil {
		p := m.prog.plan
		g = &liveGroup{boundGroup: boundGroup{
			key:    string(m.keyBuf),
			rep:    make([]stream.Value, len(p.inCols)),
			states: make([]aggState, len(m.prog.args)),
		}}
		for i, col := range m.prog.Keys {
			g.rep[col] = m.keyVals[i]
		}
		for i := range g.states {
			g.states[i].kind = p.prog.aggs[i].kind
		}
		m.groups[g.key] = g
		if len(m.prog.Keys) == 0 {
			m.single = g
		}
	}
	if g.head > 0 && len(g.seqs) == cap(g.seqs) {
		g.seqs = g.seqs[:copy(g.seqs, g.seqs[g.head:])]
		g.head = 0
	}
	g.seqs = append(g.seqs, seq)
	for i := range g.states {
		if !g.states[i].insert(m.input(e, i), seq) {
			m.broken = true
			return
		}
	}
}

// OnEvict implements storage.Observer.
func (m *AggMaintainer) OnEvict(e stream.Element) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken || m.where != nil && !m.admits(e) {
		return
	}
	g := m.group(e)
	if g == nil {
		// An eviction never seen inserted: the observer was attached
		// mid-window without a replay. Poison rather than drift.
		m.broken = true
		return
	}
	seq := g.seqs[g.head]
	g.head++
	for i := range g.states {
		if !g.states[i].evict(m.input(e, i), seq, &m.drift) {
			m.broken = true
			return
		}
	}
	if g.head == len(g.seqs) {
		delete(m.groups, g.key)
		m.single = nil
	}
}

// OnTruncate implements storage.Observer: the window was cleared, so
// the maintainer restarts empty and unpoisoned.
func (m *AggMaintainer) OnTruncate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.groups = make(map[string]*liveGroup)
	m.single = nil
	m.broken = false
	m.drift = 0
}

// Inserts reports how many OnInsert calls the maintainer has had,
// replays included: what keeping it in step with its window has cost.
func (m *AggMaintainer) Inserts() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// NeedsResync reports that enough float inputs have been subtracted
// out that accumulated rounding error warrants rebuilding the state
// from the live window (re-attach with SetObserver, which replays it).
func (m *AggMaintainer) NeedsResync() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drift >= resyncFloatEvery
}

// Result is the plan's answer over the live window: a bound run of the
// plan with the live groups installed oldest first — the first-seen
// order a window scan produces — and finished as every run is, so
// HAVING, the projection, ORDER BY, LIMIT and the one row of an
// aggregate without GROUP BY over an empty window are the bound run's.
// It returns nil when the maintainer is poisoned or the run fails; the
// caller then executes the plan, which reports the error.
func (m *AggMaintainer) Result(opts Options) *Relation {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken {
		return nil
	}
	live := make([]*liveGroup, 0, len(m.groups))
	for _, g := range m.groups {
		live = append(live, g)
	}
	slices.SortFunc(live, func(a, b *liveGroup) int { return cmp.Compare(a.seqs[a.head], b.seqs[b.head]) })
	p := m.prog.plan
	r := p.prog.start(p, newEvaluator(nil, opts))
	r.order = make([]*boundGroup, len(live))
	for i, g := range live {
		r.order[i] = &g.boundGroup
	}
	rel, err := r.finish()
	if err != nil {
		return nil
	}
	return rel
}
