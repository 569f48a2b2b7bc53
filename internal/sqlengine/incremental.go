package sqlengine

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"gsn/internal/stream"
)

// AggMaintainer keeps a plan's groups over a sliding window
// (Plan.Incremental), so evaluating the dominant `SELECT agg(col) FROM
// wrapper` trigger shape, or a GROUP BY rollup, is O(groups) plus the
// arrivals since the last read instead of O(window). The table's insert
// path does not know it exists: each Read hands it the live window and
// the arrival ordinal of the window's first row (storage.Table.ReadWindow),
// and under its own mutex it catches up before it answers. It takes out,
// oldest first, the rows it admitted whose ordinals fell below the
// window's first, from its own FIFO, so no WHERE runs on the way out;
// then it examines the arrivals it has not seen. A row that came and
// went between two reads is never touched: its net effect on every state
// is zero, and a truncate is only a gap in ordinals.
//
// An arrival is admitted when the WHERE less its frontier (which never
// calls NOW()) keeps it. The frontier — one lower bound on TIMED whose
// bound calls NOW(), the paper's `timed >= now() - H` — is evaluated once
// per read, at the read's clock reading, and expires admitted rows
// oldest first through the same path as evictions. A frontier earlier
// than the last read's brings expired rows back: the read rebuilds from
// the window. An admitted row below the frontier behind a younger one
// (timestamps out of order) cannot be taken out: the read declines.
//
// An input a state cannot digest (a non-numeric SUM input, incomparable
// MIN operands) or a WHERE failing on a row poisons the maintainer: reads
// decline until that row has left the window, and the next one rebuilds.
// A caller whose read is declined (nil) executes the plan, which answers
// or reports the error: an answer is never stale.
//
// OnInsert and OnEvict are the per-row steps a read is built from, for
// callers that time the per-row cost; a Read over the window they built
// finds nothing to catch up.
type AggMaintainer struct {
	prog *IncProgram

	mu      sync.Mutex
	groups  map[string]*liveGroup
	single  *liveGroup     // the live group of an ungrouped statement, found unhashed
	keyVals []stream.Value // scratch key vector, guarded by mu
	keyBuf  []byte         // scratch encoded key, guarded by mu
	live    []*liveGroup   // scratch of answer, guarded by mu
	order   []*boundGroup  // scratch of answer, guarded by mu

	// rows[head:] are the admitted rows not yet taken out, in arrival
	// order, and vals[head*nvals:] their aggregate inputs, nvals to a
	// row (COUNT(*) reads none). descents counts those of rows[head+1:]
	// whose timestamp is below their predecessor's.
	rows     []liveRow
	vals     []stream.Value
	nvals    int
	head     int
	descents int
	// first is the ordinal of the oldest row not taken out of the window,
	// next the ordinal of the next arrival; seen counts the arrivals
	// examined (Inserts).
	first, next, seen uint64
	// floor is the frontier last applied, as an inclusive lower bound on
	// TIMED: every admitted row below it has been taken out, and no
	// arrival below it is admitted. math.MinInt64 without a frontier.
	floor int64

	// broken poisons the maintainer until the row of ordinal poison has
	// left the window.
	broken bool
	poison uint64

	// row and ctx are the WHERE's scratch input row and evaluation
	// context, guarded by mu. ctx's memo cells keep the predicate's
	// row-independent parts, which never change, across rows.
	row []stream.Value
	ctx boundCtx

	// drift counts the evictions subtracted from a float sum since the
	// last rebuild. Subtract-on-evict re-associates the sum (and can be
	// corrupted outright by catastrophic absorption when magnitudes
	// differ wildly), so after resyncFloatEvery of them NeedsResync
	// reports true and the owner resets the maintainer, whose next read
	// rebuilds the state from the live window.
	drift uint64
}

// liveRow is one admitted row: its arrival ordinal, its timestamp and
// its group. Its aggregate inputs are kept beside it (AggMaintainer.vals)
// because the table may have dropped the row by the time it is taken
// out.
type liveRow struct {
	ord uint64
	ts  int64
	g   *liveGroup
}

// resyncFloatEvery bounds float SUM/AVG drift: one O(window) rebuild
// per this many float subtractions keeps amortised maintenance O(1).
const resyncFloatEvery = 65536

// liveGroup is one live group: the bound run's group — its key values
// in an otherwise NULL representative row, and its aggregate states —
// and the arrival ordinals of its live rows, seqs[head:], oldest first.
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
		floor:   math.MinInt64,
	}
	for _, col := range prog.args {
		if col >= 0 {
			m.nvals++
		}
	}
	if prog.where != nil {
		m.row = make([]stream.Value, len(prog.plan.inCols))
		m.ctx = boundCtx{ev: newEvaluator(nil, Options{}), once: make([]onceCell, prog.whereCells)}
	}
	return m
}

// NewGroupedAggMaintainer returns NewAggMaintainer(prog).
//
// Deprecated: use NewAggMaintainer, which maintains grouped plans too.
func NewGroupedAggMaintainer(prog *IncProgram) *AggMaintainer { return NewAggMaintainer(prog) }

// group encodes e's GROUP BY key into the scratch buffers (callers hold
// mu) and returns its live group, or nil. Lookups via
// groups[string(m.keyBuf)] compile without a string allocation, so the
// key string is materialised only on first sight of a group.
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

// inputValue extracts an input column from an element, mapping the
// implicit TIMED column (index == element length) to the timestamp.
func inputValue(e stream.Element, col int) stream.Value {
	if col == e.Len() {
		return int64(e.Timestamp())
	}
	return e.Value(col)
}

// admits reports whether the plan's WHERE, less its frontier, keeps e,
// reading e's values as boundRun.scan does (callers hold mu and have
// checked that there is a WHERE). It runs on every arrival examined,
// whatever its timestamp: a row the frontier expires is still in the
// window a plan execution scans, so its failure must still decline.
func (m *AggMaintainer) admits(e stream.Element) (bool, error) {
	for _, c := range m.prog.whereReads {
		m.row[c] = inputValue(e, c)
	}
	v, err := m.prog.where(m.row, &m.ctx)
	if err != nil {
		return false, err
	}
	t, known := truth(v)
	return known && t, nil
}

// poisonAt marks the maintainer unable to answer until the row of
// ordinal ord has left the window.
func (m *AggMaintainer) poisonAt(ord uint64) {
	m.broken, m.poison = true, ord
}

// insert examines the arrival e of ordinal ord (callers hold mu): it is
// admitted when the WHERE keeps it and the frontier does not exclude
// it, and folded into its group.
func (m *AggMaintainer) insert(e stream.Element, ord uint64) {
	if m.broken {
		return
	}
	m.seen++
	if m.prog.where != nil {
		ok, err := m.admits(e)
		if err != nil {
			m.poisonAt(ord)
		}
		if !ok {
			return
		}
	}
	ts := int64(e.Timestamp())
	if ts < m.floor {
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
	g.seqs = append(g.seqs, ord)
	if m.head > 0 && len(m.rows) == cap(m.rows) {
		n := copy(m.rows, m.rows[m.head:])
		m.rows = m.rows[:n]
		m.vals = m.vals[:copy(m.vals, m.vals[m.head*m.nvals:])]
		m.head = 0
	}
	base := len(m.vals)
	for i, col := range m.prog.args {
		v := stream.Value(int64(1)) // COUNT(*), as the bound run feeds it
		if col >= 0 {
			v = inputValue(e, col)
			m.vals = append(m.vals, v)
		}
		if !g.states[i].insert(v, ord) {
			m.vals = m.vals[:base]
			m.poisonAt(ord)
			return
		}
	}
	if m.head < len(m.rows) && ts < m.rows[len(m.rows)-1].ts {
		m.descents++
	}
	m.rows = append(m.rows, liveRow{ord: ord, ts: ts, g: g})
}

// takeOut takes the oldest admitted row out of its group (callers hold
// mu and have checked that one is live).
func (m *AggMaintainer) takeOut() {
	r := m.rows[m.head]
	vals := m.vals[m.head*m.nvals : (m.head+1)*m.nvals]
	m.head++
	if m.head < len(m.rows) && m.rows[m.head].ts < r.ts {
		m.descents--
	}
	g := r.g
	g.head++
	j := 0
	for i, col := range m.prog.args {
		v := stream.Value(int64(1))
		if col >= 0 {
			v, j = vals[j], j+1
		}
		if !g.states[i].evict(v, r.ord, &m.drift) {
			m.poisonAt(r.ord) // the window no longer holds r: the next read rebuilds
		}
	}
	clear(vals)
	if g.head == len(g.seqs) {
		delete(m.groups, g.key)
		if g == m.single {
			m.single = nil
		}
	}
}

// evictBelow takes out every admitted row whose ordinal is below first,
// the ordinal of the window's oldest row (callers hold mu).
func (m *AggMaintainer) evictBelow(first uint64) {
	for m.head < len(m.rows) && m.rows[m.head].ord < first {
		m.takeOut()
	}
	m.first = max(m.first, first)
}

// advance moves the frontier to floor and takes out the admitted rows
// below it, oldest first (callers hold mu; floor is not below m.floor).
func (m *AggMaintainer) advance(floor int64) {
	m.floor = floor
	for m.head < len(m.rows) && m.rows[m.head].ts < floor {
		m.takeOut()
	}
}

// reset empties the maintainer (callers hold mu): the next read admits
// the live window.
func (m *AggMaintainer) reset() {
	clear(m.groups)
	m.single = nil
	clear(m.rows)
	clear(m.vals)
	m.rows, m.vals, m.head, m.descents = m.rows[:0], m.vals[:0], 0, 0
	m.first, m.next = 0, 0
	m.floor = math.MinInt64
	m.broken = false
	m.drift = 0
}

// Reset empties the maintainer and clears its poison: its next read
// admits the live window. Owners reset it on a float-drift resync.
func (m *AggMaintainer) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reset()
}

// OnInsert examines one arrival, the next in ordinal after every row
// examined so far.
func (m *AggMaintainer) OnInsert(e stream.Element) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.insert(e, m.next)
	m.next++
}

// OnEvict takes the oldest row of the window out. It must be the
// oldest row OnInsert examined and OnEvict has not taken out yet; e is
// not read, the maintainer kept what it needs of it.
func (m *AggMaintainer) OnEvict(stream.Element) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictBelow(m.first + 1)
}

// Inserts reports how many arrivals the maintainer has examined,
// rebuilds included: what keeping it in step with its window has cost.
func (m *AggMaintainer) Inserts() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen
}

// NeedsResync reports that enough float inputs have been subtracted
// out that accumulated rounding error warrants rebuilding the state
// from the live window (Reset, then read).
func (m *AggMaintainer) NeedsResync() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drift >= resyncFloatEvery
}

// Read catches the maintainer up with the live window — live in
// arrival order, first the arrival ordinal of live[0] — and returns the
// plan's answer over it, or nil when it cannot give the exact one (see
// AggMaintainer); the caller then executes the plan. The caller must
// keep the window from changing during the call, and the ordinals of
// successive reads must come from one table.
func (m *AggMaintainer) Read(first uint64, live []stream.Element, opts Options) *Relation {
	m.mu.Lock()
	defer m.mu.Unlock()
	ev := newEvaluator(nil, opts)
	floor, ok := m.frontier(ev)
	if !ok {
		floor = m.floor // catch up under the last frontier, and decline
	}
	end := first + uint64(len(live))
	if floor < m.floor || end < m.next || m.broken && first > m.poison {
		m.reset()
	}
	m.evictBelow(first)
	m.advance(floor)
	for ord := max(m.next, first); ord < end; ord++ {
		m.insert(live[ord-first], ord)
	}
	m.next = end
	if !ok {
		return nil
	}
	return m.answer(ev)
}

// frontier evaluates the plan's frontier on ev as an inclusive lower
// bound on TIMED: math.MinInt64 without one; ok is false when the bound
// is not an integer (NULL, a float, an error) or admits nothing, which
// only an execution answers.
func (m *AggMaintainer) frontier(ev *evaluator) (floor int64, ok bool) {
	if m.prog.floor == nil {
		return math.MinInt64, true
	}
	b, err := ev.eval(m.prog.floor, nil)
	v, isInt := b.(int64)
	switch {
	case err != nil || !isInt:
		return 0, false
	case !m.prog.floorStrict:
		return v, true
	case v == math.MaxInt64:
		return 0, false
	}
	return v + 1, true
}

// answer is the plan's result over the live groups, installed oldest
// first — the first-seen order a window scan produces — and finished on
// ev as every run is, so HAVING, the projection, ORDER BY, LIMIT and
// the one row of an aggregate without GROUP BY over an empty window are
// the bound run's. It is nil when the maintainer is poisoned, when an
// admitted row below the frontier is still live behind a younger one,
// or when the run fails (callers hold mu).
func (m *AggMaintainer) answer(ev *evaluator) *Relation {
	if m.broken {
		return nil
	}
	if m.descents > 0 && m.prog.floor != nil {
		for _, r := range m.rows[m.head:] {
			if r.ts < m.floor {
				return nil
			}
		}
	}
	m.live = m.live[:0]
	if m.single != nil {
		m.live = append(m.live, m.single)
	} else {
		for _, g := range m.groups {
			m.live = append(m.live, g)
		}
	}
	if len(m.live) > 1 {
		slices.SortFunc(m.live, func(a, b *liveGroup) int { return cmp.Compare(a.seqs[a.head], b.seqs[b.head]) })
	}
	p := m.prog.plan
	r := p.prog.start(p, ev)
	r.order = m.order[:0]
	for _, g := range m.live {
		r.order = append(r.order, &g.boundGroup)
	}
	m.order = r.order
	rel, err := r.finish()
	if err != nil {
		return nil
	}
	return rel
}
