package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/quality"
	"gsn/internal/resilience"
	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/storage"
	"gsn/internal/stream"
	"gsn/internal/vsensor"
	"gsn/internal/wrappers"
)

// VirtualSensor is the runtime of one deployed descriptor: its wrappers,
// quality chains, window tables and output table. It is created and
// owned by the container's virtual sensor manager. It runs no
// goroutines of its own: a trigger is evaluated by the goroutine that
// delivered its element.
type VirtualSensor struct {
	name      string
	desc      *vsensor.Descriptor
	container *Container
	outSchema *stream.Schema
	outTable  *storage.Table
	streams   []*inputStream

	// wg counts the evaluations in flight. One joins it only under
	// lifeMu's read lock with stopping false, and stop sets stopping
	// under the write lock before it waits — so a lifecycle operation
	// (undeploy, redeploy swap) returns only once the runtime has
	// stopped evaluating.
	wg       sync.WaitGroup
	stopOnce sync.Once
	lifeMu   sync.RWMutex
	stopping bool

	statTriggers  atomic.Uint64
	statOutputs   atomic.Uint64
	statErrors    atomic.Uint64
	statDropped   atomic.Uint64
	statCoalesced atomic.Uint64
	statLastError atomic.Value // string
}

// inputStream is one <input-stream> at runtime.
type inputStream struct {
	spec    vsensor.InputStream
	stmt    *sqlparser.SelectStatement
	plan    *sqlengine.Plan // compiled output query; nil → Execute fallback
	rate    *quality.RateLimiter
	count   *quality.CountLimiter
	sources []*sourceRuntime

	// mu guards the evaluation state. The stream evaluates one trigger
	// at a time and queues none: an arrival that finds it running sets
	// pending — its element is already in the window — and returns, and
	// the running evaluation goes round once more for it. pendingSince
	// is when the first such arrival came.
	mu           sync.Mutex
	running      bool
	pending      bool
	pendingSince time.Time
}

// sourceRuntime is one <stream-source> at runtime.
type sourceRuntime struct {
	alias   string
	spec    vsensor.StreamSource
	wrapper wrappers.Wrapper
	stmt    *sqlparser.SelectStatement
	table   *storage.Table

	// plan is the source query compiled against the wrapper schema at
	// deploy time; nil when the statement shape needs the full engine.
	plan *sqlengine.Plan
	// agg maintains the source query's groups as the window changes;
	// nil when the query does not qualify.
	agg *sqlengine.AggMaintainer

	sampler *quality.Sampler
	repair  *quality.Repairer
	buffer  *quality.DisconnectBuffer
	gap     *quality.GapDetector

	slide    int           // trigger every slide-th arrival (≥1)
	arrivals atomic.Uint64 // accepted arrivals, for slide accounting

	// Supervision state: restart attempts escalate through restartBo
	// (notBefore gates the next attempt) instead of firing every tick,
	// and a source that exhausts its restart budget without recovering
	// goes terminally failed — surfaced via Health, reset by redeploy.
	restarts     atomic.Uint64
	restartFails atomic.Uint64 // consecutive restarts without recovery
	failed       atomic.Bool
	failReason   atomic.Value // string
	restartBo    *resilience.Backoff
	notBefore    atomic.Int64 // unix nanos; supervision waits until then
}

// SensorStats summarises a virtual sensor's activity.
type SensorStats struct {
	Name     string
	Triggers uint64
	Outputs  uint64
	Errors   uint64
	// Dropped counts triggers shed because the runtime was stopping.
	Dropped uint64
	// Coalesced counts triggers an evaluation of the same input stream
	// covered: the rest of a burst, or an arrival that found another
	// already waiting for the running evaluation to go round again.
	Coalesced   uint64
	LastError   string
	OutputLive  int
	OutputTotal uint64
	Sources     []SourceStats
}

// SourceStats summarises one stream source.
type SourceStats struct {
	Stream     string
	Alias      string
	Wrapper    string
	WindowLive int
	Inserted   uint64
	Sampled    quality.Stats
	Buffered   int
	Gaps       uint64
	Restarts   uint64
	// RestartFails counts consecutive restarts that have not yet revived
	// the source (zero once data flows again).
	RestartFails uint64
	// Failed marks a source that exhausted its restart budget.
	Failed     bool
	FailReason string
}

// newVirtualSensor wires a validated descriptor into runtime state.
// Nothing starts until start() is called, so a failed construction
// leaves no goroutines behind. A non-nil reuseOut is the preserved
// output table of a state-preserving redeploy (its schema is known
// Equal to the descriptor's): the runtime binds to it instead of
// creating a fresh table, and construction failures never drop it.
//
// Any fallible step added here or in buildSource must be mirrored in
// Container.preflight, which promises Redeploy that this construction
// will succeed before the old runtime is torn down.
func newVirtualSensor(c *Container, desc *vsensor.Descriptor, reuseOut *storage.Table) (*VirtualSensor, error) {
	outSchema, err := desc.OutputSchema()
	if err != nil {
		return nil, err
	}
	window, err := desc.StorageWindow()
	if err != nil {
		return nil, err
	}
	name := stream.CanonicalName(desc.Name)
	vs := &VirtualSensor{
		name:      name,
		desc:      desc,
		container: c,
		outSchema: outSchema,
	}
	vs.statLastError.Store("")

	if reuseOut != nil {
		// Adopt the table's schema pointer so output elements keep the
		// identity fast path in Table.checkSchema (the schemas are Equal,
		// but equality is checked per insert; identity is free).
		vs.outSchema = reuseOut.Schema()
		vs.outTable = reuseOut
	} else {
		syncPolicy, ok := storage.ParseSyncPolicy(desc.Storage.Sync)
		if !ok {
			return nil, fmt.Errorf("core: %s: unknown storage sync policy %q", name, desc.Storage.Sync)
		}
		var flushInterval time.Duration
		if desc.Storage.FlushInterval != "" {
			flushInterval, err = time.ParseDuration(desc.Storage.FlushInterval)
			if err != nil {
				return nil, fmt.Errorf("core: %s: storage flush-interval: %w", name, err)
			}
		}
		outTable, err := c.store.CreateTable(name, outSchema, storage.TableOptions{
			Window:        window,
			Permanent:     desc.Storage.Permanent,
			Sync:          syncPolicy,
			FlushInterval: flushInterval,
			History:       desc.Storage.History == "disk",
		})
		if err != nil {
			return nil, err
		}
		vs.outTable = outTable
	}

	cleanup := func() {
		for _, in := range vs.streams {
			for _, src := range in.sources {
				c.store.DropTable(src.table.Name())
			}
		}
		if reuseOut == nil {
			c.store.DropTable(name)
		}
	}

	for i := range desc.Streams {
		spec := desc.Streams[i]
		stmt, err := sqlparser.Parse(spec.Query)
		if err != nil {
			cleanup()
			return nil, err // unreachable after Validate, kept for safety
		}
		in := &inputStream{spec: spec, stmt: stmt}
		// Stream-level bounds are shared by all of the stream's sources;
		// per-source chains consult them via Admit.
		in.rate = quality.NewRateLimiter(spec.Rate, c.clock, nil)
		in.count = quality.NewCountLimiter(spec.Count, nil)

		for j := range spec.Sources {
			srcSpec := spec.Sources[j]
			src, err := vs.buildSource(in, srcSpec)
			if err != nil {
				cleanup()
				return nil, err
			}
			in.sources = append(in.sources, src)
		}
		// Compile the output query once at deploy time when it runs over
		// a single source; multi-source joins keep the general Execute
		// path.
		if len(in.sources) == 1 {
			if cols := in.sources[0].outputColumns(c.engineOpts()); cols != nil {
				if plan, err := sqlengine.Compile(stmt, cols, in.sources[0].alias); err == nil {
					in.plan = plan
				}
			}
		}
		vs.streams = append(vs.streams, in)
	}
	return vs, nil
}

// sourceTableName builds the window table name for a source.
func sourceTableName(vs, streamName, alias string) string {
	return stream.CanonicalName(vs + "__" + streamName + "__" + alias)
}

func (vs *VirtualSensor) buildSource(in *inputStream, spec vsensor.StreamSource) (*sourceRuntime, error) {
	c := vs.container
	stmt, err := sqlparser.Parse(spec.Query)
	if err != nil {
		return nil, err
	}
	params := wrappers.Params{}
	for _, p := range spec.Address.Predicates {
		params[p.Key] = p.Value()
	}
	seed, err := params.Int("seed", 0)
	if err != nil {
		return nil, err
	}
	var w wrappers.Wrapper
	if spec.Address.Wrapper == vsensor.LocalWrapperKind {
		// Composition edge: the source is another sensor's output
		// stream — in-process when deployed here, a cluster remote edge
		// otherwise; never a platform wrapper. Constructed here (not
		// via the registry) because it binds to this container's
		// composition bus or federation.
		w, err = newCompositionSource(c, spec)
	} else {
		wrapperName := vs.name + "/" + in.spec.Name + "/" + spec.Alias
		w, err = c.registry.New(spec.Address.Wrapper, wrappers.Config{
			Name:   wrapperName,
			Params: params,
			Seed:   int64(seed),
			Clock:  c.clock,
		})
	}
	if err != nil {
		return nil, err
	}

	window, err := stream.ParseWindow(spec.StorageSize)
	if err != nil {
		return nil, err
	}
	table, err := c.store.CreateTable(sourceTableName(vs.name, in.spec.Name, spec.Alias),
		w.Schema(), storage.TableOptions{Window: window})
	if err != nil {
		return nil, err
	}

	src := &sourceRuntime{
		alias:   stream.CanonicalName(spec.Alias),
		spec:    spec,
		wrapper: w,
		stmt:    stmt,
		table:   table,
		slide:   spec.Slide,
	}
	if src.slide < 1 {
		src.slide = 1
	}
	src.failReason.Store("")
	// Restart escalation paces itself in supervision ticks: first retry
	// is immediate, later ones spread out to ~30 ticks so a dead device
	// stops costing a wrapper teardown per tick.
	src.restartBo = resilience.NewBackoff(c.opts.SuperviseInterval,
		30*c.opts.SuperviseInterval, int64(seed)+int64(len(vs.name)))

	// Compile the source query against the wrapper schema once, at
	// deploy time. Statement shapes the compiler does not cover fall
	// back to per-trigger Execute. Aggregate queries the maintainer
	// covers additionally get incremental maintenance: the table streams
	// insert/evict events into the maintainer and each trigger reads the
	// running aggregates instead of rescanning the window.
	if plan, err := sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(w.Schema()),
		vsensor.WrapperTable(), spec.Alias); err == nil {
		src.plan = plan
		if src.agg = newIncMaintainer(plan, w.Schema()); src.agg != nil {
			table.SetObserver(src.agg)
		}
	}

	// Quality chain, innermost stage first: the terminal sink inserts
	// into the window table and fires the stream. With a slide > 1 the
	// window advances on every arrival but processing fires only on
	// every slide-th element.
	terminal := func(e stream.Element) {
		if err := table.Insert(e); err != nil {
			vs.recordError(err)
			return
		}
		if src.arrivals.Add(1)%uint64(src.slide) == 0 {
			vs.fire(in, 1)
		}
	}
	// The batch terminal lands a whole burst with one InsertBatch (one
	// table lock, one WAL group append) and fires once for all the slide
	// boundaries the burst crosses — the trigger count the per-element
	// path would produce, served by one evaluation over the whole burst.
	terminalBatch := func(batch []stream.Element) {
		if len(batch) == 0 {
			return
		}
		if err := table.InsertBatch(batch); err != nil {
			vs.recordError(err)
			return
		}
		vs.container.metrics.Counter("ingest_batches").Inc()
		n := uint64(len(batch))
		total := src.arrivals.Add(n)
		slide := uint64(src.slide)
		vs.fire(in, int(total/slide-(total-n)/slide))
	}
	src.buffer = quality.NewDisconnectBuffer(spec.DisconnectBuffer, terminal)
	src.buffer.SetBatchSink(terminalBatch)
	src.repair = quality.NewRepairer(vs.repairPolicy(params), src.buffer.Offer)
	src.repair.SetBatchSink(src.buffer.OfferBatch)

	// The sampler feeds the shared stream-level bounds (rate and
	// lifetime count apply to the whole input stream), which gate this
	// source's repair → buffer → table chain.
	src.sampler = quality.NewSampler(spec.SamplingRate, int64(seed)+1, func(e stream.Element) {
		if in.rate.Admit(e) && in.count.Admit(e) {
			src.repair.Offer(e)
		}
	})
	src.sampler.SetBatchSink(func(batch []stream.Element) {
		batch = in.rate.AdmitBatch(batch)
		batch = in.count.AdmitBatch(batch)
		src.repair.OfferBatch(batch)
	})

	gapTimeout, err := params.Duration("gap-timeout", 0)
	if err != nil {
		return nil, err
	}
	src.gap = quality.NewGapDetector(gapTimeout, c.clock, nil)
	return src, nil
}

// repairPolicy reads the optional repair parameter from the address
// predicates.
func (vs *VirtualSensor) repairPolicy(params wrappers.Params) quality.RepairPolicy {
	policy, ok := quality.ParseRepairPolicy(params.Get("repair", ""))
	if !ok {
		vs.recordError(fmt.Errorf("core: %s: unknown repair policy %q, using none",
			vs.name, params.Get("repair", "")))
		return quality.RepairNone
	}
	return policy
}

// ingress is the wrapper-facing entry point for a source: processing
// step 1 — stamp the element with the container's local clock when the
// producer supplied no timestamp, and record the arrival time.
func (vs *VirtualSensor) ingress(src *sourceRuntime, e stream.Element) {
	now := vs.container.clock.Now()
	if !e.HasTimestamp() {
		e = e.WithTimestamp(now)
	}
	e = e.WithArrival(now)
	src.gap.Offer(e)
	src.sampler.Offer(e)
}

// ingressBatch is the burst form of ingress: the whole batch is stamped
// with one arrival instant and crosses the quality chain and the window
// table through the batch-aware paths (one lock acquisition per stage,
// one WAL group append). Wrappers implementing BatchEmitter land here.
func (vs *VirtualSensor) ingressBatch(src *sourceRuntime, elems []stream.Element) {
	if len(elems) == 0 {
		return
	}
	now := vs.container.clock.Now()
	for i := range elems {
		if !elems[i].HasTimestamp() {
			elems[i] = elems[i].WithTimestamp(now)
		}
		elems[i] = elems[i].WithArrival(now)
	}
	src.gap.OfferBatch(elems)
	src.sampler.OfferBatch(elems)
}

// fire accounts n triggers of one input stream — the slide crossings of
// an arrival or of a burst, whose elements are already in the window —
// and evaluates the stream on the calling goroutine (the paper:
// "production of a new output stream element is always triggered by
// the arrival of a data stream element from one of its input
// streams"). A burst evaluates once, so n-1 of its triggers coalesce.
// An arrival that finds the stream evaluating leaves it pending and
// returns: the running evaluation goes round again and sees its
// element. Once stop has begun, triggers are shed.
func (vs *VirtualSensor) fire(in *inputStream, n int) {
	if n <= 0 {
		return
	}
	vs.statTriggers.Add(uint64(n))
	arrived := time.Now()
	vs.lifeMu.RLock()
	if vs.stopping {
		vs.lifeMu.RUnlock()
		vs.statDropped.Add(uint64(n))
		return
	}
	coalesced := n - 1
	in.mu.Lock()
	run := !in.running
	switch {
	case run:
		in.running = true
		vs.wg.Add(1)
	case in.pending:
		coalesced++
	default:
		in.pending, in.pendingSince = true, arrived
	}
	in.mu.Unlock()
	vs.lifeMu.RUnlock()
	if coalesced > 0 {
		vs.statCoalesced.Add(uint64(coalesced))
		vs.container.metrics.Counter("triggers_coalesced").Add(uint64(coalesced))
	}
	if run {
		vs.evaluate(in, arrived, true)
	}
}

// inlineRounds bounds the evaluations of one stream a delivering
// goroutine runs back to back. Arrivals still pending after that are
// caught up on a goroutine of the stream's own, so a producer that
// keeps a stream busy goes back to producing.
const inlineRounds = 4

// evaluate runs the stream's evaluation, and again for as long as
// arrivals leave it pending: up to inlineRounds times on the delivering
// goroutine (inline), without bound on a catch-up goroutine. The caller
// has set running and counted the evaluation in wg.
func (vs *VirtualSensor) evaluate(in *inputStream, arrived time.Time, inline bool) {
	defer vs.wg.Done()
	for round := 1; ; round++ {
		vs.safeProcess(in, arrived)
		in.mu.Lock()
		if !in.pending {
			in.running = false
			in.mu.Unlock()
			return
		}
		in.pending, arrived = false, in.pendingSince
		in.mu.Unlock()
		if inline && round == inlineRounds {
			vs.wg.Add(1) // this evaluation's own count keeps wg above zero
			go vs.evaluate(in, arrived, false)
			return
		}
	}
}

// start launches the wrappers.
func (vs *VirtualSensor) start() error {
	for _, in := range vs.streams {
		for _, src := range in.sources {
			if err := vs.startWrapper(src); err != nil {
				vs.stop()
				return fmt.Errorf("core: starting wrapper %s for %s: %w",
					src.spec.Address.Wrapper, vs.name, err)
			}
		}
	}
	return nil
}

// startWrapper starts (or restarts) one source's wrapper, preferring
// the batch emission path when the wrapper supports it. The supervision
// loop shares this with start so a restarted wrapper keeps its batch
// ingestion semantics.
func (vs *VirtualSensor) startWrapper(src *sourceRuntime) error {
	emit := func(e stream.Element) { vs.ingress(src, e) }
	if be, ok := src.wrapper.(wrappers.BatchEmitter); ok {
		return be.StartBatch(emit, func(batch []stream.Element) { vs.ingressBatch(src, batch) })
	}
	return src.wrapper.Start(emit)
}

// safeProcess runs one evaluation with panic isolation (life-cycle
// manager duty): a panicking query is recovered and counted, and the
// goroutine that delivered the element carries on.
func (vs *VirtualSensor) safeProcess(in *inputStream, arrived time.Time) {
	defer func() {
		if r := recover(); r != nil {
			vs.recordError(fmt.Errorf("core: %s: processing panic: %v", vs.name, r))
		}
	}()
	vs.process(in, arrived)
}

// process executes steps 2–5 of the paper's processing pipeline for one
// trigger of the stream. Source evaluation picks the cheapest
// applicable tier: incremental aggregates (O(1), no window scan),
// compiled plan over the zero-copy window view (no snapshot copy, no
// re-planning), or the full engine for statement shapes the compiler
// does not cover.
func (vs *VirtualSensor) process(in *inputStream, arrived time.Time) {
	c := vs.container
	start := time.Now()

	// Steps 2+3: select each source's window and evaluate the source
	// query into a temporary relation named by the alias.
	temps := make(sqlengine.MapCatalog, len(in.sources))
	for _, src := range in.sources {
		rel, err := vs.evalSource(src)
		if err != nil {
			vs.recordError(fmt.Errorf("core: %s/%s source query: %w", vs.name, src.alias, err))
			return
		}
		temps[src.alias] = rel
	}

	// Step 4: the input stream's output query over the temporaries.
	var outRel *sqlengine.Relation
	var err error
	if in.plan != nil {
		outRel, err = in.plan.Execute(temps[in.sources[0].alias].Rows, c.engineOpts())
	} else {
		outRel, err = sqlengine.Execute(in.stmt, temps, c.engineOpts())
	}
	if err != nil {
		vs.recordError(fmt.Errorf("core: %s/%s output query: %w", vs.name, in.spec.Name, err))
		return
	}

	// Step 5: persist the outputs with one InsertBatch, then notify:
	// in-process subscribers are called here, downstream sensors on
	// local edges evaluate here, depth-first, and the registered-query
	// sweep goes to the repository's pool (inline under SyncProcessing).
	elems, err := elementsFromRelation(vs.outSchema, outRel, c.clock.Now())
	if err != nil {
		vs.recordError(err)
		return
	}
	if len(elems) > 0 {
		if err := vs.outTable.InsertBatch(elems); err != nil {
			vs.recordError(err)
			return
		}
		vs.statOutputs.Add(uint64(len(elems)))
		for _, e := range elems {
			c.notifier.Publish(vs.name, e)
		}
		c.locals.deliver(vs.name, elems)
		if c.opts.SyncProcessing {
			c.queries.EvaluateFor(vs.name, c.Catalog(), c.engineOpts())
		} else {
			c.queries.ScheduleSweep(vs.name, c.Catalog(), c.engineOpts())
		}
	}

	c.metrics.Histogram("processing_time").Observe(time.Since(start))
	c.metrics.Histogram("trigger_latency").Observe(time.Since(arrived))
	c.metrics.Counter("elements_processed").Inc()
}

// evalSource evaluates one source query over its current window.
func (vs *VirtualSensor) evalSource(src *sourceRuntime) (*sqlengine.Relation, error) {
	c := vs.container
	if src.agg != nil {
		if src.agg.NeedsResync() {
			// Bounded float drift: rebuild the aggregate state from the
			// live window (SetObserver replays it under the table lock).
			src.table.SetObserver(src.agg)
			c.metrics.Counter("source_eval_resyncs").Inc()
		}
		// Read under the table lock so the result reflects exactly the
		// live window — never the instant between an insert and the
		// eviction it displaces. WithLock applies time-window retention
		// first, so every expired row has been evicted from the state.
		var rel *sqlengine.Relation
		src.table.WithLock(func() { rel = src.agg.Result(c.engineOpts()) })
		if rel != nil {
			c.metrics.Counter("source_eval_incremental").Inc()
			return rel, nil
		}
		// Poisoned maintainer: fall through so the full engine surfaces
		// the underlying type error on the normal path.
	}
	if src.plan != nil {
		c.metrics.Counter("source_eval_compiled").Inc()
		return src.plan.ExecuteSource(src.table, c.engineOpts())
	}
	c.metrics.Counter("source_eval_general").Inc()
	return src.interpret(sqlengine.RelationOfSource(src.table), c.engineOpts())
}

// interpret runs the source query on the interpreter over win, the
// window's rows under both names the statement may call them.
func (src *sourceRuntime) interpret(win *sqlengine.Relation, opts sqlengine.Options) (*sqlengine.Relation, error) {
	return sqlengine.Execute(src.stmt, sqlengine.MapCatalog{
		vsensor.WrapperTable(): win,
		src.alias:              win,
	}, opts)
}

// outputColumns is the layout of the source query's result, which the
// statement and the wrapper schema fix: the plan's, or, for a statement
// that does not compile, the interpreter's over an empty window (nil
// when even that fails — the trigger will report why).
func (src *sourceRuntime) outputColumns(opts sqlengine.Options) []sqlengine.Column {
	if src.plan != nil {
		return src.plan.OutputColumns()
	}
	rel, err := src.interpret(&sqlengine.Relation{Cols: sqlengine.ColumnsOfSchema(src.table.Schema())}, opts)
	if err != nil {
		return nil
	}
	return rel.Cols
}

// stop halts the wrappers and waits for every evaluation in flight,
// with the rounds arrivals already left pending; triggers after that
// are shed. It drops no tables (the container owns table lifecycle).
// Undeploy and the redeploy swap rely on this drain: once stop returns,
// the runtime neither reads its windows nor writes its output again.
func (vs *VirtualSensor) stop() {
	vs.stopOnce.Do(func() {
		for _, in := range vs.streams {
			for _, src := range in.sources {
				if err := src.wrapper.Stop(); err != nil {
					vs.recordError(err)
				}
			}
		}
		vs.lifeMu.Lock()
		vs.stopping = true
		vs.lifeMu.Unlock()
		vs.wg.Wait()
	})
}

func (vs *VirtualSensor) recordError(err error) {
	vs.statErrors.Add(1)
	vs.statLastError.Store(err.Error())
	vs.container.metrics.Counter("processing_errors").Inc()
	if vs.container.opts.Logger != nil {
		vs.container.opts.Logger.Printf("gsn: %s: %v", vs.name, err)
	}
}

// Name returns the canonical sensor name.
func (vs *VirtualSensor) Name() string { return vs.name }

// Descriptor returns the deployed descriptor.
func (vs *VirtualSensor) Descriptor() *vsensor.Descriptor { return vs.desc }

// OutputSchema returns the output structure as a schema.
func (vs *VirtualSensor) OutputSchema() *stream.Schema { return vs.outSchema }

// Output returns the output window table.
func (vs *VirtualSensor) Output() *storage.Table { return vs.outTable }

// Stats snapshots the sensor's runtime counters.
func (vs *VirtualSensor) Stats() SensorStats {
	st := SensorStats{
		Name:      vs.name,
		Triggers:  vs.statTriggers.Load(),
		Outputs:   vs.statOutputs.Load(),
		Errors:    vs.statErrors.Load(),
		Dropped:   vs.statDropped.Load(),
		Coalesced: vs.statCoalesced.Load(),
		LastError: vs.statLastError.Load().(string),
	}
	ot := vs.outTable.Stats()
	st.OutputLive = ot.Live
	st.OutputTotal = ot.Inserted
	for _, in := range vs.streams {
		for _, src := range in.sources {
			ts := src.table.Stats()
			st.Sources = append(st.Sources, SourceStats{
				Stream:     in.spec.Name,
				Alias:      src.alias,
				Wrapper:    src.wrapper.Kind(),
				WindowLive: ts.Live,
				Inserted:   ts.Inserted,
				Sampled:    src.sampler.Stats(),
				Buffered:   src.buffer.Buffered(),
				Gaps:       src.gap.Gaps(),
				Restarts:   src.restarts.Load(),

				RestartFails: src.restartFails.Load(),
				Failed:       src.failed.Load(),
				FailReason:   src.failReason.Load().(string),
			})
		}
	}
	return st
}

// Pulse drives every pull-capable wrapper of the sensor once: each
// source whose wrapper implements wrappers.Producer produces one
// reading, which flows through the full ingress path. Deterministic
// tests and the benchmark harness use it instead of real-time pacing.
// It returns the number of elements injected.
func (vs *VirtualSensor) Pulse() int {
	injected := 0
	for _, in := range vs.streams {
		for _, src := range in.sources {
			p, ok := src.wrapper.(wrappers.Producer)
			if !ok {
				continue
			}
			e, err := p.Produce()
			if err != nil {
				if err != wrappers.ErrNoReading {
					vs.recordError(err)
				}
				continue
			}
			vs.ingress(src, e)
			injected++
		}
	}
	return injected
}

// PulseBatch drives every batch-capable wrapper of the sensor once:
// each source whose wrapper implements wrappers.BatchProducer produces
// up to max readings in one call, injected through the batch ingress
// path (sources with only a plain Producer fall back to one element).
// The ingest benchmarks and deterministic burst tests use it. It
// returns the number of elements injected.
func (vs *VirtualSensor) PulseBatch(max int) int {
	if max < 1 {
		max = 1
	}
	injected := 0
	for _, in := range vs.streams {
		for _, src := range in.sources {
			bp, ok := src.wrapper.(wrappers.BatchProducer)
			if !ok {
				p, ok := src.wrapper.(wrappers.Producer)
				if !ok {
					continue
				}
				e, err := p.Produce()
				if err != nil {
					if err != wrappers.ErrNoReading {
						vs.recordError(err)
					}
					continue
				}
				vs.ingress(src, e)
				injected++
				continue
			}
			elems, err := bp.ProduceBatch(max)
			if err != nil && err != wrappers.ErrNoReading {
				vs.recordError(err)
			}
			// A mid-batch producer error still delivers the produced
			// prefix, matching the paced batch path.
			if len(elems) > 0 {
				injected += len(elems)
				vs.ingressBatch(src, elems)
			}
		}
	}
	return injected
}
