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
	outOpts   storage.TableOptions // the output table's, when attach creates it
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
	plan    *sqlengine.Plan // the stream query over the product of the sources' results
	out     outputMap       // the plan's columns placed in the output structure
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
	window  stream.Window
	table   *storage.Table // nil until attach
	// query is the source query over the window table, compiled against
	// the wrapper schema at deploy time; attach gives it its maintainer.
	query *tableQuery

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

// newVirtualSensor builds a validated descriptor's runtime: every
// fallible step of construction, with no store change and no goroutine
// started. It parses the windows and the output storage options,
// constructs the wrappers (factories are pure constructors: nothing
// starts), compiles the source plans against the wrappers' schemas, and
// binds each stream query and its output map over the sources' layouts.
// Deploy and both redeploy paths build this way, a redeploy beside the
// runtime it replaces, which serves on untouched if the build fails. A
// built runtime is attached (attach) and started (start) by the
// container; a failed build stops the wrappers it constructed.
func newVirtualSensor(c *Container, desc *vsensor.Descriptor) (*VirtualSensor, error) {
	outSchema, err := desc.OutputSchema()
	if err != nil {
		return nil, err
	}
	syncPolicy, _ := storage.ParseSyncPolicy(desc.Storage.Sync) // Validate admitted it
	vs := &VirtualSensor{
		name:      stream.CanonicalName(desc.Name),
		desc:      desc,
		container: c,
		outSchema: outSchema,
		outOpts: storage.TableOptions{
			Window:        desc.StorageWindow(),
			Permanent:     desc.Storage.Permanent,
			Sync:          syncPolicy,
			FlushInterval: desc.FlushInterval(),
			History:       desc.Storage.History == "disk",
		},
	}
	vs.statLastError.Store("")
	if err := vs.buildStreams(); err != nil {
		vs.stop()
		return nil, err
	}
	return vs, nil
}

// buildStreams builds the descriptor's input streams and their sources.
// A stream is listed before its sources are built, so a failure midway
// leaves every wrapper constructed so far where stop reaches it.
func (vs *VirtualSensor) buildStreams() error {
	c := vs.container
	for _, spec := range vs.desc.Streams {
		// Stream-level bounds are shared by all of the stream's sources;
		// per-source chains consult them via Admit.
		in := &inputStream{
			spec:  spec,
			rate:  quality.NewRateLimiter(spec.Rate, c.clock),
			count: quality.NewCountLimiter(spec.Count),
		}
		vs.streams = append(vs.streams, in)

		inputs := make([]sqlengine.Input, len(spec.Sources))
		for j := range spec.Sources {
			src, err := vs.buildSource(in, spec.Sources[j])
			if err != nil {
				return err
			}
			in.sources = append(in.sources, src)
			cols, err := src.outputColumns(c.engineOpts())
			if err != nil {
				return fmt.Errorf("core: %s/%s/%s: source query: %w", vs.name, spec.Name, src.alias, err)
			}
			inputs[j] = sqlengine.Input{Cols: cols, Names: []string{src.alias}}
		}
		// Bind the stream query over the product of the sources' results
		// and map it onto the output: a query that could only fail is refused.
		stmt, err := sqlparser.Parse(spec.Query)
		if err == nil {
			in.plan, err = sqlengine.CompileProduct(stmt, inputs...)
		}
		if err == nil {
			in.out, err = newOutputMap(vs.outSchema, in.plan.OutputColumns())
		}
		if err != nil {
			return fmt.Errorf("core: %s/%s: stream query refused: %w", vs.name, spec.Name, err)
		}
	}
	return nil
}

// attach creates the runtime's tables in the store: the output table —
// or, when keep is non-nil, it adopts keep, the output table a
// preserving redeploy hands over (its schema equals the descriptor's) —
// and one window per source, named <SENSOR>__<STREAM>__<ALIAS>. On error
// the tables created so far stay set on vs for the container to drop.
func (vs *VirtualSensor) attach(keep *storage.Table) error {
	c := vs.container
	if keep != nil {
		// Adopt the table's schema pointer so output elements keep the
		// identity fast path in Table.checkSchema (the schemas are Equal,
		// but equality is checked per insert; identity is free).
		vs.outSchema, vs.outTable = keep.Schema(), keep
	} else {
		t, err := c.store.CreateTable(vs.name, vs.outSchema, vs.outOpts)
		if err != nil {
			return err
		}
		vs.outTable = t
	}
	for _, in := range vs.streams {
		for _, src := range in.sources {
			t, err := c.store.CreateTable(sourceTableName(vs.name, in.spec.Name, src.spec.Alias),
				src.wrapper.Schema(), storage.TableOptions{Window: src.window})
			if err != nil {
				return err
			}
			src.table = t
			src.query.maintain(t, c.sourceResyncs)
		}
	}
	return nil
}

// sourceTableName builds the window table name for a source.
func sourceTableName(vs, streamName, alias string) string {
	return stream.CanonicalName(vs + "__" + streamName + "__" + alias)
}

// buildSource builds one source. Constructing the wrapper is its last
// fallible step, so a source that fails holds no wrapper.
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
	gapTimeout, err := params.Duration("gap-timeout", 0)
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

	src := &sourceRuntime{
		alias:   stream.CanonicalName(spec.Alias),
		spec:    spec,
		wrapper: w,
		window:  spec.Window(),
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
	// deploy time, under both names it may call the window by.
	src.query = newTableQuery(stmt, w.Schema(), vsensor.WrapperTable(), spec.Alias)

	// Quality chain, innermost stage first: the terminal sink inserts
	// into the window table (attach creates it) and fires the stream.
	// With a slide > 1 the window advances on every arrival but
	// processing fires only on every slide-th element.
	terminal := func(e stream.Element) {
		if err := src.table.Insert(e); err != nil {
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
		if err := src.table.InsertBatch(batch); err != nil {
			vs.recordError(err)
			return
		}
		vs.container.ingestBatch.Inc()
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
		vs.container.triggersCoalesced.Add(uint64(coalesced))
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

// start launches the wrappers of an attached runtime. On error the
// caller stops it, which stops the wrappers already started.
func (vs *VirtualSensor) start() error {
	for _, in := range vs.streams {
		for _, src := range in.sources {
			if err := vs.startWrapper(src); err != nil {
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
// trigger of the stream. Each source query is answered by the cheapest
// tier it has (tableQuery.read): maintained aggregates (no window
// scan), its bound plan over the zero-copy window, or the interpreter.
func (vs *VirtualSensor) process(in *inputStream, arrived time.Time) {
	c := vs.container
	start := time.Now()

	// Steps 2+3: select each source's window and evaluate the source
	// query over it.
	results := make([]*sqlengine.Relation, len(in.sources))
	for i, src := range in.sources {
		rel, err := vs.evalSource(src)
		if err != nil {
			vs.recordError(fmt.Errorf("core: %s/%s source query: %w", vs.name, src.alias, err))
			return
		}
		results[i] = rel
	}

	// Step 4: the stream query's deploy-time plan over the results.
	outRel, err := in.plan.ExecuteProduct(results, c.engineOpts())
	if err != nil {
		vs.recordError(fmt.Errorf("core: %s/%s output query: %w", vs.name, in.spec.Name, err))
		return
	}

	// Step 5: persist the outputs with one InsertBatch, then notify:
	// in-process subscribers are called here, downstream sensors on
	// local edges evaluate here, depth-first, and the registered queries
	// are swept here — all inside this evaluation, which lifecycle
	// operations wait for.
	elems, err := in.out.elements(vs.outSchema, outRel.Rows, c.clock.Now())
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
		c.queries.EvaluateFor(vs.name, c.engineOpts())
	}

	c.processingTime.Observe(time.Since(start))
	c.triggerLatency.Observe(time.Since(arrived))
	c.elementsProcessed.Inc()
}

// evalSource evaluates one source query over its current window.
func (vs *VirtualSensor) evalSource(src *sourceRuntime) (*sqlengine.Relation, error) {
	c := vs.container
	rel, t, err := src.query.read(src.table, &windowCatalog{src: src}, c.engineOpts())
	c.sourceTiers[t].Inc()
	return rel, err
}

// windowCatalog is a source query's catalog on the interpreter: both
// names the statement may call its window by, WRAPPER and the source's
// alias, resolve to one materialisation of the window, made at the
// first lookup (or win, when set).
type windowCatalog struct {
	src *sourceRuntime
	win *sqlengine.Relation
}

// Relation implements sqlengine.Catalog.
func (w *windowCatalog) Relation(name string) (*sqlengine.Relation, error) {
	if n := stream.CanonicalName(name); n != vsensor.WrapperTable() && n != w.src.alias {
		return nil, fmt.Errorf("core: unknown stream %q", name)
	}
	if w.win == nil {
		w.win = sqlengine.RelationOfSource(w.src.table)
	}
	return w.win, nil
}

// outputColumns is the layout of the source query's result, which the
// statement and the wrapper schema fix: the plan's, or, for a statement
// that does not compile, the interpreter's over an empty window.
func (src *sourceRuntime) outputColumns(opts sqlengine.Options) ([]sqlengine.Column, error) {
	if src.query.plan != nil {
		return src.query.plan.OutputColumns(), nil
	}
	empty := &sqlengine.Relation{Cols: sqlengine.ColumnsOfSchema(src.wrapper.Schema())}
	rel, err := sqlengine.Execute(src.query.stmt, &windowCatalog{src: src, win: empty}, opts)
	if err != nil {
		return nil, err
	}
	return rel.Cols, nil
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
	vs.container.processingErrors.Inc()
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
