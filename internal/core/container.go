// Package core implements the GSN container (paper §4, Figure 2): the
// virtual sensor manager with its life-cycle manager and input stream
// manager, the storage layer binding, the query manager (query
// processor + query repository + notification manager), the local
// composition bus and dependency graph, and the supervision loop. A
// container hosts and manages any number of virtual sensors
// concurrently and supports adding, removing and reconfiguring them
// while running. docs/architecture.md walks the full data path from
// wrapper arrival to client query through this package.
package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"gsn/internal/access"
	"gsn/internal/directory"
	"gsn/internal/integrity"
	"gsn/internal/metrics"
	"gsn/internal/notify"
	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
	"gsn/internal/vsensor"
	"gsn/internal/wrappers"
)

// Options configures a container. The zero value is a working
// in-memory, real-time container.
type Options struct {
	// Name identifies the container (node) in logs and the directory.
	Name string
	// Clock drives timestamping, windows and rate control. Nil means
	// the system clock; tests install a manual clock.
	Clock stream.Clock
	// DataDir enables permanent storage for descriptors that request
	// it. Empty disables persistence.
	DataDir string
	// Registry supplies wrapper factories; nil means the process-wide
	// default registry.
	Registry *wrappers.Registry
	// NodeAddress is the externally reachable address published to the
	// directory (e.g. "http://host:22001").
	NodeAddress string
	// DirectoryTTL is the publication lifetime (default 5 minutes).
	DirectoryTTL time.Duration
	// Directory lets multiple in-process containers share one registry
	// (tests, examples); nil creates a private one.
	Directory *directory.Registry
	// Notify tunes the notification manager.
	Notify notify.Options
	// SyncProcessing runs each registered-query sweep on the goroutine
	// whose output triggered it instead of the repository's pool, and
	// turns the supervision loop off: the deterministic mode of tests
	// and benchmarks. Triggers evaluate on the goroutine that delivered
	// their element either way.
	SyncProcessing bool
	// MaxQueryRows bounds query results (0 = engine default).
	MaxQueryRows int
	// Logger receives warnings and supervision events; nil silences
	// them. *log.Logger satisfies it.
	Logger Logger
	// SuperviseInterval is the supervision loop period (default 1s;
	// the loop does not run under SyncProcessing).
	SuperviseInterval time.Duration
	// MaxWrapperRestarts bounds consecutive restarts of a silent
	// source's wrapper before supervision marks the source terminally
	// failed (default 8; negative = unlimited). Restart attempts pace
	// themselves with backoff either way.
	MaxWrapperRestarts int
	// StorageFS substitutes the filesystem the storage layer opens its
	// WAL and history files through — the fault-injection seam
	// (storage.NewFaultFS). Nil means the real filesystem.
	StorageFS storage.FS
}

// Logger is the minimal logging contract the container needs;
// *log.Logger satisfies it.
type Logger interface {
	Printf(format string, v ...any)
}

// Container is one GSN node runtime.
type Container struct {
	opts     Options
	name     string
	clock    stream.Clock
	store    *storage.Store
	notifier *notify.Manager
	dir      *directory.Registry
	acl      *access.Controller
	keys     *integrity.KeyRing
	metrics  *metrics.Registry
	registry *wrappers.Registry
	queries  *QueryRepository
	results  *resultCache

	// locals is the composition bus: output streams fanning out to the
	// local sources of downstream sensors (its own lock; never held
	// while delivering).
	locals *localFanout

	// lifecycle serialises multi-step sensor lifecycle operations
	// (deploy, undeploy, redeploy swap, cascade, close) against each
	// other. The data path never takes it: triggers, queries and
	// deliveries run under mu/table locks only, so a drain inside a
	// swap cannot deadlock against it.
	lifecycle sync.Mutex

	mu      sync.RWMutex
	sensors map[string]*VirtualSensor
	// deps is the dependency graph: sensor → the upstream sensors its
	// local sources consume. Maintained by Deploy/Redeploy/Undeploy
	// under mu; see graph.go.
	deps   map[string][]string
	closed bool

	// cluster is the injected federation (nil standalone); see
	// cluster.go. routedQueries tracks continuous queries forwarded to
	// owning peers, keyed by the negative ids handed to clients.
	clusterMu     sync.RWMutex
	cluster       Cluster
	routedMu      sync.Mutex
	routedQueries map[int64]func()
	routedNext    int64

	superviseStop chan struct{}
	superviseDone chan struct{}
}

// New creates and starts a container.
func New(opts Options) (*Container, error) {
	if opts.Clock == nil {
		opts.Clock = stream.SystemClock()
	}
	if opts.Registry == nil {
		opts.Registry = wrappers.Default()
	}
	if opts.Name == "" {
		opts.Name = "gsn-node"
	}
	if opts.SuperviseInterval <= 0 {
		opts.SuperviseInterval = time.Second
	}
	store, err := storage.NewStore(opts.Clock, opts.DataDir)
	if err != nil {
		return nil, err
	}
	if opts.StorageFS != nil {
		store.SetFS(opts.StorageFS)
	}
	reg := metrics.NewRegistry()
	// WAL append/flush failures — including asynchronous group-commit
	// losses — surface on this counter.
	store.SetLogErrorCounter(reg.Counter("storage_log_errors"))
	// Every time a degraded table's recovery loop re-arms its WAL and
	// history tiers, this ticks — the self-healing success signal.
	store.SetWalReopenCounter(reg.Counter("wal_reopens_total"))
	// History-tier (disk storage) activity: page and buffer-pool traffic
	// plus checkpoint count, aggregated over every history table.
	store.SetHistoryMetrics(&storage.HistoryMetrics{
		PagesRead:     reg.Counter("pages_read"),
		PagesWritten:  reg.Counter("pages_written"),
		PoolHits:      reg.Counter("pool_hits"),
		PoolEvictions: reg.Counter("pool_evictions"),
		Checkpoints:   reg.Counter("checkpoints_total"),
	})
	dir := opts.Directory
	if dir == nil {
		dir = directory.NewRegistry(opts.Clock, opts.DirectoryTTL)
	}
	c := &Container{
		opts:     opts,
		name:     opts.Name,
		clock:    opts.Clock,
		store:    store,
		notifier: notify.NewManager(opts.Notify),
		dir:      dir,
		acl:      access.NewController(),
		keys:     integrity.NewKeyRing(),
		metrics:  reg,
		registry: opts.Registry,
		queries:  NewQueryRepository(reg),
		sensors:  make(map[string]*VirtualSensor),
		deps:     make(map[string][]string),
		locals:   newLocalFanout(),
	}
	c.results = newResultCache(store, reg)
	if !opts.SyncProcessing {
		c.superviseStop = make(chan struct{})
		c.superviseDone = make(chan struct{})
		go c.supervise()
	}
	return c, nil
}

// engineOpts builds the SQL engine options for this container.
func (c *Container) engineOpts() sqlengine.Options {
	return sqlengine.Options{
		Clock:   c.clock,
		MaxRows: c.opts.MaxQueryRows,
	}
}

// Deploy validates a descriptor and brings the virtual sensor online:
// wrapper instantiation, window tables, directory publication. Local
// sources are recorded as dependency-graph edges; every upstream they
// name must already be deployed (see DeployAll for batches).
// Deployment is atomic — on any error nothing remains.
func (c *Container) Deploy(desc *vsensor.Descriptor) error {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	return c.deploy(desc)
}

// deploy is Deploy with the lifecycle mutex held.
func (c *Container) deploy(desc *vsensor.Descriptor) error {
	if desc == nil {
		return fmt.Errorf("core: nil descriptor")
	}
	if err := desc.Validate(); err != nil {
		return err
	}
	name := stream.CanonicalName(desc.Name)
	deps := desc.LocalDependencies()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("core: container %s is closed", c.name)
	}
	if _, exists := c.sensors[name]; exists {
		c.mu.Unlock()
		return fmt.Errorf("core: virtual sensor %s is already deployed", name)
	}
	if err := c.checkDepsLocked(name, deps); err != nil {
		c.mu.Unlock()
		return err
	}
	vs, err := newVirtualSensor(c, desc, nil)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.sensors[name] = vs
	c.deps[name] = deps
	c.mu.Unlock()

	if err := vs.start(); err != nil {
		c.removeSensor(name, vs, false)
		return err
	}
	c.dir.Publish(name, c.opts.NodeAddress, desc.MetadataMap(), c.opts.DirectoryTTL)
	for _, n := range desc.Notify {
		if err := c.attachNotification(name, n); err != nil {
			c.logf("gsn: %s: %v", name, err)
		}
	}
	c.metrics.Counter("deployments").Inc()
	c.metrics.Counter("deploys_total").Inc()
	c.logf("gsn: deployed %s (%d input stream(s), %d local dep(s))",
		name, len(desc.Streams), len(deps))
	return nil
}

// DeployXML parses and deploys a descriptor document.
func (c *Container) DeployXML(data []byte) error {
	desc, err := vsensor.Parse(data)
	if err != nil {
		return err
	}
	return c.Deploy(desc)
}

// attachNotification wires one declarative <notification> element.
func (c *Container) attachNotification(sensor string, n vsensor.Notification) error {
	var ch notify.Channel
	switch n.Channel {
	case "log":
		w := c.opts.Logger
		if w == nil {
			return nil // nowhere to log; silently skip
		}
		ch = notify.NewLogChannel(loggerWriter{w})
	case "webhook":
		ch = notify.NewWebhookChannel(n.Target)
	case "file":
		fc, err := notify.NewFileChannel(n.Target)
		if err != nil {
			return err
		}
		ch = fc
	default:
		return fmt.Errorf("core: unknown notification channel %q", n.Channel)
	}
	_, err := c.notifier.Subscribe(sensor, ch)
	return err
}

// loggerWriter adapts the container's Logger to the writer a
// notify.LogChannel prints its lines to; a log channel may block, so it
// is delivered from its own queue, never on the producing goroutine.
type loggerWriter struct{ l Logger }

func (w loggerWriter) Write(p []byte) (int, error) {
	w.l.Printf("%s", bytes.TrimSuffix(p, []byte("\n")))
	return len(p), nil
}

// Undeploy removes a virtual sensor: wrappers stop, tables drop,
// subscriptions and client queries for it are cancelled, the directory
// entry is withdrawn. Evaluations in flight finish first. A
// sensor other sensors consume through local sources refuses to
// undeploy — remove the dependents first or use UndeployCascade.
func (c *Container) Undeploy(name string) error {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	return c.undeploy(name)
}

// undeploy is Undeploy with the lifecycle mutex held.
func (c *Container) undeploy(name string) error {
	canonical := stream.CanonicalName(name)
	c.mu.Lock()
	vs, ok := c.sensors[canonical]
	if ok {
		if deps := c.dependentsLocked(canonical); len(deps) > 0 {
			c.mu.Unlock()
			return fmt.Errorf("core: virtual sensor %s has local dependents %v; undeploy them first or use UndeployCascade",
				canonical, deps)
		}
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: virtual sensor %s is not deployed", canonical)
	}
	c.removeSensor(canonical, vs, true)
	c.notifier.UnsubscribeSensor(canonical)
	c.queries.UnregisterSensor(canonical)
	c.dir.Unpublish(canonical, c.opts.NodeAddress)
	c.metrics.Counter("undeployments").Inc()
	c.logf("gsn: undeployed %s", canonical)
	return nil
}

// removeSensor tears a runtime down. destroyState additionally deletes
// the output table's on-disk history state (pages, index, WAL) — set
// on explicit undeploy, where keeping files for a sensor that no
// longer exists would orphan them; container shutdown and deploy
// rollback keep the files for the next open.
func (c *Container) removeSensor(name string, vs *VirtualSensor, destroyState bool) {
	vs.stop()
	c.mu.Lock()
	delete(c.sensors, name)
	delete(c.deps, name)
	c.mu.Unlock()
	c.dropSourceTables(vs)
	drop := c.store.DropTable
	if destroyState {
		drop = c.store.DestroyTable
	}
	if err := drop(name); err != nil {
		c.logf("gsn: %s: %v", name, err)
	}
}

// dropSourceTables removes a runtime's window tables (not its output).
func (c *Container) dropSourceTables(vs *VirtualSensor) {
	for _, in := range vs.streams {
		for _, src := range in.sources {
			if err := c.store.DropTable(src.table.Name()); err != nil {
				c.logf("gsn: %s: %v", vs.name, err)
			}
		}
	}
}

// preflight exercises every fallible construction step of a descriptor
// without touching container state: storage policy, windows, wrapper
// instantiation (factories are pure constructors — nothing starts).
// Redeploy runs it before tearing anything down, so a bad replacement
// descriptor leaves the old sensor serving.
//
// Keep in lockstep with newVirtualSensor/buildSource: any fallible
// step added there must be mirrored here, or a redeploy can pass
// preflight and then fail mid-swap (newVirtualSensor carries the
// matching reminder).
func (c *Container) preflight(desc *vsensor.Descriptor) error {
	if _, ok := storage.ParseSyncPolicy(desc.Storage.Sync); !ok {
		return fmt.Errorf("core: %s: unknown storage sync policy %q", desc.Name, desc.Storage.Sync)
	}
	if desc.Storage.FlushInterval != "" {
		if _, err := time.ParseDuration(desc.Storage.FlushInterval); err != nil {
			return fmt.Errorf("core: %s: storage flush-interval: %w", desc.Name, err)
		}
	}
	if _, err := desc.StorageWindow(); err != nil {
		return err
	}
	for i := range desc.Streams {
		for j := range desc.Streams[i].Sources {
			spec := desc.Streams[i].Sources[j]
			if _, err := stream.ParseWindow(spec.StorageSize); err != nil {
				return err
			}
			if spec.Address.Wrapper == vsensor.LocalWrapperKind {
				w, err := newCompositionSource(c, spec)
				if err != nil {
					return err
				}
				// A cluster remote edge built only for preflight was
				// never started; Stop is an idempotent release.
				_ = w.Stop()
				continue
			}
			params := wrappers.Params{}
			for _, p := range spec.Address.Predicates {
				params[p.Key] = p.Value()
			}
			seed, err := params.Int("seed", 0)
			if err != nil {
				return err
			}
			if _, err := c.registry.New(spec.Address.Wrapper, wrappers.Config{
				Name:   desc.Name + "/preflight",
				Params: params,
				Seed:   int64(seed),
				Clock:  c.clock,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Redeploy replaces a running sensor's configuration on the fly — the
// paper's §6 reconfiguration scenario — as a graceful swap, not an
// undeploy+deploy. The replacement descriptor is preflighted first, so
// any validation, storage or wrapper error leaves the old sensor
// serving untouched. When the output schema and storage policy are
// unchanged, the swap preserves state: the output table (rows and WAL),
// registered client queries, notification subscriptions and downstream
// local edges all survive; in-flight triggers drain before the old
// runtime stops (counted in redeploys_preserved). A schema or storage
// change falls back to a full replace, which is refused while local
// dependents exist (their windows are bound to the old schema) and
// rolls back to the old configuration if the fresh deploy fails.
func (c *Container) Redeploy(desc *vsensor.Descriptor) error {
	if desc == nil {
		return fmt.Errorf("core: nil descriptor")
	}
	if err := desc.Validate(); err != nil {
		return err
	}
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	canonical := stream.CanonicalName(desc.Name)
	c.mu.RLock()
	old, exists := c.sensors[canonical]
	c.mu.RUnlock()
	if !exists {
		return c.deploy(desc)
	}

	newSchema, err := desc.OutputSchema()
	if err != nil {
		return err
	}
	deps := desc.LocalDependencies()
	preserve := old.outSchema.Equal(newSchema) && old.desc.Storage == desc.Storage

	c.mu.RLock()
	err = c.checkDepsLocked(canonical, deps)
	if err == nil && c.wouldCycleLocked(canonical, deps) {
		err = fmt.Errorf("core: redeploying %s with dependencies %v would create a cycle", canonical, deps)
	}
	var dependents []string
	if err == nil && !preserve {
		dependents = c.dependentsLocked(canonical)
	}
	c.mu.RUnlock()
	if err != nil {
		return err
	}
	if len(dependents) > 0 {
		return fmt.Errorf("core: redeploying %s would change its output schema or storage, but %v consume it; undeploy them first",
			canonical, dependents)
	}
	if err := c.preflight(desc); err != nil {
		return fmt.Errorf("core: redeploy %s rejected (old configuration still serving): %w", canonical, err)
	}

	if preserve {
		return c.swapPreserving(canonical, old, desc, deps)
	}

	// Full replace: classic undeploy+deploy, now with rollback — a
	// failed deploy restores the old configuration instead of leaving
	// the sensor gone.
	oldDesc := old.desc
	if err := c.undeploy(canonical); err != nil {
		return err
	}
	if err := c.deploy(desc); err != nil {
		if rbErr := c.deploy(oldDesc); rbErr != nil {
			return fmt.Errorf("core: redeploy %s failed (%w) and rollback failed too: %v", canonical, err, rbErr)
		}
		return fmt.Errorf("core: redeploy %s failed (old configuration restored): %w", canonical, err)
	}
	return nil
}

// swapPreserving is the state-preserving half of Redeploy: the output
// table, client queries, notification subscriptions and downstream
// local subscriptions stay in place while the runtime underneath them
// is replaced. Commit order: drain the old runtime, drop its source
// windows, build and start the replacement against the preserved
// output table. Any failure after the drain rebuilds the old runtime
// from its descriptor (its wrappers were running moments ago), so the
// sensor keeps serving either way.
func (c *Container) swapPreserving(name string, old *VirtualSensor, desc *vsensor.Descriptor, deps []string) error {
	// Drain: stop wrappers, let evaluations in flight finish against the
	// old windows, then retire them. Downstream subscribers keep receiving
	// through the drain (the fanout is keyed by name, not runtime).
	old.stop()
	c.dropSourceTables(old)

	install := func(d *vsensor.Descriptor, dependsOn []string) error {
		vs, err := newVirtualSensor(c, d, old.outTable)
		if err != nil {
			return err
		}
		if err := vs.start(); err != nil {
			c.dropSourceTables(vs)
			return err
		}
		c.mu.Lock()
		c.sensors[name] = vs
		c.deps[name] = dependsOn
		c.mu.Unlock()
		return nil
	}

	if err := install(desc, deps); err != nil {
		oldDesc := old.desc
		if rbErr := install(oldDesc, oldDesc.LocalDependencies()); rbErr != nil {
			// Rollback failed too: tear the whole subtree down — the
			// sensor and its local dependents — so no half-wired runtime
			// or dangling dependency edge lingers.
			c.mu.RLock()
			victims := c.transitiveDependentsLocked(name)
			c.mu.RUnlock()
			for _, v := range victims {
				if uErr := c.undeploy(v); uErr != nil {
					c.logf("gsn: %s: tearing down dependent %s: %v", name, v, uErr)
				}
				c.metrics.Counter("cascade_undeploys").Inc()
			}
			c.mu.Lock()
			delete(c.sensors, name)
			delete(c.deps, name)
			c.mu.Unlock()
			c.notifier.UnsubscribeSensor(name)
			c.queries.UnregisterSensor(name)
			c.dir.Unpublish(name, c.opts.NodeAddress)
			if dropErr := c.store.DropTable(name); dropErr != nil {
				c.logf("gsn: %s: %v", name, dropErr)
			}
			return fmt.Errorf("core: redeploy %s failed (%w) and rollback failed too: %v", name, err, rbErr)
		}
		return fmt.Errorf("core: redeploy %s failed (old configuration restored): %w", name, err)
	}

	c.dir.Publish(name, c.opts.NodeAddress, desc.MetadataMap(), c.opts.DirectoryTTL)
	c.metrics.Counter("deploys_total").Inc()
	c.metrics.Counter("redeploys_preserved").Inc()
	c.logf("gsn: redeployed %s preserving output table, %d client quer(y|ies) and downstream edges",
		name, c.queries.GroupCount(name))
	return nil
}

// Sensor looks up a deployed virtual sensor.
func (c *Container) Sensor(name string) (*VirtualSensor, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	vs, ok := c.sensors[stream.CanonicalName(name)]
	return vs, ok
}

// Sensors lists deployed sensors sorted by name.
func (c *Container) Sensors() []*VirtualSensor {
	c.mu.RLock()
	out := make([]*VirtualSensor, 0, len(c.sensors))
	for _, vs := range c.sensors {
		out = append(out, vs)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Query runs a one-shot SQL query over the container's stored streams
// (virtual sensor outputs and source windows). On a clustered node,
// queries over a single base table owned (partly or wholly) by peers
// are federated — partial-aggregate shipping, whole-statement routing,
// or row union; see queryRouted in cluster.go. Results over purely
// local tables are served from the version-stamped result cache when
// every referenced table is unchanged since the last identical query,
// so repeated reads between inserts are free; callers must treat the
// relation as read-only.
func (c *Container) Query(sql string) (*sqlengine.Relation, error) {
	start := time.Now()
	rel, err := c.queryRouted(sql)
	c.metrics.Histogram("adhoc_query_time").Observe(time.Since(start))
	return rel, err
}

// LocalQuery runs a one-shot SQL query strictly against this node's
// stored streams, never consulting the cluster. Peer-serving endpoints
// (/p2p/query, /p2p/register) must use this path: a node answering a
// coordinator must not re-route the statement back out, or two nodes
// owning the same sensor would recurse forever.
func (c *Container) LocalQuery(sql string) (*sqlengine.Relation, error) {
	return c.results.Query(sql, c.engineOpts())
}

// RegisterQuery adds a continuous client query against a deployed
// sensor (the query repository path; see Figure 4). The statement is
// compiled against the sensor's output schema at registration, and
// identical SQL registered by many clients shares one evaluation. On a
// clustered node, a sensor deployed only on a peer is registered there
// and result revisions stream back; routed registrations get negative
// ids (local ones are positive).
func (c *Container) RegisterQuery(sensor, sql string, sampling float64, cb func(*sqlengine.Relation)) (int64, error) {
	canonical := stream.CanonicalName(sensor)
	c.mu.RLock()
	vs, ok := c.sensors[canonical]
	c.mu.RUnlock()
	if !ok {
		return c.registerRouted(canonical, sql, sampling, cb)
	}
	return c.queries.Register(canonical, sql, sampling, cb, vs.outTable)
}

// UnregisterQuery removes a continuous client query (routed ones —
// negative ids — included).
func (c *Container) UnregisterQuery(id int64) error {
	if id < 0 {
		c.routedMu.Lock()
		stop, ok := c.routedQueries[id]
		delete(c.routedQueries, id)
		c.routedMu.Unlock()
		if !ok {
			return fmt.Errorf("core: unknown routed query %d", id)
		}
		stop()
		return nil
	}
	return c.queries.Unregister(id)
}

// Subscribe attaches a notification channel to a sensor's output.
func (c *Container) Subscribe(sensor string, ch notify.Channel) (int64, error) {
	return c.notifier.Subscribe(sensor, ch)
}

// Unsubscribe detaches a notification subscription.
func (c *Container) Unsubscribe(id int64) error { return c.notifier.Unsubscribe(id) }

// Pulse drives every pull-capable wrapper of every sensor once (see
// VirtualSensor.Pulse) and returns the number of injected elements.
func (c *Container) Pulse() int {
	total := 0
	for _, vs := range c.Sensors() {
		total += vs.Pulse()
	}
	return total
}

// PulseBatch drives every batch-capable wrapper once, injecting up to
// max elements per source as one burst through the batch ingestion
// path.
func (c *Container) PulseBatch(max int) int {
	total := 0
	for _, vs := range c.Sensors() {
		total += vs.PulseBatch(max)
	}
	return total
}

// supervise is the life-cycle manager's background loop: it restarts
// wrappers whose sources have gone silent past their gap timeout and
// refreshes directory publications. Restarts pace themselves through a
// per-source backoff instead of firing every tick, and a source whose
// restarts keep not reviving it goes terminally failed (Health reports
// it; a redeploy resets it) rather than being torn down and restarted
// forever.
func (c *Container) supervise() {
	defer close(c.superviseDone)
	ticker := time.NewTicker(c.opts.SuperviseInterval)
	defer ticker.Stop()
	republishEvery := c.opts.DirectoryTTL
	if republishEvery <= 0 {
		republishEvery = 5 * time.Minute
	}
	republishEvery /= 2
	lastRepublish := time.Now()
	for {
		select {
		case <-c.superviseStop:
			return
		case <-ticker.C:
		}
		for _, vs := range c.Sensors() {
			for _, in := range vs.streams {
				for _, src := range in.sources {
					c.superviseSource(vs, src)
				}
			}
		}
		if time.Since(lastRepublish) >= republishEvery {
			lastRepublish = time.Now()
			for _, vs := range c.Sensors() {
				c.dir.Publish(vs.name, c.opts.NodeAddress, vs.desc.MetadataMap(), c.opts.DirectoryTTL)
			}
			c.dir.GC()
		}
	}
}

// superviseSource runs one supervision tick for one stream source.
func (c *Container) superviseSource(vs *VirtualSensor, src *sourceRuntime) {
	if !src.gap.Check() {
		// Flowing again (or no gap timeout configured): settle the
		// restart escalation so the next outage retries promptly.
		if src.restartFails.Load() != 0 {
			src.restartFails.Store(0)
			src.restartBo.Reset()
		}
		return
	}
	if src.failed.Load() {
		return // terminal: operator intervention (redeploy) required
	}
	now := time.Now()
	if now.UnixNano() < src.notBefore.Load() {
		return // waiting out the restart backoff
	}
	limit := c.opts.MaxWrapperRestarts
	if limit == 0 {
		limit = 8
	}
	if limit > 0 && src.restartFails.Load() >= uint64(limit) {
		reason := fmt.Sprintf("wrapper restarted %d times without the source recovering", limit)
		src.failReason.Store(reason)
		src.failed.Store(true)
		c.metrics.Counter("wrapper_restarts_failed").Inc()
		c.logf("gsn: %s/%s: %s; marking source failed", vs.name, src.alias, reason)
		return
	}
	c.logf("gsn: %s/%s: source silent beyond gap-timeout, restarting wrapper",
		vs.name, src.alias)
	src.restarts.Add(1)
	src.restartFails.Add(1)
	c.metrics.Counter("wrapper_restarts").Inc()
	src.notBefore.Store(now.Add(src.restartBo.Next()).UnixNano())
	src.wrapper.Stop()
	if err := vs.startWrapper(src); err != nil {
		vs.recordError(err)
		c.metrics.Counter("wrapper_restarts_failed").Inc()
	}
}

// Notifier exposes the notification manager (web layer, tests).
func (c *Container) Notifier() *notify.Manager { return c.notifier }

// Directory exposes the discovery registry.
func (c *Container) Directory() *directory.Registry { return c.dir }

// Store exposes the storage layer.
func (c *Container) Store() *storage.Store { return c.store }

// Metrics exposes the metrics registry.
func (c *Container) Metrics() *metrics.Registry { return c.metrics }

// MetricsSnapshot renders the registry plus the caches that live
// outside it: the process-wide SQL statement cache and the container's
// version-stamped result cache. /api/metrics serves this.
func (c *Container) MetricsSnapshot() map[string]any {
	out := c.metrics.Snapshot()
	sc := sqlengine.DefaultStatementCacheStats()
	out["stmt_cache_hits"] = sc.Hits
	out["stmt_cache_misses"] = sc.Misses
	out["stmt_cache_size"] = sc.Size
	out["result_cache_size"] = c.results.Len()
	// Health gauges are computed live: they describe the current state,
	// not an accumulated count. The p2p replication counters aggregate
	// the same way, summed over every replicating source wrapper, so
	// they need no per-wrapper metric plumbing.
	degraded, failed := 0, 0
	var rep wrappers.ReplicationStats
	for _, vs := range c.Sensors() {
		switch vs.Health().State {
		case Degraded:
			degraded++
		case Failed:
			failed++
		}
		for _, in := range vs.streams {
			for _, src := range in.sources {
				r, ok := src.wrapper.(wrappers.Replicator)
				if !ok {
					continue
				}
				s := r.ReplicationStats()
				rep.Fetches += s.Fetches
				rep.Failures += s.Failures
				rep.Resyncs += s.Resyncs
				rep.EpochMismatches += s.EpochMismatches
				rep.DuplicatesDropped += s.DuplicatesDropped
			}
		}
	}
	out["degraded_sensors"] = degraded
	out["failed_sensors"] = failed
	out["p2p_fetches_total"] = rep.Fetches
	out["p2p_fetch_failures_total"] = rep.Failures
	out["p2p_resyncs_total"] = rep.Resyncs
	out["p2p_epoch_mismatches"] = rep.EpochMismatches
	out["p2p_duplicates_dropped"] = rep.DuplicatesDropped
	return out
}

// ACL exposes the access controller.
func (c *Container) ACL() *access.Controller { return c.acl }

// Keys exposes the integrity keyring.
func (c *Container) Keys() *integrity.KeyRing { return c.keys }

// QueryRepositoryRef exposes the client query repository.
func (c *Container) QueryRepositoryRef() *QueryRepository { return c.queries }

// Clock returns the container clock.
func (c *Container) Clock() stream.Clock { return c.clock }

// Name returns the container name.
func (c *Container) Name() string { return c.name }

// NodeAddress returns the published node address.
func (c *Container) NodeAddress() string { return c.opts.NodeAddress }

// Close undeploys every sensor and releases resources.
func (c *Container) Close() error {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	// Tear down most-downstream first so no step severs a live local
	// edge while its consumer still runs: every sensor's transitive
	// dependents (already leaf-first) precede it.
	names := make([]string, 0, len(c.sensors))
	seen := make(map[string]bool, len(c.sensors))
	for name := range c.sensors {
		if seen[name] {
			continue
		}
		for _, d := range c.transitiveDependentsLocked(name) {
			if !seen[d] {
				seen[d] = true
				names = append(names, d)
			}
		}
		seen[name] = true
		names = append(names, name)
	}
	c.mu.Unlock()

	c.stopRoutedQueries()
	if c.superviseStop != nil {
		close(c.superviseStop)
		<-c.superviseDone
	}
	for _, name := range names {
		c.mu.RLock()
		vs := c.sensors[name]
		c.mu.RUnlock()
		if vs != nil {
			c.removeSensor(name, vs, false)
			c.dir.Unpublish(name, c.opts.NodeAddress)
		}
	}
	c.queries.Close()
	c.notifier.Close()
	return c.store.Close()
}

func (c *Container) logf(format string, args ...any) {
	if c.opts.Logger != nil {
		c.opts.Logger.Printf(format, args...)
	}
}
