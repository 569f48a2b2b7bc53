package core

import (
	"fmt"
	"strings"
	"sync"

	"gsn/internal/stream"
	"gsn/internal/vsensor"
	"gsn/internal/wrappers"
)

// Local composition: a stream source with wrapper="local" subscribes to
// another deployed sensor's output stream in-process. Delivery is
// push-based and zero-copy — the upstream evaluation hands its freshly
// inserted output elements straight to every subscriber's quality
// chain, with no polling wrapper and no table rescan — and runs to
// completion: each downstream sensor inserts, evaluates and publishes
// on the upstream's goroutine, depth-first, before the next sibling in
// subscription order.

// localSub is one downstream subscription on a sensor's output stream.
type localSub struct {
	id        int64
	emit      wrappers.EmitFunc
	emitBatch wrappers.BatchEmitFunc
}

// localFanout is the container's composition bus: upstream sensor name →
// its downstream subscriptions, oldest first. Each list is copy-on-write,
// so a delivery walks it outside the lock without copying it, and
// lifecycle operations and the trigger hot path cannot deadlock through
// the lock.
type localFanout struct {
	mu     sync.RWMutex
	nextID int64
	subs   map[string][]*localSub
}

func newLocalFanout() *localFanout {
	return &localFanout{subs: make(map[string][]*localSub)}
}

// subscribe registers a downstream delivery pair for a sensor's output.
func (f *localFanout) subscribe(sensor string, emit wrappers.EmitFunc, emitBatch wrappers.BatchEmitFunc) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	old := f.subs[sensor]
	f.subs[sensor] = append(old[:len(old):len(old)], &localSub{id: f.nextID, emit: emit, emitBatch: emitBatch})
	return f.nextID
}

// unsubscribe removes a subscription; unknown ids are a no-op (Stop is
// idempotent).
func (f *localFanout) unsubscribe(sensor string, id int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var kept []*localSub
	for _, s := range f.subs[sensor] {
		if s.id != id {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		delete(f.subs, sensor)
	} else {
		f.subs[sensor] = kept
	}
}

// deliver pushes a burst of output elements to every subscriber of the
// sensor, in subscription order. The list is read under the lock but
// delivery runs outside it: a subscriber's chain inserts into its own
// window table and evaluates its sensor, which may cascade further
// tiers, and none of that may serialise against lifecycle changes here.
// Each subscriber gets its own slice (batch sinks take ownership and
// stamp arrival in place); the element payloads themselves are shared,
// never copied.
func (f *localFanout) deliver(sensor string, elems []stream.Element) {
	f.mu.RLock()
	list := f.subs[sensor]
	f.mu.RUnlock()
	for _, s := range list {
		if len(elems) == 1 {
			s.emit(elems[0])
			continue
		}
		batch := make([]stream.Element, len(elems))
		copy(batch, elems)
		s.emitBatch(batch)
	}
}

// newCompositionSource resolves a wrapper="local" source to its data
// path: an in-process composition-bus subscription when the upstream
// sensor is deployed here, or — on a clustered node — a remote edge
// streaming the sensor from its owning peer over the exactly-once
// (epoch, seq) protocol. Either way the returned wrapper rides the
// ordinary source machinery (quality chain, window table, compiled
// plans, supervision), which is what makes composition
// network-transparent: the descriptor does not say, and the downstream
// sensor cannot tell, where the upstream lives.
func newCompositionSource(c *Container, spec vsensor.StreamSource) (wrappers.Wrapper, error) {
	target := spec.Address.LocalTarget()
	if target == "" {
		return nil, fmt.Errorf("core: local source %s needs a sensor predicate", spec.Alias)
	}
	if _, ok := c.store.Table(target); ok {
		return newLocalWrapper(c, spec)
	}
	if cl := c.Cluster(); cl != nil {
		// Extra address predicates tune the remote edge (poll,
		// degrade-after, key-id, …) just like an explicit remote wrapper.
		params := map[string]string{}
		for _, p := range spec.Address.Predicates {
			key := strings.TrimSpace(p.Key)
			if key == "" || strings.EqualFold(key, "sensor") {
				continue
			}
			params[key] = p.Value()
		}
		w, err := cl.RemoteSource(target, params)
		if err != nil {
			return nil, fmt.Errorf("core: local source %s: virtual sensor %s is not deployed here and cluster resolution failed: %w",
				spec.Alias, target, err)
		}
		c.metrics.Counter("cluster_remote_edges").Inc()
		return w, nil
	}
	return newLocalWrapper(c, spec) // reports the canonical not-deployed error
}

// localWrapper adapts an upstream virtual sensor's output stream to the
// wrapper contract, so a local source rides the exact machinery a
// platform wrapper does — quality chain, window table, compiled source
// plans, gap supervision. It is constructed by the container (not the
// wrapper registry) because it needs the composition bus.
type localWrapper struct {
	c      *Container
	target string // canonical upstream sensor name
	schema *stream.Schema

	mu    sync.Mutex
	subID int64 // 0 when not started
}

// newLocalWrapper resolves the upstream sensor's output table and binds
// to its schema. The container checks deployment-order dependencies
// before construction, so a missing table here means a programming
// error upstream of us — still reported cleanly.
func newLocalWrapper(c *Container, spec vsensor.StreamSource) (*localWrapper, error) {
	target := spec.Address.LocalTarget()
	if target == "" {
		return nil, fmt.Errorf("core: local source %s needs a sensor predicate", spec.Alias)
	}
	tab, ok := c.store.Table(target)
	if !ok {
		return nil, fmt.Errorf("core: local source %s: virtual sensor %s is not deployed", spec.Alias, target)
	}
	// Binding to the table's own schema pointer keeps the identity
	// fast path in Table.checkSchema for every delivered element.
	return &localWrapper{c: c, target: target, schema: tab.Schema()}, nil
}

// Kind implements wrappers.Wrapper.
func (w *localWrapper) Kind() string { return vsensor.LocalWrapperKind }

// Schema implements wrappers.Wrapper: the upstream sensor's output
// structure.
func (w *localWrapper) Schema() *stream.Schema { return w.schema }

// Start implements wrappers.Wrapper by subscribing to the upstream
// output stream.
func (w *localWrapper) Start(emit wrappers.EmitFunc) error {
	return w.StartBatch(emit, func(batch []stream.Element) {
		for _, e := range batch {
			emit(e)
		}
	})
}

// StartBatch implements wrappers.BatchEmitter: upstream bursts cross
// the downstream quality chain and window table as one batch.
func (w *localWrapper) StartBatch(emit wrappers.EmitFunc, emitBatch wrappers.BatchEmitFunc) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.subID != 0 {
		return fmt.Errorf("core: local source of %s already started", w.target)
	}
	w.subID = w.c.locals.subscribe(w.target, emit, emitBatch)
	return nil
}

// Stop implements wrappers.Wrapper; it is idempotent.
func (w *localWrapper) Stop() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.subID != 0 {
		w.c.locals.unsubscribe(w.target, w.subID)
		w.subID = 0
	}
	return nil
}
