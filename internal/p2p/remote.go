package p2p

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"

	"gsn/internal/directory"
	"gsn/internal/integrity"
	"gsn/internal/resilience"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// RemoteWrapper streams another GSN node's virtual sensor into the
// local container — the paper's wrapper="remote" (Figure 1), which
// makes "logical addressing possible": the source is picked either by
// explicit url/vs parameters or by directory predicates like
// type=temperature, location=bc143.
//
// Delivery is exactly-once over the live window: the wrapper resumes by
// sequence number (never by timestamp, which conflates equal-timestamp
// elements), dedupes re-deliveries after torn responses on
// (sequence, content) and, when the peer's epoch changes — restart or
// truncate — performs a counted re-sync from the peer's window start.
//
// Parameters:
//
//	url            peer base URL (e.g. "http://host:22001"); optional
//	               when predicates resolve through the directory
//	vs             remote virtual sensor name (with url)
//	poll           long-poll wait per fetch (default "1s")
//	key-id         verify stream signatures with this keyring entry
//	degrade-after  consecutive fetch failures before the wrapper
//	               reports itself degraded (default 3)
//	dedup-window   how many recent sequence numbers the duplicate
//	               filter remembers (default 4096)
//	<any other>    directory predicates for logical addressing
type RemoteWrapper struct {
	cfg          wrappers.Config
	client       *Client
	vs           string
	schema       *stream.Schema
	poll         time.Duration
	degradeAfter int

	mu      sync.Mutex
	stop    chan struct{}
	cancel  context.CancelFunc
	done    chan struct{}
	started bool

	// The replication cursor deliberately lives outside the loop: a
	// supervision restart (Stop+Start on the same instance) must resume
	// where it left off, not re-deliver the peer's window.
	epoch  uint64
	cursor uint64
	synced bool
	dedup  *dedupRing

	fetches         uint64
	failures        uint64
	consecFails     int
	connected       bool
	resyncs         uint64
	epochMismatches uint64
	dupsDropped     uint64
}

// reservedParams are consumed by the wrapper itself; everything else is
// treated as a directory predicate.
var reservedParams = map[string]bool{
	"url": true, "vs": true, "poll": true, "key-id": true, "seed": true,
	"degrade-after": true, "dedup-window": true,
}

// RegisterRemoteHTTP registers the "remote" wrapper kind into reg,
// bound to the given directory (for logical addressing), keyring (for
// signature verification) and HTTP client for every peer connection the
// wrapper kind opens — the seam the network fault-injection harness
// threads a FaultTransport through; nil uses the default transport.
// Each container registers its own binding.
func RegisterRemoteHTTP(reg *wrappers.Registry, dir *directory.Registry, keys *integrity.KeyRing, httpc *http.Client) error {
	return reg.Register("remote", func(cfg wrappers.Config) (wrappers.Wrapper, error) {
		return newRemote(cfg, dir, keys, httpc)
	})
}

func newRemote(cfg wrappers.Config, dir *directory.Registry, keys *integrity.KeyRing, httpc *http.Client) (wrappers.Wrapper, error) {
	poll, err := cfg.Params.Duration("poll", time.Second)
	if err != nil {
		return nil, err
	}
	degradeAfter, err := cfg.Params.Int("degrade-after", 3)
	if err != nil {
		return nil, err
	}
	if degradeAfter < 1 {
		degradeAfter = 1
	}
	dedupWindow, err := cfg.Params.Int("dedup-window", 4096)
	if err != nil {
		return nil, err
	}
	if dedupWindow < 1 {
		dedupWindow = 1
	}
	base := cfg.Params.Get("url", "")
	vs := cfg.Params.Get("vs", "")
	if base == "" {
		if dir == nil {
			return nil, fmt.Errorf("p2p: remote wrapper %s has no url and no directory for logical addressing", cfg.Name)
		}
		want := map[string]string{}
		for k, v := range cfg.Params {
			if !reservedParams[strings.ToLower(k)] {
				want[k] = v
			}
		}
		entries := dir.Query(want)
		var chosen *directory.Entry
		for i := range entries {
			if entries[i].Node != "" {
				chosen = &entries[i]
				break
			}
		}
		if chosen == nil {
			return nil, fmt.Errorf("p2p: no directory entry matches predicates %v", want)
		}
		base = chosen.Node
		vs = chosen.Sensor
	}
	if vs == "" {
		return nil, fmt.Errorf("p2p: remote wrapper %s needs a vs parameter with url", cfg.Name)
	}

	client := &Client{Base: base, HTTP: httpc}
	if keyID := cfg.Params.Get("key-id", ""); keyID != "" {
		if keys == nil {
			return nil, fmt.Errorf("p2p: remote wrapper %s requests key %q but the container has no keyring", cfg.Name, keyID)
		}
		client.Keys = keys
		client.RequireSignature = true
	}
	schema, err := client.Schema(vs)
	if err != nil {
		return nil, fmt.Errorf("p2p: resolving remote sensor %s at %s: %w", vs, base, err)
	}
	return &RemoteWrapper{
		cfg:          cfg,
		client:       client,
		vs:           vs,
		schema:       schema,
		poll:         poll,
		degradeAfter: degradeAfter,
		dedup:        newDedupRing(dedupWindow),
	}, nil
}

// Kind implements wrappers.Wrapper.
func (r *RemoteWrapper) Kind() string { return "remote" }

// Schema implements wrappers.Wrapper.
func (r *RemoteWrapper) Schema() *stream.Schema { return r.schema }

// Peer returns the resolved peer URL and sensor name.
func (r *RemoteWrapper) Peer() (string, string) { return r.client.Base, r.vs }

// Start launches the long-poll loop, delivering fetched elements one
// by one.
func (r *RemoteWrapper) Start(emit wrappers.EmitFunc) error {
	return r.StartBatch(emit, func(elems []stream.Element) {
		for _, e := range elems {
			emit(e)
		}
	})
}

// StartBatch implements wrappers.BatchEmitter: each long-poll fetch
// returns a run of elements, and delivering the run as one batch lets
// the receiving container cross its quality chain and window table with
// a single lock acquisition — the natural shape for node-to-node
// streams, which arrive in fetch-sized bursts by construction.
func (r *RemoteWrapper) StartBatch(emit wrappers.EmitFunc, emitBatch wrappers.BatchEmitFunc) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return nil
	}
	r.started = true
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.loop(ctx, emitBatch, r.stop, r.done)
	return nil
}

func (r *RemoteWrapper) loop(ctx context.Context, emitBatch wrappers.BatchEmitFunc, stop, done chan struct{}) {
	defer close(done)
	// Decorrelated jitter seeded per wrapper identity: when a node
	// restart disconnects every remote wrapper watching it at once,
	// their retries fan back out instead of stampeding in lockstep. The
	// escalation only settles after a few consecutive healthy fetches,
	// so a peer flapping once per poll cannot pin the delay to the
	// floor.
	seed := fnv.New64a()
	seed.Write([]byte(r.cfg.Name + "\x00" + r.client.Base + "\x00" + r.vs))
	backoff := resilience.NewBackoff(100*time.Millisecond, 5*time.Second, int64(seed.Sum64()))
	backoff.SetSettleAfter(3)
	for {
		select {
		case <-stop:
			return
		default:
		}
		r.mu.Lock()
		after := r.cursor
		r.mu.Unlock()
		page, err := r.client.FetchSeq(ctx, r.vs, after, r.poll)
		if ctx.Err() != nil {
			// Stopping: the cancelled fetch is not a peer failure.
			return
		}
		r.mu.Lock()
		r.fetches++
		if err != nil {
			// Disconnection, torn body, or a MAC/signature failure — all
			// retried identically: nothing was delivered, the cursor did
			// not move, the next fetch re-asks for the same suffix.
			r.failures++
			r.consecFails++
			r.connected = false
			r.mu.Unlock()
			select {
			case <-stop:
				return
			case <-time.After(backoff.Next()):
			}
			continue
		}
		r.connected = true
		r.consecFails = 0
		fresh := r.advanceLocked(page)
		r.mu.Unlock()
		backoff.Success()
		if len(fresh) > 0 {
			emitBatch(fresh)
		}
	}
}

// advanceLocked applies one fetched page to the replication cursor and
// returns the elements to deliver; the caller holds r.mu.
func (r *RemoteWrapper) advanceLocked(page StreamPage) []stream.Element {
	if r.synced && page.Epoch != r.epoch {
		// The peer's sequence space restarted (node restart or table
		// truncate): the cursor names elements that may no longer exist.
		// Rewind to the peer's window start; the dedup ring absorbs
		// whatever the refetch re-delivers.
		r.epochMismatches++
		r.resyncs++
		r.epoch = page.Epoch
		r.cursor = 0
		return nil
	}
	if r.synced && page.WindowLast < r.cursor {
		// Same epoch yet the window's end is behind our cursor: the
		// sequence space regressed without an epoch bump (the peer's
		// epoch persistence was lost). Re-sync all the same.
		r.resyncs++
		r.cursor = 0
		return nil
	}
	r.epoch = page.Epoch
	r.synced = true
	fresh := page.Elems[:0:0]
	for i, e := range page.Elems {
		seq := page.First + uint64(i)
		if r.dedup.seen(seq, e) {
			r.dupsDropped++
			continue
		}
		fresh = append(fresh, e)
	}
	if len(page.Elems) > 0 {
		r.cursor = page.First + uint64(len(page.Elems)) - 1
	} else if page.WindowLast > r.cursor {
		// Empty poll with the window already past us: those elements
		// evicted before we could fetch them. Advance so the next poll
		// does not re-ask for history the peer no longer holds.
		r.cursor = page.WindowLast
	}
	return fresh
}

// Stop implements wrappers.Wrapper. It must not hold the mutex while
// waiting for the loop: the loop takes the mutex to update counters
// after each fetch. Cancelling the fetch context aborts an in-flight
// long poll immediately, so Stop returns promptly instead of waiting
// out the transport timeout.
func (r *RemoteWrapper) Stop() error {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return nil
	}
	r.started = false
	stop, done, cancel := r.stop, r.done, r.cancel
	r.mu.Unlock()
	close(stop)
	cancel()
	<-done
	return nil
}

// Connected reports whether the last fetch succeeded.
func (r *RemoteWrapper) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.connected
}

// Stats reports fetch counters.
func (r *RemoteWrapper) Stats() (fetches, failures uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fetches, r.failures
}

// ReplicationStats implements wrappers.Replicator.
func (r *RemoteWrapper) ReplicationStats() wrappers.ReplicationStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return wrappers.ReplicationStats{
		Fetches:           r.fetches,
		Failures:          r.failures,
		Resyncs:           r.resyncs,
		EpochMismatches:   r.epochMismatches,
		DuplicatesDropped: r.dupsDropped,
		Connected:         r.connected,
	}
}

// HealthState implements wrappers.HealthReporter: sustained fetch
// failures degrade the owning sensor's health; the first successful
// fetch clears it. A local restart cannot fix a disconnected peer, so
// this feeds the health ladder directly instead of the supervision
// restart path.
func (r *RemoteWrapper) HealthState() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.consecFails >= r.degradeAfter {
		return true, fmt.Sprintf("peer %s unreachable: %d consecutive fetch failures",
			r.client.Base, r.consecFails)
	}
	return false, ""
}

// dedupRing is the consumer-side duplicate filter: a bounded FIFO map
// from sequence number to a content fingerprint. Keying on content as
// well as sequence matters across epochs — a peer that lost its WAL
// tail can reuse a sequence number for a different element, which must
// be delivered, while a re-sync re-serving the same element must not.
type dedupRing struct {
	limit int
	m     map[uint64]uint64
	fifo  []uint64
}

func newDedupRing(limit int) *dedupRing {
	return &dedupRing{limit: limit, m: make(map[uint64]uint64, limit)}
}

// seen records (seq, e) and reports whether that exact element was
// already delivered under that sequence number.
func (d *dedupRing) seen(seq uint64, e stream.Element) bool {
	fp := elementFingerprint(e)
	if old, ok := d.m[seq]; ok {
		if old == fp {
			return true
		}
		d.m[seq] = fp // same slot, new content: remember the replacement
		return false
	}
	if len(d.fifo) >= d.limit {
		delete(d.m, d.fifo[0])
		d.fifo = d.fifo[1:]
	}
	d.fifo = append(d.fifo, seq)
	d.m[seq] = fp
	return false
}

// elementFingerprint hashes an element's logical content: timestamp
// and values, via the compact encoding. The full wire encoding also
// carries arrival/production stamps, which the peer re-derives after a
// WAL replay — hashing those would make every replayed element look
// like new content and defeat dedup across peer restarts.
func elementFingerprint(e stream.Element) uint64 {
	h := fnv.New64a()
	h.Write(stream.EncodeElementCompact(nil, e, 0))
	return h.Sum64()
}
