package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// genPeriod is the period of the seeded value tables. Periodic tables
// with prefix sums give the oracle any window's sum(v) in O(1) without
// keeping the millions of elements a saturating run generates.
const genPeriod = 4096

const (
	vDomain  = 1000 // v is uniform in [0, vDomain)
	rooms    = 8    // room is uniform in [0, rooms)
	camBytes = 16 << 10
)

// gen is a workload's seeded input: element k of a feed with offset o
// carries v = vTab[(k+o) mod genPeriod] and the room likewise.
type gen struct {
	seed    int64
	vTab    [genPeriod]int64
	roomTab [genPeriod]int64
	vPre    [genPeriod + 1]int64 // vPre[i] = sum of vTab[:i]
	image   []byte               // the camera feeds' shared 16 KB payload
}

func newGen(seed int64) *gen {
	g := &gen{seed: seed, image: make([]byte, camBytes)}
	rng := rand.New(rand.NewSource(seed))
	for i := range g.vTab {
		g.vTab[i] = rng.Int63n(vDomain)
		g.roomTab[i] = rng.Int63n(rooms)
		g.vPre[i+1] = g.vPre[i] + g.vTab[i]
	}
	rng.Read(g.image)
	return g
}

// prefix returns the sum of the table's first n entries, cyclically.
func (g *gen) prefix(n int64) int64 {
	return (n/genPeriod)*g.vPre[genPeriod] + g.vPre[n%genPeriod]
}

var (
	moteSchema = stream.MustSchema(
		stream.Field{Name: "seq", Type: stream.TypeInt},
		stream.Field{Name: "room", Type: stream.TypeInt},
		stream.Field{Name: "v", Type: stream.TypeInt},
	)
	camSchema = stream.MustSchema(
		stream.Field{Name: "seq", Type: stream.TypeInt},
		stream.Field{Name: "room", Type: stream.TypeInt},
		stream.Field{Name: "v", Type: stream.TypeInt},
		stream.Field{Name: "image", Type: stream.TypeBytes},
	)
)

// feed is one generated input stream. The benchmark's goroutines own
// seq and call emit; the container owns the wrapper life cycle and hands
// the emit functions over in StartBatch.
type feed struct {
	id     string
	g      *gen
	offset int64 // position of seq 0 in the value tables
	camera bool

	sink    atomic.Pointer[feedSink] // nil while no wrapper is started
	started chan struct{}            // receives once per StartBatch
	next    int64                    // next seq to emit, 1-based; generator-owned
}

type feedSink struct {
	emit      wrappers.EmitFunc
	emitBatch wrappers.BatchEmitFunc
}

func (f *feed) schema() *stream.Schema {
	if f.camera {
		return camSchema
	}
	return moteSchema
}

func (f *feed) v(seq int64) int64    { return f.g.vTab[(seq+f.offset)%genPeriod] }
func (f *feed) room(seq int64) int64 { return f.g.roomTab[(seq+f.offset)%genPeriod] }

// sumV is the sum of v over seq in (lo, hi].
func (f *feed) sumV(lo, hi int64) int64 {
	return f.g.prefix(hi+f.offset+1) - f.g.prefix(lo+f.offset+1)
}

// element builds the element with the given seq and timestamp.
func (f *feed) element(seq int64, ts stream.Timestamp) stream.Element {
	if f.camera {
		return stream.MustElement(camSchema, ts, seq, f.room(seq), f.v(seq), f.g.image)
	}
	return stream.MustElement(moteSchema, ts, seq, f.room(seq), f.v(seq))
}

// emitNext sends the next element; it reports false while the feed's
// wrapper is not started (nothing is consumed then).
func (f *feed) emitNext(ts stream.Timestamp) bool {
	s := f.sink.Load()
	if s == nil {
		return false
	}
	f.next++
	s.emit(f.element(f.next, ts))
	return true
}

// emitBurst sends the next n elements as one batch; element i carries
// the timestamp ts + i*step.
func (f *feed) emitBurst(n int, ts, step stream.Timestamp) bool {
	s := f.sink.Load()
	if s == nil {
		return false
	}
	batch := make([]stream.Element, n)
	for i := range batch {
		f.next++
		batch[i] = f.element(f.next, ts+stream.Timestamp(i)*step)
	}
	s.emitBatch(batch)
	return true
}

// feedHub is the benchmark's side of the "feed" wrapper kind: descriptors
// name a feed by id and the factory binds the wrapper to it.
type feedHub struct {
	g     *gen
	mu    sync.Mutex
	feeds map[string]*feed
}

func newFeedHub(g *gen) *feedHub { return &feedHub{g: g, feeds: make(map[string]*feed)} }

// feed returns the feed with the given id, creating it on first use.
func (h *feedHub) feed(id string, camera bool) *feed {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.feeds[id]
	if !ok {
		// Spread the feeds over the tables so no two carry the same values.
		f = &feed{id: id, g: h.g, camera: camera, offset: int64(len(h.feeds)*257) % genPeriod,
			started: make(chan struct{}, 1)}
		h.feeds[id] = f
	}
	return f
}

// register adds the "feed" kind to a wrapper registry.
func (h *feedHub) register(reg *wrappers.Registry) error {
	return reg.Register("feed", func(cfg wrappers.Config) (wrappers.Wrapper, error) {
		id := cfg.Params.Get("id", "")
		if id == "" {
			return nil, fmt.Errorf("benchmark: feed wrapper %s needs an id", cfg.Name)
		}
		camera, err := cfg.Params.Bool("camera", false)
		if err != nil {
			return nil, err
		}
		return &feedWrapper{f: h.feed(id, camera)}, nil
	})
}

// feedWrapper is the wrappers.BatchEmitter the container sees.
type feedWrapper struct{ f *feed }

func (w *feedWrapper) Kind() string           { return "feed" }
func (w *feedWrapper) Schema() *stream.Schema { return w.f.schema() }

func (w *feedWrapper) Start(emit wrappers.EmitFunc) error {
	return w.StartBatch(emit, func(batch []stream.Element) {
		for _, e := range batch {
			emit(e)
		}
	})
}

func (w *feedWrapper) StartBatch(emit wrappers.EmitFunc, emitBatch wrappers.BatchEmitFunc) error {
	w.f.sink.Store(&feedSink{emit: emit, emitBatch: emitBatch})
	select {
	case w.f.started <- struct{}{}:
	default:
	}
	return nil
}

func (w *feedWrapper) Stop() error {
	w.f.sink.Store(nil)
	return nil
}
