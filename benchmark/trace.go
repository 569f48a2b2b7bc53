package main

import (
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/storage"
)

// span is one timed interval at a layer boundary. Trace groups the
// spans of one element (feed index << 40 | seq); seam spans that belong
// to a table or a connection rather than an element carry the owner's
// name in Owner and are attached to element spans by time containment
// when self times are computed.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace,omitempty"`
	Owner  string `json:"owner,omitempty"`
	Parent int32  `json:"parent"` // index into the buffer, -1 for a root
	Start  int64  `json:"start"`  // ns since the run's epoch
	End    int64  `json:"end"`
}

// tracer keeps spans in a preallocated buffer; nothing is written until
// the run has ended. It records only while on is set, so the seams stay
// installed through the traced run's untraced comparison slice at the
// price of one atomic load per call.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int // spans that did not fit the buffer

	// Seam counters, always on while the tracer exists.
	fsWrites, fsSyncs, fsReads atomic.Int64
	fsBytes, fsBusyNs          atomic.Int64
	rtCount, rtBytes           atomic.Int64
}

const traceCapacity = 1 << 19

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, traceCapacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add appends a seam span while recording is on and returns its index
// (-1 when not recorded).
func (t *tracer) add(s span) int32 {
	if !t.on.Load() {
		return -1
	}
	return t.put(s)
}

// put appends a span unconditionally: the element spans are built from
// the run's logs after the window has closed.
func (t *tracer) put(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// selfTimes returns, per span name, the summed duration minus what each
// span's children cover. Children are the spans naming it as parent
// plus, for spans with an Owner match, seam spans contained in its
// interval.
func (t *tracer) selfTimes() (self map[string]int64, total map[string]int64, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				covered[s.Parent] += hi - lo
			}
		}
	}
	self, total, count = map[string]int64{}, map[string]int64{}, map[string]int{}
	for i, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] += d
		count[s.Name]++
		self[s.Name] += max(d-covered[i], 0)
	}
	return self, total, count
}

// attachSeams parents every seam span (Parent -1, Owner set) to the
// first span named parentName with the same Owner whose interval
// contains the seam span's start.
func (t *tracer) attachSeams(parentName string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOwner := map[string][]int32{}
	for i, s := range t.spans {
		if s.Name == parentName {
			byOwner[s.Owner] = append(byOwner[s.Owner], int32(i))
		}
	}
	for _, idx := range byOwner {
		sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].Start < t.spans[idx[b]].Start })
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent >= 0 || s.Owner == "" || s.Name == parentName || !strings.HasPrefix(s.Name, "storage.fs.") {
			continue
		}
		cands := byOwner[s.Owner]
		j := sort.Search(len(cands), func(j int) bool { return t.spans[cands[j]].Start > s.Start })
		for j--; j >= 0; j-- {
			p := t.spans[cands[j]]
			if p.End >= s.Start {
				s.Parent = cands[j]
				break
			}
			if s.Start-p.Start > int64(time.Second) {
				break
			}
		}
	}
}

// write stores the span buffer as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- storage.FS seam ---------------------------------------------------

// tracedFS wraps the filesystem the storage layer writes through
// (core.Options.StorageFS): every write, sync and read is counted and,
// while the tracer is on, recorded as a span owned by the table the
// file belongs to.
type tracedFS struct {
	inner storage.FS
	t     *tracer
}

func newTracedFS(t *tracer) *tracedFS { return &tracedFS{inner: storage.DefaultFS(), t: t} }

// ownerOf maps a storage file path to its table: files are named
// <TABLE>.<ext> in the data directory.
func ownerOf(path string) string {
	base := path[strings.LastIndexByte(path, '/')+1:]
	if i := strings.IndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: inner, t: f.t, owner: ownerOf(name)}, nil
}

func (f *tracedFS) Open(name string) (storage.File, error) {
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: inner, t: f.t, owner: ownerOf(name)}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error  { return f.inner.Rename(oldpath, newpath) }
func (f *tracedFS) Remove(name string) error              { return f.inner.Remove(name) }
func (f *tracedFS) Stat(name string) (fs.FileInfo, error) { return f.inner.Stat(name) }

type tracedFile struct {
	storage.File
	t     *tracer
	owner string
}

func (f *tracedFile) record(name string, start int64, counter *atomic.Int64, n int) {
	end := f.t.now()
	counter.Add(1)
	f.t.fsBusyNs.Add(end - start)
	if n > 0 {
		f.t.fsBytes.Add(int64(n))
	}
	f.t.add(span{Name: name, Owner: f.owner, Parent: -1, Start: start, End: end})
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.File.Write(p)
	f.record("storage.fs.write", start, &f.t.fsWrites, n)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.t.now()
	n, err := f.File.WriteAt(p, off)
	f.record("storage.fs.write", start, &f.t.fsWrites, n)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	f.record("storage.fs.sync", start, &f.t.fsSyncs, 0)
	return err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start := f.t.now()
	n, err := f.File.ReadAt(p, off)
	f.record("storage.fs.read", start, &f.t.fsReads, 0)
	return n, err
}

// --- p2p http.RoundTripper seam ----------------------------------------

// tracedTransport wraps the transport every federation connection uses
// (the PeerHTTP seam): round trips and response bytes are counted per
// endpoint, and each round trip is a span owned by its path.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer

	mu     sync.Mutex
	byPath map[string]*pathStats
}

type pathStats struct {
	count, bytes int64
	ns, sizes    []int64 // per response: duration, body bytes
}

func newTracedTransport(t *tracer) *tracedTransport {
	return &tracedTransport{inner: http.DefaultTransport, t: t, byPath: map[string]*pathStats{}}
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := tt.t.now()
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(n int64) {
		end := tt.t.now()
		tt.t.rtCount.Add(1)
		tt.t.rtBytes.Add(n)
		tt.mu.Lock()
		ps := tt.byPath[req.URL.Path]
		if ps == nil {
			ps = &pathStats{}
			tt.byPath[req.URL.Path] = ps
		}
		ps.count++
		ps.bytes += n
		ps.ns = append(ps.ns, end-start)
		ps.sizes = append(ps.sizes, n)
		tt.mu.Unlock()
		tt.t.add(span{Name: "p2p.roundtrip", Owner: req.URL.Path, Parent: -1, Start: start, End: end})
	}}
	return resp, nil
}

// stats returns a copy of one endpoint's counters.
func (tt *tracedTransport) stats(path string) pathStats {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if ps := tt.byPath[path]; ps != nil {
		return pathStats{count: ps.count, bytes: ps.bytes,
			ns: append([]int64(nil), ps.ns...), sizes: append([]int64(nil), ps.sizes...)}
	}
	return pathStats{}
}

// countedBody counts the bytes read from a response body and reports
// them once, at Close.
type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// --- web http.Handler seam ---------------------------------------------

// tracedHandler wraps a node's HTTP handler: the time inside the
// handler and the response size of every /api/query call are kept, so
// the client-observed latency splits into handler time and HTTP
// overhead.
type tracedHandler struct {
	inner http.Handler
	t     *tracer

	mu      sync.Mutex
	queryNs []int64
	bytes   int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/api/query" {
		h.inner.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := h.t.now()
	h.inner.ServeHTTP(cw, r)
	end := h.t.now()
	h.mu.Lock()
	h.queryNs = append(h.queryNs, end-start)
	h.bytes += cw.n
	h.mu.Unlock()
	h.t.add(span{Name: "web.handler", Owner: r.URL.Path, Parent: -1, Start: start, End: end})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
