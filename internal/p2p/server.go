// Package p2p implements GSN's inter-container communication (paper §4:
// "GSN nodes communicate among each other in a peer-to-peer fashion"):
// an HTTP protocol for pulling remote virtual sensor streams
// (long-poll), exchanging directory snapshots (push-pull gossip), and
// the "remote" wrapper that makes another node's virtual sensor appear
// as a local data source with logical (predicate-based) addressing.
//
// Elements travel in the stream package's binary encoding with the
// schema in a header, so numeric types survive the wire exactly;
// payloads can be HMAC-signed via the integrity keyring.
package p2p

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"gsn/internal/core"
	"gsn/internal/directory"
	"gsn/internal/integrity"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
)

// Header names of the GSN p2p protocol.
const (
	schemaHeader    = "X-Gsn-Schema"
	signatureHeader = "X-Gsn-Signature"
	keyIDHeader     = "X-Gsn-Key-Id"
	// Sequence-cursor headers of /p2p/stream responses: the serving
	// table's epoch, the sequence number of the first body element (0
	// when empty), and the live window's sequence bounds at serve time.
	epochHeader    = "X-Gsn-Epoch"
	firstHeader    = "X-Gsn-First"
	winFirstHeader = "X-Gsn-Window-First"
	winLastHeader  = "X-Gsn-Window-Last"
)

// Server exposes a container to peer nodes. Mount its Handler under
// /p2p/ on the node's HTTP server; call Close when done to stop the
// background session reaper.
type Server struct {
	container *core.Container
	keys      *integrity.KeyRing
	signKeyID string // sign responses with this key when set
	sessions  *sessionTable

	reapStop  chan struct{}
	reapDone  chan struct{}
	closeOnce sync.Once
}

// NewServer creates a p2p server for the container. signKeyID is
// optional; when set, stream responses carry an HMAC signature from the
// container's keyring.
func NewServer(c *core.Container, signKeyID string) *Server {
	return newServer(c, signKeyID, sessionIdleLimit, sessionReapInterval)
}

// newServer is NewServer with the reap cadence injectable for tests.
func newServer(c *core.Container, signKeyID string, idleLimit, reapEvery time.Duration) *Server {
	s := &Server{
		container: c,
		keys:      c.Keys(),
		signKeyID: signKeyID,
		sessions:  newSessionTable(),
		reapStop:  make(chan struct{}),
		reapDone:  make(chan struct{}),
	}
	go s.reapLoop(idleLimit, reapEvery)
	return s
}

// reapLoop periodically reclaims routed-query sessions whose
// coordinator stopped polling. A timer (rather than piggybacking on
// incoming requests) is load-bearing: an owner that never hears from
// another coordinator again must still unregister the orphaned
// continuous queries, or they run forever.
func (s *Server) reapLoop(idleLimit, reapEvery time.Duration) {
	defer close(s.reapDone)
	t := time.NewTicker(reapEvery)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-t.C:
			s.sweepSessions(idleLimit)
		}
	}
}

// Close stops the background session reaper. It does not tear live
// sessions down — their continuous queries belong to the container,
// whose Close unregisters everything.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.reapStop) })
	<-s.reapDone
}

// routes is the whole peer protocol. docs/architecture.md tabulates it
// and cmd/docs-check holds the two in step.
var routes = []struct {
	pattern string
	handle  func(*Server, http.ResponseWriter, *http.Request)
}{
	{"GET /p2p/schema", (*Server).handleSchema},
	{"GET /p2p/stream", (*Server).handleStream},
	{"GET /p2p/query", (*Server).handleQuery},
	{"POST /p2p/register", (*Server).handleRegister},
	{"GET /p2p/results", (*Server).handleResults},
	{"DELETE /p2p/register", (*Server).handleUnregister},
	{"POST /p2p/directory/merge", (*Server).handleDirectoryMerge},
}

// Routes lists the "METHOD /path" patterns Handler registers.
func Routes() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.pattern
	}
	return out
}

// Handler returns the p2p HTTP handler (paths are rooted at /p2p/).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
	}
	return mux
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	vs, ok := s.container.Sensor(r.URL.Query().Get("vs"))
	if !ok {
		http.Error(w, "unknown virtual sensor", http.StatusNotFound)
		return
	}
	writeBinary(w, stream.EncodeSchema(nil, vs.OutputSchema()))
}

// parseAfter parses one after= cursor: the last sequence number or
// revision the caller holds (empty means 0).
func parseAfter(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	after, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, errors.New("bad after parameter")
	}
	return after, nil
}

// pollWait parses the budget the two long-poll routes (stream, results)
// share: wait= is how long to hold the request open for something
// newer, in milliseconds, capped at 30s (default 0: answer at once).
func pollWait(q url.Values) (time.Duration, error) {
	v := q.Get("wait")
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms < 0 {
		return 0, errors.New("bad wait parameter")
	}
	return time.Duration(min(ms, 30_000)) * time.Millisecond, nil
}

// longPoll answers once ready reports true or wait has elapsed. ready
// runs once up front, once per wake-up and once at the deadline; with
// wait = 0 it runs once and nothing is armed. changed returns the
// signal of the state ready reads and is taken before each check, so a
// change landing between the check and the wait still wakes it. It
// returns false when the caller went away meanwhile and there is nobody
// left to answer.
func longPoll(ctx context.Context, wait time.Duration, changed func() <-chan struct{}, ready func() bool) bool {
	if wait <= 0 {
		ready()
		return true
	}
	ch := changed()
	if ready() {
		return true
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-deadline.C:
			ready()
			return true
		case <-ch:
			if ch = changed(); ready() {
				return true
			}
		}
	}
}

// handleStream serves the elements with sequence number > after, the
// response annotated with the table's epoch and window bounds so a
// consumer can distinguish a resumable cursor from one that must
// re-sync. With nothing newer it long-polls (see pollWait) on the
// table's change signal; a new epoch (truncate), a cursor past the
// window's end (the sequence space restarted before this request) or a
// closed table (undeploy) answer at once, so the consumer re-syncs or
// meets the 404 on its next poll without waiting out the budget.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	vs, ok := s.container.Sensor(q.Get("vs"))
	if !ok {
		http.Error(w, "unknown virtual sensor", http.StatusNotFound)
		return
	}
	after, err := parseAfter(q.Get("after"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	wait, err := pollWait(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	limit := 500
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad limit parameter", http.StatusBadRequest)
			return
		}
		if n < limit {
			limit = n
		}
	}

	var (
		out                             = vs.Output()
		epoch0                          = out.Epoch()
		elems                           []stream.Element
		first, winFirst, winLast, epoch uint64
	)
	if !longPoll(r.Context(), wait, out.Changed, func() bool {
		elems, first, winFirst, winLast, epoch = out.SinceSeq(after)
		return len(elems) > 0 || epoch != epoch0 || after > winLast || out.Closed()
	}) {
		return
	}
	if len(elems) > limit {
		// The suffix stays contiguous from first, so truncation only
		// trims the tail the consumer will ask for next poll.
		elems = elems[:limit]
	}

	var body bytes.Buffer
	for _, e := range elems {
		if err := stream.WriteElement(&body, e); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", binaryType)
	w.Header().Set(schemaHeader,
		base64.StdEncoding.EncodeToString(stream.EncodeSchema(nil, vs.OutputSchema())))
	w.Header().Set(epochHeader, strconv.FormatUint(epoch, 10))
	w.Header().Set(firstHeader, strconv.FormatUint(first, 10))
	w.Header().Set(winFirstHeader, strconv.FormatUint(winFirst, 10))
	w.Header().Set(winLastHeader, strconv.FormatUint(winLast, 10))
	if s.signKeyID != "" {
		sig, err := s.keys.Sign(s.signKeyID, body.Bytes())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set(keyIDHeader, sig.KeyID)
		w.Header().Set(signatureHeader, sig.MAC)
	}
	w.Write(body.Bytes())
}

// handleQuery runs a one-shot statement for a peer coordinator and
// answers with its relation (routed statements, union fallbacks). With
// partial=1 it answers with the node-side half of a distributed
// grouped query instead: WHERE + GROUP BY folded over the local window,
// shipped as mergeable aggregate states — a statement that does not
// distribute is a client error and the coordinator falls back to typed
// rows. A relation comes from the container's version-stamped result
// cache; a partial compiles and folds the window on every call. Both
// are strictly local (LocalQuery/LocalPartial, like every peer-serving
// route): a node answering a coordinator must never re-route the
// statement back into the cluster, or two owners of one sensor would
// bounce it between themselves forever. Both answer in the binary
// codec (stream/codec.go).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sql := q.Get("sql")
	if sql == "" {
		http.Error(w, "missing sql parameter", http.StatusBadRequest)
		return
	}
	var (
		out []byte
		err error
	)
	switch q.Get("partial") {
	case "1":
		var pr *sqlengine.PartialRollup
		if pr, err = s.container.LocalPartial(sql); err == nil {
			out = sqlengine.AppendPartial(nil, pr)
		}
	case "":
		var rel *sqlengine.Relation
		if rel, err = s.container.LocalQuery(sql); err == nil {
			out = sqlengine.AppendRelation(nil, rel)
		}
	default:
		err = errors.New("bad partial parameter")
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeBinary(w, out)
}

// handleDirectoryMerge implements push-pull gossip: the peer posts its
// snapshot, we merge it and answer with ours.
func (s *Server) handleDirectoryMerge(w http.ResponseWriter, r *http.Request) {
	var entries []directory.Entry
	if err := json.NewDecoder(r.Body).Decode(&entries); err != nil {
		http.Error(w, fmt.Sprintf("bad snapshot: %v", err), http.StatusBadRequest)
		return
	}
	s.container.Directory().Merge(entries)
	writeJSON(w, s.container.Directory().Snapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// binaryType is the content type of every answer in the binary codec.
const binaryType = "application/octet-stream"

func writeBinary(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", binaryType)
	w.Write(b)
}
