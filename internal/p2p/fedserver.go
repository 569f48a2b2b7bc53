package p2p

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

// --- Routed continuous queries -------------------------------------

// querySession is one remotely-registered continuous query: the local
// registration plus the latest result revision a peer coordinator
// long-polls for.
type querySession struct {
	id      string
	queryID int64

	mu       sync.Mutex
	rev      uint64
	latest   *sqlengine.Relation
	lastPoll time.Time
}

// sessionIdleLimit is how long a routed-query session survives without
// a poll before the sweep reclaims it — the coordinator long-polls
// continuously, so an idle session means its owner is gone (crashed, or
// its DELETE was lost to a partition). sessionReapInterval paces the
// background sweep, so reclamation does not depend on any further
// request ever reaching this node.
const (
	sessionIdleLimit    = 2 * time.Minute
	sessionReapInterval = 30 * time.Second
)

// sessionTable holds a server's routed sessions. Its signal, guarded by
// mu like byID, fires on every session revision or removal, so results
// polls wake on the event.
type sessionTable struct {
	mu     sync.Mutex
	byID   map[string]*querySession
	signal storage.Signal
}

func newSessionTable() *sessionTable {
	return &sessionTable{byID: make(map[string]*querySession)}
}

// Changed returns a channel closed by the next revision or removal of
// any session.
func (st *sessionTable) Changed() <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.signal.Changed()
}

// fire wakes every waiter on Changed.
func (st *sessionTable) fire() {
	st.mu.Lock()
	st.signal.Fire()
	st.mu.Unlock()
}

// newSessionID returns a 128-bit random identifier. Randomness (not a
// counter) is load-bearing: ids must be unguessable and never repeat
// across server restarts, or a coordinator long-polling a stale id
// after an owner reboot could silently receive a *different* query's
// results once the id is reissued.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// RegisterRequest is the body of POST /p2p/register.
type RegisterRequest struct {
	VS       string  `json:"vs"`
	SQL      string  `json:"sql"`
	Sampling float64 `json:"sampling"`
}

// RegisterResponse carries the session id the coordinator polls with.
type RegisterResponse struct {
	ID string `json:"id"`
}

// ResultsCursor names one routed session of a results poll and the
// last result revision the caller holds.
type ResultsCursor struct {
	ID    string
	After uint64
}

// resultsPage is one session's entry in a results poll answer: its
// latest result revision newer than the poll's cursor, or Gone when
// the owner no longer holds the session (idle sweep, restart) and the
// caller must register again.
type resultsPage struct {
	ID     string
	Gone   bool
	Rev    uint64
	Result *sqlengine.Relation
}

// The byte after a page's id: a result revision follows, or the
// session is gone.
const (
	pageResult byte = iota
	pageGone
)

// appendPages appends a results poll answer (the pages grammar in
// stream/codec.go).
func appendPages(buf []byte, pages []resultsPage) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pages)))
	for _, p := range pages {
		buf = stream.AppendBlob(buf, p.ID)
		if p.Gone {
			buf = append(buf, pageGone)
			continue
		}
		buf = binary.AppendUvarint(append(buf, pageResult), p.Rev)
		buf = sqlengine.AppendRelation(buf, p.Result)
	}
	return buf
}

// readPages decodes a results poll answer; r reports any failure.
func readPages(r *stream.Reader) []resultsPage {
	pages := make([]resultsPage, r.Count(2))
	for i := range pages {
		p := &pages[i]
		p.ID = string(r.Blob())
		switch flag := r.Byte(); flag {
		case pageResult:
			p.Rev, p.Result = r.Uvarint(), sqlengine.ReadRelation(r)
		case pageGone:
			p.Gone = true
		default:
			r.Fail(fmt.Errorf("p2p: bad results page flag %d", flag))
		}
	}
	return pages
}

// handleRegister registers a continuous query on behalf of a peer
// coordinator. The sensor must be deployed on this node — registration
// is routed to owners, never relayed onward.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad register request: %v", err), http.StatusBadRequest)
		return
	}
	if _, ok := s.container.Sensor(req.VS); !ok {
		http.Error(w, "unknown virtual sensor", http.StatusNotFound)
		return
	}
	id, err := newSessionID()
	if err != nil {
		http.Error(w, fmt.Sprintf("minting session id: %v", err), http.StatusInternalServerError)
		return
	}
	sess := &querySession{id: id, lastPoll: time.Now()}
	qid, err := s.container.RegisterQuery(req.VS, req.SQL, req.Sampling, func(rel *sqlengine.Relation) {
		sess.mu.Lock()
		sess.rev++
		sess.latest = rel
		sess.mu.Unlock()
		s.sessions.fire()
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sess.queryID = qid

	// Seed the session with the query's current result so a coordinator
	// (re-)registering between arrivals sees a first revision on its next
	// poll instead of waiting for the next insert. Without this, a
	// session re-created after a peer restart stays silent until new
	// data arrives — which may be arbitrarily far away.
	if rel, qerr := s.container.LocalQuery(req.SQL); qerr == nil {
		sess.mu.Lock()
		if sess.rev == 0 {
			sess.rev, sess.latest = 1, rel
		}
		sess.mu.Unlock()
	}

	s.sessions.mu.Lock()
	s.sessions.byID[sess.id] = sess
	s.sessions.mu.Unlock()
	writeJSON(w, RegisterResponse{ID: sess.id})
}

// sweepSessions unregisters every session idle past the limit. It runs
// from the server's background reap loop — never from the request path
// — so orphaned sessions (coordinator crashed, DELETE lost to a
// partition) are reclaimed even if no request ever arrives again.
func (s *Server) sweepSessions(idleLimit time.Duration) {
	var stale []*querySession
	s.sessions.mu.Lock()
	for id, sess := range s.sessions.byID {
		sess.mu.Lock()
		idle := time.Since(sess.lastPoll) > idleLimit
		sess.mu.Unlock()
		if idle {
			delete(s.sessions.byID, id)
			stale = append(stale, sess)
		}
	}
	if len(stale) > 0 {
		s.sessions.signal.Fire()
	}
	s.sessions.mu.Unlock()
	for _, sess := range stale {
		_ = s.container.UnregisterQuery(sess.queryID)
	}
}

// handleResults long-polls (see pollWait) for the next result revision
// of any of the listed sessions, given as repeated id=&after= pairs,
// and answers with one page per session that has a revision newer than
// its cursor or is gone — so a coordinator polls all its sessions on
// this node at once. It wakes on the session table's change signal.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ids, afters := q["id"], q["after"]
	if len(ids) == 0 || len(afters) != len(ids) {
		http.Error(w, "want one or more id=&after= pairs", http.StatusBadRequest)
		return
	}
	cursors := make([]ResultsCursor, len(ids))
	for i, id := range ids {
		after, err := parseAfter(afters[i])
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cursors[i] = ResultsCursor{ID: id, After: after}
	}
	wait, err := pollWait(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	type fresh struct {
		rev    uint64
		latest *sqlengine.Relation
		gone   bool
	}
	found := make([]fresh, len(cursors))
	if !longPoll(r.Context(), wait, s.sessions.Changed, func() bool {
		ready := false
		now := time.Now()
		s.sessions.mu.Lock()
		defer s.sessions.mu.Unlock()
		for i, c := range cursors {
			sess := s.sessions.byID[c.ID]
			if sess == nil {
				found[i], ready = fresh{gone: true}, true
				continue
			}
			sess.mu.Lock()
			sess.lastPoll = now
			found[i] = fresh{rev: sess.rev, latest: sess.latest}
			sess.mu.Unlock()
			ready = ready || found[i].rev > c.After
		}
		return ready
	}) {
		return
	}
	var pages []resultsPage
	for i, c := range cursors {
		switch f := found[i]; {
		case f.gone:
			pages = append(pages, resultsPage{ID: c.ID, Gone: true})
		case f.rev > c.After:
			result := f.latest
			if result == nil {
				result = &sqlengine.Relation{}
			}
			pages = append(pages, resultsPage{ID: c.ID, Rev: f.rev, Result: result})
		}
	}
	writeBinary(w, appendPages(nil, pages))
}

// handleUnregister tears a routed-query session down.
func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	s.sessions.mu.Lock()
	sess := s.sessions.byID[id]
	delete(s.sessions.byID, id)
	s.sessions.signal.Fire()
	s.sessions.mu.Unlock()
	if sess == nil {
		http.Error(w, "unknown query session", http.StatusNotFound)
		return
	}
	_ = s.container.UnregisterQuery(sess.queryID)
	w.WriteHeader(http.StatusNoContent)
}
