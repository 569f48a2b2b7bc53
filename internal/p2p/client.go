package p2p

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"gsn/internal/directory"
	"gsn/internal/integrity"
	"gsn/internal/resilience"
	"gsn/internal/stream"
)

// shortTimeout bounds the client's short RPCs (schema, query, register,
// unregister, gossip). The long polls have their own, much larger
// budget — conflating the two would make a control call wait half a
// minute for a peer that is simply down.
const shortTimeout = 5 * time.Second

// Response body caps, so a misbehaving peer cannot balloon memory: one
// for the control-plane, schema and query answers, one for a page of
// stream elements.
const (
	maxAnswerBody = 8 << 20
	maxStreamBody = 256 << 20
)

// ErrCircuitOpen is returned by short RPCs while the client's breaker
// is open: the peer has failed repeatedly and calls are shed locally
// until the cooldown expires.
var ErrCircuitOpen = errors.New("p2p: circuit open")

// Client talks to one peer node's p2p interface.
type Client struct {
	// Base is the peer's base URL (e.g. "http://host:22001").
	Base string
	// HTTP is the transport; nil uses a client with a 35s timeout
	// (above the maximum long-poll wait).
	HTTP *http.Client
	// Keys verifies signed responses when the peer signs them; nil
	// skips verification.
	Keys *integrity.KeyRing
	// RequireSignature rejects unsigned stream responses.
	RequireSignature bool
	// Breaker, when set, gates the short RPCs: after its threshold of
	// consecutive transport failures, calls fail fast with
	// ErrCircuitOpen until the cooldown lets a probe through. The long
	// polls (FetchSeq, PollResults) are deliberately not gated — their
	// callers own a retry/backoff policy, and a poll outliving
	// shortTimeout is the normal idle case, not a failure.
	Breaker *resilience.Breaker
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 35 * time.Second}
}

// statusError is a served answer other than 2xx: the connection is
// healthy, the peer refused the request.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// do issues one request and returns the answer's header and body, the
// body read up to limit. in, when non-nil, travels as the JSON request
// body. An answer other than 2xx is a *statusError carrying the peer's
// message; its body still comes back so callers can account the bytes.
func (c *Client) do(ctx context.Context, method, path string, in any, limit int64) (http.Header, []byte, error) {
	var payload io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, nil, err
		}
		payload = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, payload)
	if err != nil {
		return nil, nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.Header, body, &statusError{resp.StatusCode, fmt.Sprintf("p2p: %s %s%s: %s: %s",
			method, c.Base, path, resp.Status, strings.TrimSpace(string(body)))}
	}
	return resp.Header, body, err
}

// short is do for the control-plane RPCs: bounded by shortTimeout and
// gated by the breaker. Only a transport-level failure (the peer is
// unreachable or stalled) counts against the breaker; a served error
// status is a healthy connection.
func (c *Client) short(method, path string, in any) (http.Header, []byte, error) {
	if c.Breaker != nil && !c.Breaker.Allow() {
		return nil, nil, ErrCircuitOpen
	}
	ctx, cancel := context.WithTimeout(context.Background(), shortTimeout)
	defer cancel()
	hdr, body, err := c.do(ctx, method, path, in, maxAnswerBody)
	if c.Breaker != nil {
		var served *statusError
		if err == nil || errors.As(err, &served) {
			c.Breaker.Success()
		} else {
			c.Breaker.Failure()
		}
	}
	return hdr, body, err
}

// decodeAnswer decodes a whole answer body from peer with read, naming
// the peer in any failure. An answer in another content type than the
// binary codec's comes from a node that predates it; no other format is
// read.
func decodeAnswer[T any](peer string, hdr http.Header, body []byte, read func(*stream.Reader) T) (T, error) {
	var zero T
	if ct := hdr.Get("Content-Type"); ct != binaryType {
		return zero, fmt.Errorf("p2p: %s answers in the pre-binary format (%s); older node?", peer, ct)
	}
	r := stream.NewReader(body)
	v := read(r)
	if err := r.Done(); err != nil {
		return zero, fmt.Errorf("p2p: bad answer from %s: %w", peer, err)
	}
	return v, nil
}

// Schema fetches a remote sensor's output schema.
func (c *Client) Schema(vs string) (*stream.Schema, error) {
	_, body, err := c.short(http.MethodGet, "/p2p/schema?vs="+url.QueryEscape(vs), nil)
	if err != nil {
		return nil, err
	}
	schema, _, err := stream.DecodeSchema(body)
	return schema, err
}

// StreamPage is one response of the sequence-cursor stream protocol:
// a suffix of the peer table's live window plus the coordinates a
// consumer needs for exactly-once resumption. Epoch identifies the
// peer's current sequence space; First is the sequence number of
// Elems[0] (zero when the page is empty); WindowFirst/WindowLast bound
// the live window at serve time, so First > cursor+1 means elements
// were evicted before we fetched them and WindowLast alone advances a
// cursor past an empty poll.
type StreamPage struct {
	Elems       []stream.Element
	Schema      *stream.Schema
	Epoch       uint64
	First       uint64
	WindowFirst uint64
	WindowLast  uint64
}

// FetchSeq pulls elements of vs with sequence number > after,
// long-polling up to wait on the server side. The request is issued
// under ctx so a stopping consumer can abandon an in-flight long poll
// immediately instead of waiting out the transport timeout.
func (c *Client) FetchSeq(ctx context.Context, vs string, after uint64, wait time.Duration) (StreamPage, error) {
	hdr, body, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/p2p/stream?vs=%s&after=%d&wait=%d",
		url.QueryEscape(vs), after, wait.Milliseconds()), nil, maxStreamBody)
	if err != nil {
		return StreamPage{}, err
	}
	var page StreamPage
	if page.Epoch, err = headerUint(hdr, epochHeader); err != nil {
		return StreamPage{}, err
	}
	if page.First, err = headerUint(hdr, firstHeader); err != nil {
		return StreamPage{}, err
	}
	if page.WindowFirst, err = headerUint(hdr, winFirstHeader); err != nil {
		return StreamPage{}, err
	}
	if page.WindowLast, err = headerUint(hdr, winLastHeader); err != nil {
		return StreamPage{}, err
	}
	page.Elems, page.Schema, err = c.decodeStream(hdr, body)
	if err != nil {
		return StreamPage{}, err
	}
	if len(page.Elems) > 0 && page.First == 0 {
		return StreamPage{}, fmt.Errorf("p2p: stream %s: non-empty page without first-sequence header", vs)
	}
	return page, nil
}

func headerUint(hdr http.Header, name string) (uint64, error) {
	v := hdr.Get(name)
	if v == "" {
		return 0, fmt.Errorf("p2p: response missing %s header (peer too old for the sequence protocol?)", name)
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("p2p: bad %s header %q", name, v)
	}
	return n, nil
}

// decodeStream verifies and decodes a /p2p/stream response: check the
// HMAC if present (or required), decode the schema header, then the
// packed elements.
func (c *Client) decodeStream(hdr http.Header, body []byte) ([]stream.Element, *stream.Schema, error) {
	if mac := hdr.Get(signatureHeader); mac != "" {
		if c.Keys == nil {
			return nil, nil, fmt.Errorf("p2p: peer signed the response but no keyring is configured")
		}
		sig := integrity.Signature{KeyID: hdr.Get(keyIDHeader), MAC: mac}
		if err := c.Keys.Verify(sig, body); err != nil {
			return nil, nil, err
		}
	} else if c.RequireSignature {
		return nil, nil, fmt.Errorf("p2p: unsigned response from %s", c.Base)
	}

	schemaB64 := hdr.Get(schemaHeader)
	if schemaB64 == "" {
		return nil, nil, fmt.Errorf("p2p: response missing schema header")
	}
	schemaBytes, err := base64.StdEncoding.DecodeString(schemaB64)
	if err != nil {
		return nil, nil, fmt.Errorf("p2p: bad schema header: %w", err)
	}
	schema, _, err := stream.DecodeSchema(schemaBytes)
	if err != nil {
		return nil, nil, err
	}

	var out []stream.Element
	r := bytes.NewReader(body)
	for r.Len() > 0 {
		e, err := stream.ReadElement(r, schema)
		if err != nil {
			return nil, nil, fmt.Errorf("p2p: decoding stream: %w", err)
		}
		out = append(out, e)
	}
	return out, schema, nil
}

// Query runs a one-shot statement on the peer and returns the answer
// for decodeAnswer: a relation, or with partial a
// sqlengine.PartialRollup (the peer's WHERE + GROUP BY fold as
// mergeable aggregate states). The body comes back on error too, so
// the caller accounts the bytes that crossed the wire.
func (c *Client) Query(sql string, partial bool) (http.Header, []byte, error) {
	path := "/p2p/query?sql=" + url.QueryEscape(sql)
	if partial {
		path += "&partial=1"
	}
	return c.short(http.MethodGet, path, nil)
}

// RegisterContinuous registers a continuous query on the peer and
// returns the session id to poll with.
func (c *Client) RegisterContinuous(vs, sql string, sampling float64) (string, error) {
	_, body, err := c.short(http.MethodPost, "/p2p/register", RegisterRequest{VS: vs, SQL: sql, Sampling: sampling})
	if err != nil {
		return "", err
	}
	var out RegisterResponse
	err = json.Unmarshal(body, &out)
	return out.ID, err
}

// PollResults long-polls the listed routed sessions under ctx for a
// result revision newer than each cursor and answers with a page per
// session that has one or is gone (empty when wait elapsed first). It
// also reports the response-body bytes moved.
func (c *Client) PollResults(ctx context.Context, cursors []ResultsCursor, wait time.Duration) ([]resultsPage, int, error) {
	q := url.Values{"wait": {strconv.FormatInt(wait.Milliseconds(), 10)}}
	for _, cur := range cursors {
		q.Add("id", cur.ID)
		q.Add("after", strconv.FormatUint(cur.After, 10))
	}
	hdr, body, err := c.do(ctx, http.MethodGet, "/p2p/results?"+q.Encode(), nil, maxAnswerBody)
	var pages []resultsPage
	if err == nil {
		pages, err = decodeAnswer(c.Base, hdr, body, readPages)
	}
	return pages, len(body), err
}

// UnregisterContinuous tears a routed-query session down on the peer.
func (c *Client) UnregisterContinuous(id string) error {
	_, _, err := c.short(http.MethodDelete, "/p2p/register?id="+url.QueryEscape(id), nil)
	return err
}

// Gossip performs one push-pull round: send our snapshot, merge the
// peer's response into reg. It returns the number of adopted entries
// and the peer's snapshot.
func (c *Client) Gossip(reg *directory.Registry) (int, []directory.Entry, error) {
	_, body, err := c.short(http.MethodPost, "/p2p/directory/merge", reg.Snapshot())
	if err != nil {
		return 0, nil, err
	}
	var theirs []directory.Entry
	if err := json.Unmarshal(body, &theirs); err != nil {
		return 0, nil, err
	}
	return reg.Merge(theirs), theirs, nil
}
