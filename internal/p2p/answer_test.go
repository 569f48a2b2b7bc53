package p2p

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"gsn/internal/core"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
)

// FuzzPeerAnswerDecode feeds arbitrary bytes to the three peer-answer
// decoders — a relation, a partial rollup, a results poll's pages —
// as a coordinator would from a misbehaving peer. None may panic or
// allocate beyond a small multiple of its input, and an input that
// decodes must re-encode to the same bytes, so no two encodings mean
// the same answer. The seed corpus is answers a real node served.
func FuzzPeerAnswerDecode(f *testing.F) {
	for _, answer := range servedAnswers(f) {
		f.Add(answer)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// One processor, so no other goroutine's allocations land in the
		// measured window.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		checkAnswerDecoder(t, "relation", data, sqlengine.ReadRelation, sqlengine.AppendRelation)
		checkAnswerDecoder(t, "partial", data, sqlengine.ReadPartial, sqlengine.AppendPartial)
		checkAnswerDecoder(t, "pages", data, readPages, appendPages)
	})
}

// allocPerByte bounds a decoder's heap bytes per input byte: the worst
// case is a run of one-byte empty column names, each a string header
// and a Column.
const allocPerByte = 64

func checkAnswerDecoder[T any](t *testing.T, name string, data []byte, read func(*stream.Reader) T, write func([]byte, T) []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := stream.NewReader(data)
	v := read(r)
	err := r.Done()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(allocPerByte*len(data)+4096) {
		t.Fatalf("%s: decoding %d bytes allocated %d", name, len(data), grew)
	}
	if err != nil {
		return
	}
	if again := write(nil, v); !bytes.Equal(again, data) {
		t.Fatalf("%s: %x decoded, but re-encodes to %x", name, data, again)
	}
}

// servedAnswers returns the answers a node serves over a few rows:
// /p2p/query for a relation and for a partial rollup, and a /p2p/results
// poll holding a fresh revision and a gone session.
func servedAnswers(f *testing.F) [][]byte {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{
		{"a", int64(1), 0.5}, {"b", int64(-1 << 62), math.NaN()},
		{"\xff", nil, math.Inf(-1)}, {"a", int64(7), math.Copysign(0, -1)},
	}
	c, err := core.New(core.Options{
		Name:           "fuzz",
		Clock:          clock,
		SyncProcessing: true,
		Registry:       feedRegistry(map[string]*feedWrapper{"m": {clock: clock, rows: rows}}),
	})
	if err != nil {
		f.Fatal(err)
	}
	defer c.Close()
	if err := c.DeployXML([]byte(feedDescriptor("m", "m"))); err != nil {
		f.Fatal(err)
	}
	vs, _ := c.Sensor("m")
	for range rows {
		clock.Advance(time.Millisecond)
		vs.Pulse()
	}
	srv := NewServer(c, "")
	defer srv.Close()
	serve := func(method, target, body string) []byte {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			f.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var reg RegisterResponse
	if err := json.Unmarshal(serve(http.MethodPost, "/p2p/register", `{"vs":"m","sql":"select room, v, f from m"}`), &reg); err != nil {
		f.Fatal(err)
	}
	answers := [][]byte{
		serve(http.MethodGet, "/p2p/query?sql="+url.QueryEscape("select * from m"), ""),
		serve(http.MethodGet, "/p2p/query?partial=1&sql="+url.QueryEscape(
			"select room, count(*) as n, sum(f) as s, min(v) as mn, first(f) as ff from m group by room"), ""),
		serve(http.MethodGet, "/p2p/results?id="+reg.ID+"&after=0&id=gone&after=0", ""),
	}
	binaryHeader := http.Header{"Content-Type": {binaryType}}
	rel, err := decodeAnswer("seed", binaryHeader, answers[0], sqlengine.ReadRelation)
	if err != nil || len(rel.Rows) != len(rows) {
		f.Fatalf("relation seed: %v, %v", rel, err)
	}
	if pr, err := decodeAnswer("seed", binaryHeader, answers[1], sqlengine.ReadPartial); err != nil || len(pr.Groups) != 3 {
		f.Fatalf("partial seed: %+v, %v", pr, err)
	}
	if pages, err := decodeAnswer("seed", binaryHeader, answers[2], readPages); err != nil || len(pages) != 2 || !pages[1].Gone {
		f.Fatalf("pages seed: %+v, %v", pages, err)
	}
	return answers
}

// TestClientRefusesPreBinaryAnswer: a peer answering a query or a
// results poll in any other content type than the binary codec's — a
// node from before it answers JSON — is refused, naming the peer. There
// is no fallback decoder.
func TestClientRefusesPreBinaryAnswer(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"columns":["N"],"rows":[[{"i":"1"}]]}`))
	}))
	defer old.Close()
	cl := &Client{Base: old.URL}
	hdr, body, qerr := cl.Query("select count(*) as n from m", false)
	if qerr == nil {
		_, qerr = decodeAnswer(cl.Base, hdr, body, sqlengine.ReadRelation)
	}
	_, _, perr := cl.PollResults(context.Background(), []ResultsCursor{{ID: "x"}}, 0)
	for _, err := range []error{qerr, perr} {
		if err == nil || !strings.Contains(err.Error(), old.URL) || !strings.Contains(err.Error(), "older node?") {
			t.Errorf("err = %v, want a refusal naming %s as an older node", err, old.URL)
		}
	}
}
