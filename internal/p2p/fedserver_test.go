package p2p

import (
	"context"
	"encoding/hex"
	"net/http/httptest"
	"testing"
	"time"

	"gsn/internal/core"
	"gsn/internal/stream"
)

// TestRoutedSessionReaper pins two restart-safety properties of routed
// query sessions. Ids are crypto-random, never counter-derived: a
// counter resets on restart and reissues old ids, so a coordinator
// polling a stale id after an owner reboot would silently receive a
// different query's results. And orphaned sessions (coordinator
// crashed, DELETE lost) are reclaimed by the background timer sweep
// alone — no further request of any kind reaches the node.
func TestRoutedSessionReaper(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{{"a", int64(1), 0.5}}
	c, err := core.New(core.Options{
		Name:           "owner",
		Clock:          clock,
		SyncProcessing: true,
		Registry:       feedRegistry(map[string]*feedWrapper{"src": {clock: clock, rows: rows}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.DeployXML([]byte(feedDescriptor("src", "src"))); err != nil {
		t.Fatal(err)
	}

	s := newServer(c, "", 50*time.Millisecond, 10*time.Millisecond)
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	cl := &Client{Base: srv.URL}

	id1, err := cl.RegisterContinuous("src", "select count(*) as n from src", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := cl.RegisterContinuous("src", "select count(*) as n from src", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{id1, id2} {
		if len(id) != 32 {
			t.Errorf("session id %q is %d chars, want 32 (128-bit hex)", id, len(id))
		}
		if _, err := hex.DecodeString(id); err != nil {
			t.Errorf("session id %q is not hex: %v", id, err)
		}
	}
	if id1 == id2 {
		t.Fatalf("two registrations minted the same session id %q", id1)
	}
	if n := c.QueryRepositoryRef().Count(); n != 2 {
		t.Fatalf("registered queries = %d, want 2", n)
	}

	// Orphan both sessions: never poll, never DELETE, never register
	// again. Only the reap loop can reclaim the underlying queries.
	waitForLong(t, 15*time.Second, func() bool {
		return c.QueryRepositoryRef().Count() == 0
	}, "timer sweep reclaiming orphaned sessions")

	pages, _, err := cl.PollResults(context.Background(), []ResultsCursor{{ID: id1}}, 0)
	if err != nil || len(pages) != 1 || pages[0].ID != id1 || !pages[0].Gone {
		t.Errorf("poll after reap returned %+v, %v; want one gone page for %s", pages, err, id1)
	}
}
