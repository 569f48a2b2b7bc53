package p2p

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/core"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// TestRemoteWrapperReconnects kills the peer's listener mid-stream and
// brings it back on the same address: the remote wrapper must ride out
// the disconnection with backoff and resume without duplicating or
// losing the elements still in the peer's window.
func TestRemoteWrapperReconnects(t *testing.T) {
	producer, err := core.New(core.Options{Name: "producer", SyncProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.DeployXML([]byte(producerDescriptor)); err != nil {
		t.Fatal(err)
	}
	handler := NewServer(producer, "").Handler()

	// Listener we can kill and resurrect on a fixed port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)

	reg := wrappers.NewRegistry()
	if err := RegisterRemoteHTTP(reg, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	w, err := reg.New("remote", wrappers.Config{
		Name:   "r",
		Params: wrappers.Params{"url": "http://" + addr, "vs": "remote-temp", "poll": "30"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var received atomic.Int64
	if err := w.Start(func(stream.Element) { received.Add(1) }); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	producer.Pulse()
	waitFor(t, func() bool { return received.Load() == 1 }, "first element")

	// Kill the peer.
	srv.Close()
	rw := w.(*RemoteWrapper)
	waitFor(t, func() bool { return !rw.Connected() }, "disconnection noticed")
	producer.Pulse() // produced while unreachable; stays in the window

	// Resurrect on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	srv2 := &http.Server{Handler: handler}
	go srv2.Serve(ln2)
	defer srv2.Close()

	waitFor(t, func() bool { return received.Load() >= 2 }, "catch-up after reconnect")
	fetches, failures := rw.Stats()
	if failures == 0 {
		t.Error("no failures recorded across a dead peer")
	}
	if fetches <= failures {
		t.Errorf("fetches=%d failures=%d", fetches, failures)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFetchLimitParameter bounds a large backlog.
func TestFetchLimitParameter(t *testing.T) {
	producer, srv := producerNode(t, "")
	for i := 0; i < 30; i++ {
		producer.Pulse()
	}
	resp, err := http.Get(srv.URL + "/p2p/stream?vs=remote-temp&after=0&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Base: srv.URL}
	if elems, _, err := client.decodeStream(resp.Header, body); err != nil || len(elems) != 5 {
		t.Fatalf("limit=5 fetch = %d elements, %v", len(elems), err)
	}
	page, err := client.FetchSeq(context.Background(), "remote-temp", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Elems) != 30 {
		t.Fatalf("unbounded fetch = %d", len(page.Elems))
	}
}

func TestPeerEndpointValidation(t *testing.T) {
	_, srv := producerNode(t, "")
	cases := []string{
		"/p2p/stream?vs=ghost",
		"/p2p/stream?vs=remote-temp&after=abc",
		"/p2p/stream?vs=remote-temp&after=-1",
		"/p2p/stream?vs=remote-temp&wait=-5",
		"/p2p/stream?vs=remote-temp&limit=0",
		"/p2p/results",
		"/p2p/results?id=ghost",
		"/p2p/results?id=a&after=1&id=b",
		"/p2p/results?id=a&after=x",
		"/p2p/query",
		"/p2p/query?sql=select+1&partial=maybe",
	}
	for _, path := range cases {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s returned 200", path)
		}
	}
}

func TestDirectoryMergeRejectsGarbage(t *testing.T) {
	_, srv := producerNode(t, "")
	resp, err := http.Post(srv.URL+"/p2p/directory/merge", "application/json",
		httptest.NewRequest("POST", "/", nil).Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body merge = %d", resp.StatusCode)
	}
}
