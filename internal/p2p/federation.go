package p2p

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/core"
	"gsn/internal/resilience"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// Federation implements core.Cluster over the p2p protocol: node
// membership is an explicit peer set plus whatever the gossiped
// directory reveals, sensor placement is the directory's name
// predicate, remote composition edges ride the exactly-once
// (epoch, seq) stream wrapper, and the three query transports are the
// two forms of the peer query route. One Federation serves one node and
// holds its only peer table; inject it with Container.SetCluster to
// make the node clustered.
type Federation struct {
	c     *core.Container
	self  string
	httpc *http.Client

	mu         sync.Mutex
	peers      map[string]*Client    // base URL → client
	routed     map[string]*ownerLoop // base URL → its routed results loop
	gossipStop chan struct{}         // nil while no gossip loop runs
	gossipDone chan struct{}

	partialBytes atomic.Uint64
	unionBytes   atomic.Uint64
	routedBytes  atomic.Uint64
}

// NewFederation creates the federation for a container. httpc is the
// transport every peer connection uses — the seam the chaos harness
// threads a FaultTransport through; nil uses the default transport.
// It starts nothing: periodic gossip is StartGossip's.
func NewFederation(c *core.Container, httpc *http.Client) *Federation {
	return &Federation{
		c:      c,
		self:   c.NodeAddress(),
		httpc:  httpc,
		peers:  make(map[string]*Client),
		routed: make(map[string]*ownerLoop),
	}
}

// AddPeer registers a peer node by base URL (e.g. "http://host:22001").
func (f *Federation) AddPeer(base string) {
	base = strings.TrimRight(base, "/")
	if base != "" && base != f.self {
		f.peerClient(base)
	}
}

// Peers lists the known peer base URLs, sorted.
func (f *Federation) Peers() []string {
	f.mu.Lock()
	out := make([]string, 0, len(f.peers))
	for base := range f.peers {
		out = append(out, base)
	}
	f.mu.Unlock()
	sort.Strings(out)
	return out
}

// peerClient returns the client for a base URL, creating one on demand:
// the directory may reveal owners that were never explicitly AddPeer'd
// (a peer of a peer, learned through gossip). Clients are kept so each
// peer's circuit breaker accumulates across calls: a peer that keeps
// failing is skipped cheaply (ErrCircuitOpen) until its cooldown lets a
// probe through.
func (f *Federation) peerClient(base string) *Client {
	base = strings.TrimRight(base, "/")
	f.mu.Lock()
	defer f.mu.Unlock()
	cl, ok := f.peers[base]
	if !ok {
		cl = &Client{Base: base, HTTP: f.httpc, Breaker: resilience.NewBreaker(3, 10*time.Second)}
		f.peers[base] = cl
	}
	return cl
}

// GossipWith performs one push-pull directory exchange with a peer and
// returns the number of adopted entries. The peer, and every node its
// snapshot names, join the peer table, so later rounds include them —
// a peer of a peer gossips from the round that learned it.
func (f *Federation) GossipWith(base string) (int, error) {
	n, theirs, err := f.peerClient(base).Gossip(f.c.Directory())
	for _, e := range theirs {
		f.AddPeer(e.Node)
	}
	return n, err
}

// GossipRound performs one push-pull directory exchange with every
// peer and returns the total number of adopted entries. The gossip
// loop calls this; tests call it directly to converge placement
// deterministically.
func (f *Federation) GossipRound() int { return f.gossipRound(nil) }

func (f *Federation) gossipRound(logf func(format string, args ...any)) int {
	adopted := 0
	for _, base := range f.Peers() {
		n, err := f.GossipWith(base)
		if err != nil {
			if logf != nil {
				logf("gsn: gossip %s: %v", base, err)
			}
			continue
		}
		adopted += n
	}
	return adopted
}

// StartGossip runs a gossip round every interval in the background,
// reporting failed exchanges and adopted entries to logf (nil = silent),
// until StopGossip. Starting again replaces the running loop, which is
// how a caller changes the interval.
func (f *Federation) StartGossip(every time.Duration, logf func(format string, args ...any)) {
	stop, done := make(chan struct{}), make(chan struct{})
	f.swapGossip(stop, done)
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if n := f.gossipRound(logf); n > 0 && logf != nil {
					logf("gsn: gossip adopted %d directory entries", n)
				}
			}
		}
	}()
}

// StopGossip stops the gossip loop, if one runs, and waits for it.
func (f *Federation) StopGossip() { f.swapGossip(nil, nil) }

// swapGossip installs a loop's channels and retires the loop they
// replace. Swapping under the lock gives every loop exactly one closer.
func (f *Federation) swapGossip(stop, done chan struct{}) {
	f.mu.Lock()
	prevStop, prevDone := f.gossipStop, f.gossipDone
	f.gossipStop, f.gossipDone = stop, done
	f.mu.Unlock()
	if prevStop != nil {
		close(prevStop)
		<-prevDone
	}
}

// Owners implements core.Cluster: the peers currently publishing the
// sensor, per the gossiped directory, excluding this node, sorted.
func (f *Federation) Owners(sensor string) []string {
	entries := f.c.Directory().Query(map[string]string{"name": stream.CanonicalName(sensor)})
	seen := map[string]bool{}
	var out []string
	for _, e := range entries {
		if e.Node == "" || e.Node == f.self || seen[e.Node] {
			continue
		}
		seen[e.Node] = true
		out = append(out, e.Node)
	}
	sort.Strings(out)
	return out
}

// Schema implements core.Cluster.
func (f *Federation) Schema(owner, sensor string) (*stream.Schema, error) {
	return f.peerClient(owner).Schema(sensor)
}

// RemoteSource implements core.Cluster: a composition edge backed by
// the exactly-once (epoch, seq) stream wrapper, pointed at the
// sensor's first owner. The wrapper owns reconnection, epoch re-sync
// and duplicate filtering; the quality chain and window table it feeds
// are the downstream sensor's ordinary ones.
func (f *Federation) RemoteSource(sensor string, params map[string]string) (wrappers.Wrapper, error) {
	canonical := stream.CanonicalName(sensor)
	owners := f.Owners(canonical)
	if len(owners) == 0 {
		return nil, fmt.Errorf("p2p: no cluster node publishes %s", canonical)
	}
	p := wrappers.Params{}
	for k, v := range params {
		p[k] = v
	}
	p["url"] = owners[0]
	p["vs"] = canonical
	return newRemote(wrappers.Config{
		Name:   "cluster/" + canonical,
		Params: p,
		Clock:  f.c.Clock(),
	}, f.c.Directory(), f.c.Keys(), f.httpc)
}

// PartialQuery implements core.Cluster.
func (f *Federation) PartialQuery(owner, sql string) (*sqlengine.PartialRollup, error) {
	hdr, body, err := f.peerClient(owner).Query(sql, true)
	f.partialBytes.Add(uint64(len(body)))
	if err != nil {
		return nil, err
	}
	return decodeAnswer(owner, hdr, body, sqlengine.ReadPartial)
}

// RouteQuery implements core.Cluster.
func (f *Federation) RouteQuery(owner, sql string) (*sqlengine.Relation, error) {
	hdr, body, err := f.peerClient(owner).Query(sql, false)
	f.routedBytes.Add(uint64(len(body)))
	if err != nil {
		return nil, err
	}
	return decodeAnswer(owner, hdr, body, sqlengine.ReadRelation)
}

// UnionRows implements core.Cluster: the raw-row fallback transport,
// accounted separately from routed statements so partial-aggregate
// shipping has a bytes-moved baseline.
func (f *Federation) UnionRows(owner, table string) (*sqlengine.Relation, error) {
	hdr, body, err := f.peerClient(owner).Query("SELECT * FROM "+table, false)
	f.unionBytes.Add(uint64(len(body)))
	if err != nil {
		return nil, err
	}
	return decodeAnswer(owner, hdr, body, sqlengine.ReadRelation)
}

// Info implements core.Cluster.
func (f *Federation) Info() core.ClusterInfo {
	info := core.ClusterInfo{
		Self:         f.self,
		Peers:        f.Peers(),
		Placements:   map[string][]string{},
		PartialBytes: f.partialBytes.Load(),
		UnionBytes:   f.unionBytes.Load(),
		RoutedBytes:  f.routedBytes.Load(),
	}
	for _, e := range f.c.Directory().Query(nil) {
		if e.Node == "" {
			continue
		}
		nodes := info.Placements[e.Sensor]
		dup := false
		for _, n := range nodes {
			if n == e.Node {
				dup = true
				break
			}
		}
		if !dup {
			info.Placements[e.Sensor] = append(nodes, e.Node)
		}
	}
	for _, nodes := range info.Placements {
		sort.Strings(nodes)
	}
	return info
}
