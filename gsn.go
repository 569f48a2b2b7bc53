// Package gsn is the public API of the Global Sensor Networks (GSN)
// middleware — a Go reproduction of "A Middleware for Fast and Flexible
// Sensor Network Deployment" (Aberer, Hauswirth, Salehi; VLDB 2006).
//
// A Node is one GSN container plus its web/peer interface. Virtual
// sensors are deployed declaratively from XML descriptors; their data
// streams are processed with SQL, stored in windowed tables, published
// to a peer-to-peer directory, and delivered to subscribers:
//
//	node, _ := gsn.NewNode(gsn.NodeOptions{Name: "demo"})
//	defer node.Close()
//	node.DeployFile("conf/avg-temperature.xml")
//	rel, _ := node.Query(`select avg(temperature) from "avg-temperature"`)
//
// See the examples directory for complete programs: quickstart,
// the paper's multi-network demo, two-node federation, and live
// reconfiguration.
package gsn

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gsn/internal/core"
	"gsn/internal/directory"
	"gsn/internal/notify"
	"gsn/internal/p2p"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/vsensor"
	"gsn/internal/web"
	"gsn/internal/wrappers"
)

// Aliases re-exporting the middleware's data model so applications use
// only the gsn package.
type (
	// Element is one timestamped stream tuple.
	Element = stream.Element
	// Schema describes a stream's fields.
	Schema = stream.Schema
	// Timestamp is milliseconds since the Unix epoch.
	Timestamp = stream.Timestamp
	// Clock abstracts time for deterministic simulation.
	Clock = stream.Clock
	// ManualClock is a test/simulation clock.
	ManualClock = stream.ManualClock
	// Relation is a SQL query result.
	Relation = sqlengine.Relation
	// Event is one notification delivered to subscribers.
	Event = notify.Event
	// Descriptor is a parsed virtual sensor deployment descriptor.
	Descriptor = vsensor.Descriptor
	// SensorStats summarises a deployed sensor's activity.
	SensorStats = core.SensorStats
	// Wrapper is the platform adaptation interface for new sensor
	// kinds.
	Wrapper = wrappers.Wrapper
	// WrapperConfig configures a wrapper instance.
	WrapperConfig = wrappers.Config
)

// SystemClock returns the wall-clock Clock.
func SystemClock() Clock { return stream.SystemClock() }

// NewManualClock returns a deterministic clock starting at start.
func NewManualClock(start Timestamp) *ManualClock { return stream.NewManualClock(start) }

// ParseDescriptor parses and validates descriptor XML.
func ParseDescriptor(data []byte) (*Descriptor, error) { return vsensor.Parse(data) }

// SortDescriptors topologically orders descriptors by their local
// composition dependencies (upstream first; ties by priority then
// input order). A dependency cycle within the batch is an error.
func SortDescriptors(descs []*Descriptor) ([]*Descriptor, error) {
	return core.SortDescriptors(descs)
}

// NodeOptions configures a Node.
type NodeOptions struct {
	// Name identifies the node (default "gsn-node").
	Name string
	// DataDir enables permanent storage for sensors that request it.
	DataDir string
	// Advertise is the address peers should use to reach this node
	// (e.g. "http://host:22001"); set it when serving.
	Advertise string
	// Clock overrides the time source (nil = system clock).
	Clock Clock
	// SyncProcessing turns wrapper supervision off, for deterministic
	// simulation (tests, benchmarks). Triggers and registered-query
	// sweeps run on the goroutine that delivered their element either
	// way.
	SyncProcessing bool
	// SignKeyID signs outgoing peer streams with this keyring entry.
	SignKeyID string
	// Peers lists cluster peer base URLs (e.g. "http://host:22001").
	// A non-empty list makes the node clustered: composition edges and
	// queries against sensors deployed on peers resolve through the
	// federation instead of failing. More peers can join later with
	// JoinCluster.
	Peers []string
	// PeerHTTP is the transport every peer connection uses (nil =
	// default). Tests thread a fault-injecting transport through here.
	PeerHTTP *http.Client
	// Logger receives middleware warnings (nil = silent). Any value
	// satisfying the core logger contract works; the gsnd daemon passes
	// log.Default().
	Logger Logger
}

// Logger is the minimal logging contract the middleware needs.
type Logger interface {
	Printf(format string, v ...any)
}

// Node is one GSN container together with its interface layer.
type Node struct {
	container *core.Container
	web       *web.Server
	httpSrv   *http.Server
	logger    Logger

	// fed holds the node's peer table and gossip loop. Every node has
	// one; joinOnce is what makes the node clustered.
	fed      *p2p.Federation
	joinOnce sync.Once
}

// gossipInterval paces the background gossip rounds of a clustered
// node until StartGossip says otherwise.
const gossipInterval = 30 * time.Second

// NewNode creates a node. Every built-in wrapper is available, plus the
// "remote" wrapper bound to this node's directory for logical
// addressing.
func NewNode(opts NodeOptions) (*Node, error) {
	clock := opts.Clock
	if clock == nil {
		clock = stream.SystemClock()
	}
	dir := directory.NewRegistry(clock, 0)
	registry := wrappers.Default().Clone()

	coreOpts := core.Options{
		Name:           opts.Name,
		Clock:          clock,
		DataDir:        opts.DataDir,
		Registry:       registry,
		NodeAddress:    opts.Advertise,
		Directory:      dir,
		SyncProcessing: opts.SyncProcessing,
	}
	if opts.Logger != nil {
		coreOpts.Logger = opts.Logger
	}
	container, err := core.New(coreOpts)
	if err != nil {
		return nil, err
	}
	if err := p2p.RegisterRemoteHTTP(registry, dir, container.Keys(), opts.PeerHTTP); err != nil {
		container.Close()
		return nil, err
	}
	n := &Node{
		container: container,
		web:       web.NewServer(container, opts.SignKeyID),
		logger:    opts.Logger,
		fed:       p2p.NewFederation(container, opts.PeerHTTP),
	}
	for _, peer := range opts.Peers {
		n.JoinCluster(peer)
	}
	return n, nil
}

// JoinCluster adds a cluster peer, turning a standalone node clustered
// on first use: queries and composition edges start resolving through
// the federation, and background gossip rounds (every 30s; see
// StartGossip) keep placement converging from then on.
func (n *Node) JoinCluster(peerURL string) {
	n.joinOnce.Do(func() {
		n.container.SetCluster(n.fed)
		n.StartGossip(gossipInterval)
	})
	n.fed.AddPeer(peerURL)
}

// StartGossip re-paces the background gossip rounds to one every
// interval; a node that never joined a cluster starts them here.
func (n *Node) StartGossip(every time.Duration) {
	var logf func(string, ...any)
	if n.logger != nil {
		logf = n.logger.Printf
	}
	n.fed.StartGossip(every, logf)
}

// GossipRound performs one directory push-pull exchange with every
// known peer and returns the number of adopted entries. Tests call this
// to converge placement deterministically.
func (n *Node) GossipRound() int { return n.fed.GossipRound() }

// ClusterInfo reports cluster membership, sensor placements and
// federation transport counters (self-only on a standalone node).
func (n *Node) ClusterInfo() core.ClusterInfo { return n.container.ClusterInfo() }

// DeployXML deploys a virtual sensor from descriptor XML.
func (n *Node) DeployXML(data []byte) error { return n.container.DeployXML(data) }

// Deploy deploys a parsed descriptor.
func (n *Node) Deploy(d *Descriptor) error { return n.container.Deploy(d) }

// DeployFile deploys a descriptor file.
func (n *Node) DeployFile(path string) error {
	d, err := vsensor.ParseFile(path)
	if err != nil {
		return err
	}
	return n.container.Deploy(d)
}

// DeployDir deploys every *.xml descriptor in a directory as one
// batch: descriptors are topologically ordered by their local
// composition dependencies (upstream sensors first), with priority
// (highest first, ties by file name) breaking ties among independent
// sensors — so a multi-file derivation graph comes up in one pass
// regardless of file naming. It returns the deployed sensor names in
// deployment order.
func (n *Node) DeployDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type pending struct {
		file string
		desc *Descriptor
	}
	var all []pending
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".xml" {
			continue
		}
		d, err := vsensor.ParseFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		all = append(all, pending{file: e.Name(), desc: d})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].desc.Priority != all[j].desc.Priority {
			return all[i].desc.Priority > all[j].desc.Priority
		}
		return all[i].file < all[j].file
	})
	descs := make([]*Descriptor, len(all))
	fileOf := make(map[*Descriptor]string, len(all))
	for i, p := range all {
		descs[i] = p.desc
		fileOf[p.desc] = p.file
	}
	ordered, err := core.SortDescriptors(descs)
	if err != nil {
		return nil, err
	}
	var deployed []string
	for _, d := range ordered {
		if err := n.container.Deploy(d); err != nil {
			return deployed, fmt.Errorf("%s: %w", fileOf[d], err)
		}
		deployed = append(deployed, d.Name)
	}
	return deployed, nil
}

// DeployAll deploys a batch of descriptors in topological dependency
// order (see Container.DeployAll).
func (n *Node) DeployAll(descs []*Descriptor) ([]string, error) {
	return n.container.DeployAll(descs)
}

// Redeploy replaces a running sensor's configuration on the fly. When
// the output schema and storage policy are unchanged the swap preserves
// state: output rows, registered client queries, subscriptions and
// downstream local consumers all survive.
func (n *Node) Redeploy(d *Descriptor) error { return n.container.Redeploy(d) }

// Undeploy removes a virtual sensor. It refuses while other sensors
// consume its output through local sources (see UndeployCascade).
func (n *Node) Undeploy(name string) error { return n.container.Undeploy(name) }

// UndeployCascade removes a virtual sensor and every sensor that
// transitively consumes its output, most-downstream first.
func (n *Node) UndeployCascade(name string) ([]string, error) {
	return n.container.UndeployCascade(name)
}

// Graph returns the local composition dependency graph: each deployed
// sensor mapped to the upstream sensors its local sources consume.
func (n *Node) Graph() map[string][]string { return n.container.Graph() }

// SensorNames lists deployed sensors.
func (n *Node) SensorNames() []string {
	var out []string
	for _, vs := range n.container.Sensors() {
		out = append(out, vs.Name())
	}
	return out
}

// SensorStats returns a deployed sensor's counters.
func (n *Node) SensorStats(name string) (SensorStats, error) {
	vs, ok := n.container.Sensor(name)
	if !ok {
		return SensorStats{}, fmt.Errorf("gsn: virtual sensor %q is not deployed", name)
	}
	return vs.Stats(), nil
}

// Query runs a one-shot SQL query over the node's stored streams.
func (n *Node) Query(sql string) (*Relation, error) { return n.container.Query(sql) }

// Subscribe delivers every output element of a sensor to fn (empty
// sensor name = all sensors). fn runs on the goroutine that produced
// the element, one call at a time, so it must not block, deploy or
// unsubscribe: hand such work to a goroutine. It returns the
// subscription id for Unsubscribe.
func (n *Node) Subscribe(sensor string, fn func(Event)) (int64, error) {
	return n.container.Subscribe(sensor, notify.FuncChannel{Fn: func(ev notify.Event) error {
		fn(ev)
		return nil
	}})
}

// Unsubscribe cancels a subscription.
func (n *Node) Unsubscribe(id int64) error { return n.container.Unsubscribe(id) }

// RegisterQuery adds a continuous client query evaluated whenever the
// sensor produces (sampling in (0,1]; cb may be nil). cb runs on the
// goroutine that delivered the element behind the new output, inside
// that evaluation, which Undeploy, Redeploy and Close wait for: it must
// not block, and must not deploy, redeploy or undeploy the sensor it
// watches (nor close the node).
func (n *Node) RegisterQuery(sensor, sql string, sampling float64, cb func(*Relation)) (int64, error) {
	return n.container.RegisterQuery(sensor, sql, sampling, cb)
}

// UnregisterQuery removes a continuous query.
func (n *Node) UnregisterQuery(id int64) error { return n.container.UnregisterQuery(id) }

// PulseBatch drives every batch-capable wrapper once, injecting up to
// max elements per source as one burst through the batch ingestion
// path (deterministic burst driver for benchmarks and tests).
func (n *Node) PulseBatch(max int) int { return n.container.PulseBatch(max) }

// Pulse drives every pull-capable wrapper once (deterministic
// simulation; see the examples).
func (n *Node) Pulse() int { return n.container.Pulse() }

// GossipWith performs one directory push-pull exchange with a peer node
// and returns the number of adopted entries. It discovers what the peer
// publishes without making this node clustered (that is JoinCluster's).
// A peer that keeps failing is skipped cheaply (p2p.ErrCircuitOpen)
// until its breaker's cooldown lets a probe through.
func (n *Node) GossipWith(peerURL string) (int, error) { return n.fed.GossipWith(peerURL) }

// Handler returns the node's HTTP interface (REST API, dashboard, p2p
// protocol) for mounting on any server.
func (n *Node) Handler() http.Handler { return n.web.Handler() }

// Listen starts serving the HTTP interface on addr in the background
// and returns the bound address (useful with ":0").
func (n *Node) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	n.httpSrv = &http.Server{Handler: n.web.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go n.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Container exposes the underlying container for advanced integrations
// (metrics, ACL, keyring).
func (n *Node) Container() *core.Container { return n.container }

// Close shuts the node down: HTTP interface, sensors, storage.
func (n *Node) Close() error {
	if n.httpSrv != nil {
		n.httpSrv.Close()
	}
	n.fed.StopGossip()
	n.web.Close()
	return n.container.Close()
}

// RegisterWrapper adds a custom wrapper kind to the process-wide
// registry used by nodes created afterwards. Implementing a wrapper is
// the only code needed to support a new sensor platform (paper §5).
func RegisterWrapper(kind string, factory func(WrapperConfig) (Wrapper, error)) error {
	return wrappers.Register(kind, factory)
}
