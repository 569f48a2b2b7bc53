// Command gsnd runs a GSN node: it deploys every descriptor in the
// configuration directory, serves the web/REST/p2p interface, watches
// the directory for changes (the paper's on-the-fly reconfiguration —
// drop a descriptor in, it deploys; edit it, it redeploys; delete it,
// it undeploys), and gossips its directory with peer nodes.
//
// Usage:
//
//	gsnd -addr :22001 -conf ./conf [-name lab-node] [-data ./data]
//	     [-advertise http://host:22001] [-peer http://other:22001]
//	     [-key secret:admin] [-watch 2s]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gsn"
	"gsn/internal/access"
)

type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }
func (p *peerList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

type keyList []string

func (k *keyList) String() string { return strings.Join(*k, ",") }
func (k *keyList) Set(v string) error {
	*k = append(*k, v)
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", ":22001", "listen address for the web/p2p interface")
		conf      = flag.String("conf", "conf", "directory of virtual sensor descriptors (*.xml)")
		name      = flag.String("name", "gsn-node", "container name")
		dataDir   = flag.String("data", "", "data directory for permanent storage (empty = in-memory only)")
		advertise = flag.String("advertise", "", "address peers use to reach this node (default http://<addr>)")
		watch     = flag.Duration("watch", 2*time.Second, "configuration directory poll interval (0 disables hot deploy)")
		gossip    = flag.Duration("gossip", 30*time.Second, "directory gossip interval")
		peers     peerList
		keys      keyList
	)
	flag.Var(&peers, "peer", "cluster peer base URL (repeatable; enables federation)")
	flag.Var(&keys, "key", "API key as key:role where role is read|deploy|admin (repeatable)")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	adv := *advertise
	if adv == "" {
		adv = "http://" + strings.TrimPrefix(*addr, ":")
		if strings.HasPrefix(*addr, ":") {
			host, _ := os.Hostname()
			adv = fmt.Sprintf("http://%s%s", host, *addr)
		}
	}

	node, err := gsn.NewNode(gsn.NodeOptions{
		Name:      *name,
		DataDir:   *dataDir,
		Advertise: adv,
		Peers:     peers,
		Logger:    logger,
	})
	if err != nil {
		logger.Fatalf("gsnd: %v", err)
	}
	defer node.Close()

	for _, spec := range keys {
		parts := strings.SplitN(spec, ":", 2)
		if len(parts) != 2 {
			logger.Fatalf("gsnd: -key wants key:role, got %q", spec)
		}
		role, err := access.ParseRole(parts[1])
		if err != nil {
			logger.Fatalf("gsnd: %v", err)
		}
		if err := node.Container().ACL().SetKey(parts[0], role); err != nil {
			logger.Fatalf("gsnd: %v", err)
		}
	}

	if _, err := os.Stat(*conf); err == nil {
		deployed, err := node.DeployDir(*conf)
		if err != nil {
			logger.Printf("gsnd: initial deploy: %v", err)
		}
		logger.Printf("gsnd: deployed %d sensor(s) from %s: %v", len(deployed), *conf, deployed)
	} else {
		logger.Printf("gsnd: configuration directory %s not found; starting empty", *conf)
	}

	boundAddr, err := node.Listen(*addr)
	if err != nil {
		logger.Fatalf("gsnd: listen: %v", err)
	}
	logger.Printf("gsnd: %s serving on %s (advertised as %s)", *name, boundAddr, adv)

	if *watch > 0 {
		go watchConfDir(node, *conf, *watch, logger)
	}
	if len(peers) > 0 {
		node.StartGossip(*gossip)
	}
	select {} // run until killed
}

// watchConfDir polls the descriptor directory and hot-(re|un)deploys on
// changes — the demonstration scenario of the paper's §6. Changed files
// within one tick are parsed together and (re)deployed in topological
// dependency order, so dropping a multi-file composition graph into the
// directory brings it up in one pass. A file that fails to parse or
// deploy is counted on the watcher_errors metric and remembered at its
// failing mtime: it is logged once and retried only when the file
// changes again, not on every tick.
func watchConfDir(node *gsn.Node, dir string, interval time.Duration, logger *log.Logger) {
	type state struct {
		modTime time.Time
		sensor  string // deployed sensor name ("" after a failed attempt)
		failed  bool
	}
	watcherErrors := node.Container().Metrics().Counter("watcher_errors")
	known := map[string]state{}
	// Seed from the initial deployment — but only record a file as
	// deployed if its sensor actually is (a failed DeployDir leaves
	// files undeployed; seeding them at their mtime would skip them
	// forever). Undeployed files get a zero mtime so the first tick
	// retries them as one topologically ordered batch.
	deployedNow := map[string]bool{}
	for _, name := range node.SensorNames() {
		deployedNow[strings.ToUpper(name)] = true
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".xml" {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			if d, err := parseDescriptorFile(filepath.Join(dir, e.Name())); err == nil {
				if deployedNow[strings.ToUpper(d.Name)] {
					known[e.Name()] = state{modTime: info.ModTime(), sensor: d.Name}
				} else {
					known[e.Name()] = state{failed: true} // zero mtime: retry on first tick
				}
			}
		}
	}
	for range time.Tick(interval) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		type changed struct {
			file    string
			modTime time.Time
			desc    *gsn.Descriptor
		}
		var batch []changed
		seen := map[string]bool{}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".xml" {
				continue
			}
			seen[e.Name()] = true
			info, err := e.Info()
			if err != nil {
				continue
			}
			prev, ok := known[e.Name()]
			if ok && !info.ModTime().After(prev.modTime) {
				continue // unchanged since the last (possibly failed) attempt
			}
			path := filepath.Join(dir, e.Name())
			d, err := parseDescriptorFile(path)
			if err != nil {
				watcherErrors.Inc()
				logger.Printf("gsnd: %s: %v (will retry when the file changes)", e.Name(), err)
				known[e.Name()] = state{modTime: info.ModTime(), sensor: prev.sensor, failed: true}
				continue
			}
			batch = append(batch, changed{file: e.Name(), modTime: info.ModTime(), desc: d})
		}
		// Topologically order this tick's batch so a multi-file graph
		// deploys upstream-first regardless of directory order. An
		// unsortable batch (cycle, duplicate name) falls back to the
		// original file order so its valid members still deploy; the
		// offending descriptors fail individually below.
		if descs := make([]*gsn.Descriptor, len(batch)); len(batch) > 0 {
			for i := range batch {
				descs[i] = batch[i].desc
			}
			if ordered, err := gsn.SortDescriptors(descs); err != nil {
				watcherErrors.Inc()
				logger.Printf("gsnd: %v (deploying this tick's files in name order)", err)
			} else {
				byName := map[string]changed{}
				for _, ch := range batch {
					byName[ch.desc.Name] = ch
				}
				batch = batch[:0]
				for _, d := range ordered {
					batch = append(batch, byName[d.Name])
				}
			}
		}
		anyDeployed := false
		for _, ch := range batch {
			if err := node.Redeploy(ch.desc); err != nil {
				watcherErrors.Inc()
				logger.Printf("gsnd: redeploy %s: %v (will retry when the file changes)", ch.desc.Name, err)
				prev := known[ch.file]
				known[ch.file] = state{modTime: ch.modTime, sensor: prev.sensor, failed: true}
				continue
			}
			anyDeployed = true
			logger.Printf("gsnd: hot-deployed %s from %s", ch.desc.Name, ch.file)
			known[ch.file] = state{modTime: ch.modTime, sensor: ch.desc.Name}
		}
		if anyDeployed {
			// A successful deploy is exactly the event that can unblock a
			// previously failed file (e.g. a dangling local dependency
			// whose upstream just arrived): re-arm failed entries for one
			// more attempt next tick.
			for file, st := range known {
				if st.failed {
					st.modTime = time.Time{}
					known[file] = st
				}
			}
		}
		var removed []string
		for file, st := range known {
			if !seen[file] {
				if st.sensor != "" {
					removed = append(removed, st.sensor)
				}
				delete(known, file)
			}
		}
		gone := map[string]bool{}
		for _, sensor := range removed {
			if gone[strings.ToUpper(sensor)] {
				continue // already taken down by an earlier cascade this tick
			}
			// Deleting an upstream's file cascades through its local
			// dependents (they cannot run without it); dependents whose
			// own descriptor files still exist are re-armed below so the
			// next tick redeploys them once their upstream returns — or
			// surfaces their dangling dependency as a watcher error.
			victims, err := node.UndeployCascade(sensor)
			if err != nil {
				watcherErrors.Inc()
				logger.Printf("gsnd: undeploy %s: %v", sensor, err)
				continue
			}
			logger.Printf("gsnd: undeployed %s (descriptor removed; cascade: %v)", sensor, victims)
			for _, v := range victims {
				gone[strings.ToUpper(v)] = true
				for file, st := range known {
					if strings.EqualFold(st.sensor, v) {
						st.modTime = time.Time{} // force a redeploy attempt next tick
						known[file] = st
					}
				}
			}
		}
	}
}

func parseDescriptorFile(path string) (*gsn.Descriptor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return gsn.ParseDescriptor(data)
}
