// Package directory implements GSN's peer-to-peer discovery directory
// (paper §4): virtual sensor descriptions are published as user-definable
// key-value pairs and can be discovered by any combination of their
// properties (e.g. type=temperature AND location=bc143 — exactly the
// logical addressing used by the paper's Figure 1 remote source).
//
// Every container runs a registry; registries synchronise pairwise by
// exchanging snapshots (the p2p package provides the HTTP transport).
// Entries carry a TTL and must be republished; the merge rule
// (latest-expiry-wins) is a monotone join, so gossip converges without
// coordination.
package directory

import (
	"sort"
	"strings"
	"sync"
	"time"

	"gsn/internal/stream"
)

// Entry is one published virtual sensor.
type Entry struct {
	// Sensor is the virtual sensor name (canonical form).
	Sensor string `json:"sensor"`
	// Node is the address of the hosting container (e.g.
	// "http://host:22001"); empty for local-only registries.
	Node string `json:"node"`
	// Predicates are the discovery key-value pairs (lower-case keys).
	Predicates map[string]string `json:"predicates"`
	// Expires is the entry's expiry time.
	Expires stream.Timestamp `json:"expires"`
}

// key identifies an entry: one publication per (node, sensor).
func (e Entry) key() string { return e.Node + "|" + e.Sensor }

// Matches reports whether the entry satisfies every wanted predicate
// (subset match, case-insensitive keys and values; the sensor name is
// queryable under "name").
func (e Entry) Matches(want map[string]string) bool {
	for k, v := range want {
		k = strings.ToLower(strings.TrimSpace(k))
		if k == "" {
			continue
		}
		got, ok := e.Predicates[k]
		if !ok {
			return false
		}
		if !strings.EqualFold(got, v) {
			return false
		}
	}
	return true
}

// Registry is a TTL-based directory. All methods are safe for concurrent
// use.
type Registry struct {
	clock      stream.Clock
	defaultTTL time.Duration

	mu      sync.RWMutex
	entries map[string]Entry
}

// NewRegistry creates a registry; ttl is the default publication
// lifetime (0 means 5 minutes).
func NewRegistry(clock stream.Clock, ttl time.Duration) *Registry {
	if clock == nil {
		clock = stream.SystemClock()
	}
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	return &Registry{clock: clock, defaultTTL: ttl, entries: make(map[string]Entry)}
}

// TTL returns the default publication lifetime.
func (r *Registry) TTL() time.Duration { return r.defaultTTL }

// Publish registers (or refreshes) a sensor publication. Predicates are
// normalised to lower-case keys; the sensor name is always included
// under "name". ttl of 0 uses the registry default.
func (r *Registry) Publish(sensor, node string, predicates map[string]string, ttl time.Duration) Entry {
	if ttl <= 0 {
		ttl = r.defaultTTL
	}
	canonical := stream.CanonicalName(sensor)
	preds := make(map[string]string, len(predicates)+1)
	for k, v := range predicates {
		k = strings.ToLower(strings.TrimSpace(k))
		if k != "" {
			preds[k] = v
		}
	}
	if _, ok := preds["name"]; !ok {
		preds["name"] = canonical
	}
	e := Entry{
		Sensor:     canonical,
		Node:       node,
		Predicates: preds,
		Expires:    r.clock.Now().Add(ttl),
	}
	r.mu.Lock()
	r.entries[e.key()] = e
	r.mu.Unlock()
	return e
}

// Unpublish removes a publication immediately.
func (r *Registry) Unpublish(sensor, node string) {
	e := Entry{Sensor: stream.CanonicalName(sensor), Node: node}
	r.mu.Lock()
	delete(r.entries, e.key())
	r.mu.Unlock()
}

// Query returns the live entries matching every wanted predicate,
// sorted by sensor then node for determinism.
func (r *Registry) Query(want map[string]string) []Entry {
	now := r.clock.Now()
	r.mu.RLock()
	var out []Entry
	for _, e := range r.entries {
		if e.Expires <= now {
			continue
		}
		if e.Matches(want) {
			out = append(out, e)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sensor != out[j].Sensor {
			return out[i].Sensor < out[j].Sensor
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Snapshot returns all live entries (the gossip payload).
func (r *Registry) Snapshot() []Entry {
	return r.Query(nil)
}

// Merge adopts entries from a peer snapshot, keeping whichever version
// of each publication expires later (a monotone join: merge order never
// matters). It returns the number of adopted entries.
func (r *Registry) Merge(entries []Entry) int {
	now := r.clock.Now()
	adopted := 0
	r.mu.Lock()
	for _, e := range entries {
		if e.Expires <= now || e.Sensor == "" {
			continue
		}
		e.Sensor = stream.CanonicalName(e.Sensor)
		existing, ok := r.entries[e.key()]
		if !ok || e.Expires > existing.Expires {
			r.entries[e.key()] = e
			adopted++
		}
	}
	r.mu.Unlock()
	return adopted
}

// GC removes expired entries and returns how many were dropped.
func (r *Registry) GC() int {
	now := r.clock.Now()
	dropped := 0
	r.mu.Lock()
	for k, e := range r.entries {
		if e.Expires <= now {
			delete(r.entries, k)
			dropped++
		}
	}
	r.mu.Unlock()
	return dropped
}

// Len reports the number of stored (possibly expired) entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
