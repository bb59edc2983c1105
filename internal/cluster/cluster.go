// Package cluster is the federated edge–cloud tier above the single-node
// runtime: a router that registers N in-process Sledge runtimes as nodes
// with declared classes (constrained edge, elastic cloud), capacity
// profiles, and injected link latencies, then does locality- and load-aware
// placement across them.
//
// The router consumes each node's existing admission signals — the load
// its admission controller models, per-module service estimates, breaker
// state, tiering state — via the compact core.HealthSnapshot it polls from
// every node, and scores candidate nodes as
//
//	score = round_trip_link + queue_wait + service_estimate
//
// where queue_wait is the controller's own formula (admission.Load.Wait), so
// the router charges a node what the node itself sheds against. Nodes where
// the module is already promoted to the full tier get a warm bonus (sticky
// routing: hot modules keep landing where their optimized code lives). Crucially, the tier turns shedding into offload: when the
// chosen node's admission controller rejects, the router retries the
// request on the next-best peer within the request deadline, hedges
// requests that have already blown their recent p99 budget, and only
// answers a cluster-level 503 + Retry-After when every candidate is
// saturated. Link latency is injected by sleeping the declared one-way
// delay on either side of a dispatch, so heterogeneous continuums (edge
// boxes microseconds away, cloud pools milliseconds away) simulate
// in-process and run in CI.
package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"sledge/internal/core"
)

// Class is a node's declared placement class.
type Class int

// Node classes.
const (
	// ClassEdge marks a constrained node close to the request source:
	// short link, few workers.
	ClassEdge Class = iota
	// ClassCloud marks an elastic node far from the request source: long
	// link, many workers.
	ClassCloud
)

// String names the class for stats and config surfaces.
func (c Class) String() string {
	switch c {
	case ClassEdge:
		return "edge"
	case ClassCloud:
		return "cloud"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass maps a config string to a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "edge", "":
		return ClassEdge, nil
	case "cloud":
		return ClassCloud, nil
	}
	return 0, fmt.Errorf("cluster: unknown node class %q", s)
}

// NodeConfig declares one runtime's place in the continuum.
type NodeConfig struct {
	// Name identifies the node in stats and logs; must be unique.
	Name string
	// Class declares the node's placement class (edge or cloud).
	Class Class
	// Link is the injected one-way network latency between the router and
	// this node. Dispatching sleeps Link before the call and again after
	// it, and the placement score charges the full round trip. Zero means
	// co-located (the local fast path — no sleep, no charge).
	Link time.Duration
	// Runtime is the node's in-process Sledge runtime. The caller owns its
	// lifecycle; the router only dispatches to it and polls its health.
	Runtime *core.Runtime
}

// node is the router's per-node state: the declared config, the last polled
// health snapshot, and dispatch accounting.
type node struct {
	cfg NodeConfig
	// health is the node's last polled snapshot, atomically swapped by the
	// poll loop so the placement scorer reads it without locks.
	health atomic.Pointer[core.HealthSnapshot]
	// pending counts requests this router has dispatched to the node and
	// not yet seen complete — backlog the (possibly stale) health snapshot
	// cannot know about yet. The scorer adds it to the queue-wait model so
	// a burst between two polls does not pile onto one node.
	pending atomic.Int64

	dispatched atomic.Uint64 // requests sent to this node
	succeeded  atomic.Uint64 // 2xx completions
	rejected   atomic.Uint64 // admission rejections (offload candidates)
	failed     atomic.Uint64 // hard errors (traps, timeouts)
}

// refresh polls the node's runtime and publishes the fresh snapshot.
func (n *node) refresh() {
	h := n.cfg.Runtime.Health()
	n.health.Store(&h)
}
