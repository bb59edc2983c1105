package core

// The machine-readable health surface: a compact per-node snapshot of the
// live signals a placement decision needs — scheduler queue depth, in-flight
// count, per-module EWMA service time, breaker states, and the tiering
// summary. The cluster router (internal/cluster) polls this instead of the
// full /__stats payload, and external load balancers can hit GET /__health
// for the same view; both are deliberately cheaper than /__stats (no tenant
// accounting, no cumulative counters, compact JSON).

import (
	"encoding/json"
	"time"

	"sledge/internal/admission"
	"sledge/internal/httpd"
)

// ModuleHealth is one module's health: the service-time signal the node
// sheds against, its breaker state, and the tier its installed compiled
// form sits on (a router prefers nodes where a hot module is already
// promoted — the code there is warm and fast).
type ModuleHealth struct {
	// EWMAServiceNanos is the admission controller's service-time estimate
	// when one exists, else the module's tier-epoch mean latency; 0 when
	// the module has never completed a request on the installed form.
	EWMAServiceNanos int64 `json:"ewma_ns"`
	// Breaker is the module's circuit state ("closed", "open",
	// "half-open"); empty when the node runs without admission control.
	Breaker string `json:"breaker,omitempty"`
	// Tier labels the installed compiled form ("cheap", "full"), or "cold"
	// when the bounded cache evicted it.
	Tier string `json:"tier"`
}

// HealthSnapshot is the node's compact health view.
type HealthSnapshot struct {
	// QueueDepth is sandboxes queued in the scheduler but not started.
	QueueDepth int `json:"queue_depth"`
	// Inflight is sandboxes dispatched and not yet complete.
	Inflight int `json:"inflight"`
	// Workers is the node's worker-core count (converts backlog to wait).
	Workers int `json:"workers"`
	// MaxInflight and AdmitQueued describe the admission controller's
	// dispatch window and queue; both are 0 without admission control.
	MaxInflight int `json:"max_inflight,omitempty"`
	AdmitQueued int `json:"admit_queued,omitempty"`
	// Draining reports a node refusing new work for graceful shutdown.
	Draining bool `json:"draining,omitempty"`
	// Promoted/Promoting summarize the tiering controller's progress;
	// both are 0 when tiering is off.
	Promoted  int `json:"promoted,omitempty"`
	Promoting int `json:"promoting,omitempty"`
	// Modules maps registered module names to their health.
	Modules map[string]ModuleHealth `json:"modules"`
}

// Health assembles the node's compact health snapshot.
func (rt *Runtime) Health() HealthSnapshot {
	h := HealthSnapshot{
		QueueDepth: rt.pool.QueueDepth(),
		Inflight:   rt.pool.Inflight(),
		Workers:    rt.pool.Workers(),
	}
	var ah admission.Health
	if rt.adm != nil {
		ah = rt.adm.HealthSnapshot()
		h.MaxInflight = ah.MaxInflight
		h.AdmitQueued = ah.Queued
		h.Draining = ah.Draining
		if ah.Inflight > h.Inflight {
			h.Inflight = ah.Inflight
		}
		if ah.Workers > h.Workers {
			// The admission capacity hint exceeds the core count when
			// functions block on I/O (the event loop drains the whole
			// dispatch window concurrently); the external wait model must
			// divide by the same drain rate the controller sheds against.
			h.Workers = ah.Workers
		}
	}
	rt.mu.RLock()
	h.Modules = make(map[string]ModuleHealth, len(rt.registry))
	for name, m := range rt.registry {
		mh := ModuleHealth{Tier: TierLabelCold}
		if cm := m.Compiled(); cm != nil {
			mh.Tier = cm.TierLabel()
		}
		if amh, ok := ah.Modules[name]; ok {
			mh.EWMAServiceNanos = amh.EstimateNanos
			mh.Breaker = amh.Breaker
		}
		if mh.EWMAServiceNanos == 0 {
			// No admission estimate (yet): fall back to the tier-epoch mean,
			// which describes the installed compiled form.
			mh.EWMAServiceNanos = int64(m.seedLatency())
		}
		switch m.tier.Load() {
		case tierPromoted:
			h.Promoted++
		case tierPromoting:
			h.Promoting++
		}
		h.Modules[name] = mh
	}
	rt.mu.RUnlock()
	// Pipelines appear under their reserved "p/<name>" keys so routers
	// place whole chains like modules (pipeline.go).
	rt.pipelineHealth(&h, ah)
	return h
}

// healthResponse serves GET /__health: the compact snapshot as one-line
// JSON. Routers and load balancers poll this at high frequency, so it skips
// the indented rendering and the heavyweight accounting of /__stats.
func (rt *Runtime) healthResponse() httpd.Response {
	body, err := json.Marshal(rt.Health())
	if err != nil {
		return httpd.Response{Status: 500, Body: []byte(err.Error())}
	}
	return httpd.Response{Status: 200, ContentType: "application/json", Body: body}
}

// estimateFor returns the health snapshot's service estimate for module in
// nanoseconds, or def when the module is unknown or has no samples.
func (h *HealthSnapshot) estimateFor(module string, def int64) int64 {
	if mh, ok := h.Modules[module]; ok && mh.EWMAServiceNanos > 0 {
		return mh.EWMAServiceNanos
	}
	return def
}

// QueueWaitEstimate mirrors the admission controller's queueing-delay model
// from the outside: the backlog that must drain before a new arrival for
// module gets a slot, at the module's estimated service time, spread over
// the worker cores. extraInflight is backlog the snapshot cannot see yet
// (e.g. requests a router has dispatched since the last poll). defEstimate
// substitutes for modules with no samples.
func (h *HealthSnapshot) QueueWaitEstimate(module string, extraInflight int, defEstimate time.Duration) time.Duration {
	est := h.estimateFor(module, int64(defEstimate))
	slots := h.MaxInflight
	if slots <= 0 {
		// No admission controller: the dispatch window is the worker count.
		slots = h.Workers
	}
	ahead := int64(h.AdmitQueued+h.QueueDepth+h.Inflight+extraInflight) - int64(slots-1)
	if ahead <= 0 {
		return 0
	}
	workers := h.Workers
	if workers <= 0 {
		workers = 1
	}
	return time.Duration(ahead * est / int64(workers))
}
