package core

// The machine-readable health surface: a compact per-node snapshot of the
// live signals a placement decision needs — the node's load as its
// admission controller models it, per-module service estimates, breaker
// states, and the tiering summary. The cluster router (internal/cluster)
// polls this instead of the full /__stats payload, and external load
// balancers can hit GET /__health for the same view; both are
// deliberately cheaper than /__stats (no tenant accounting, no cumulative
// counters, compact JSON).

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
	// EWMAServiceNanos is the module's service estimate (serviceEstimate):
	// the admission controller's EWMA when it has samples, else the
	// tier-epoch seed; 0 when the module has never completed a request on
	// the installed form.
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
	// Load is the node's queueing state, the input to admission.Load.Wait
	// (the keys flatten). With admission control it is the controller's
	// own; without, the pool's: every sandbox in flight (queued ones
	// included) over a window of one per worker.
	admission.Load
	// DefaultEstimateNanos is the service estimate the node charges a
	// module with no samples (EWMAServiceNanos == 0).
	DefaultEstimateNanos int64 `json:"default_est_ns"`
	// Draining reports a node refusing new work for graceful shutdown.
	Draining bool `json:"draining,omitempty"`
	// Promoted/Promoting summarize the tiering controller's progress;
	// both are 0 when tiering is off.
	Promoted  int `json:"promoted,omitempty"`
	Promoting int `json:"promoting,omitempty"`
	// Modules maps registered module names, and pipelines under their
	// reserved "p/<name>" keys, to their health.
	Modules map[string]ModuleHealth `json:"modules"`
}

// Health assembles the node's compact health snapshot.
func (rt *Runtime) Health() HealthSnapshot {
	workers := rt.pool.Workers()
	h := HealthSnapshot{
		Load:                 admission.Load{Inflight: rt.pool.Inflight(), MaxInflight: workers, Workers: workers},
		DefaultEstimateNanos: int64(admission.DefaultEstimate),
	}
	var as admission.Snapshot
	if rt.adm != nil {
		as = rt.adm.Stats()
		h.Load = as.Load
		h.DefaultEstimateNanos = as.DefaultEstimateNanos
		h.Draining = as.Draining
	}
	entry := func(key string, seed time.Duration, tier string) ModuleHealth {
		mh := ModuleHealth{
			EWMAServiceNanos: int64(serviceEstimate(time.Duration(as.EstimateNanos[key]), seed)),
			Tier:             tier,
		}
		if rt.adm != nil {
			// A module the controller has not seen yet has a closed circuit.
			if mh.Breaker = as.Breakers[key]; mh.Breaker == "" {
				mh.Breaker = "closed"
			}
		}
		return mh
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	h.Modules = make(map[string]ModuleHealth, len(rt.registry)+len(rt.pipelines))
	for name, m := range rt.registry {
		tier := TierLabelCold
		if cm := m.Compiled(); cm != nil {
			tier = cm.TierLabel()
		}
		h.Modules[name] = entry(name, m.seedLatency(), tier)
		switch m.tier.Load() {
		case tierPromoted:
			h.Promoted++
		case tierPromoting:
			h.Promoting++
		}
	}
	// Pipelines appear under their reserved keys so routers place whole
	// chains like modules; a chain is only as warm as its coldest stage.
	for name, p := range rt.pipelines {
		key := PipelinePrefix + name
		h.Modules[key] = entry(key, chainSeedLocked(rt, p), chainTierLocked(rt, p))
	}
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

// serviceEstimate is the one rule for the expected service time of a module
// or chain, the figure the node sheds against and publishes: the admission
// controller's EWMA when it has samples (ewma > 0), else seed — the
// module's tier-epoch mean, or for a chain the sum of its stages' (the
// controller seeds its estimator from the same figures).
func serviceEstimate(ewma, seed time.Duration) time.Duration {
	if ewma > 0 {
		return ewma
	}
	return seed
}
