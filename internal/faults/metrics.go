package faults

import "toplists/internal/obs"

// numKinds is the count of declared fault kinds (None included, unused).
const numKinds = int(Edge5xx) + 1

// Metrics counts injected faults by class. Because every injection is a
// pure function of (plan seed, class, host, day, attempt) and the attempt
// sequences themselves are deterministic, these counters are part of the
// run report's deterministic subset. A nil *Metrics is a no-op, and all
// class counters are registered up front so the report's key set does not
// depend on which faults happened to fire.
type Metrics struct {
	injected [numKinds]*obs.Counter
}

// NewMetrics registers one faults.injected.<kind> counter per fault class
// on r. Safe on a nil registry (returns a usable no-op).
func NewMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{}
	for k := DialRefused; k <= Edge5xx; k++ {
		m.injected[k] = r.Counter("faults.injected." + k.String())
	}
	return m
}

// Injected records one injected fault of kind k. None and unknown kinds
// are ignored. Safe on nil.
func (m *Metrics) Injected(k Kind) {
	if m == nil || k == None || int(k) >= numKinds {
		return
	}
	m.injected[k].Inc()
}
