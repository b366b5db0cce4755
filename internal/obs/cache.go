package obs

import "time"

// CacheMetrics instruments one memoized artifact family (normalized
// snapshots, combo rankings, telemetry cells, ...). The hit/miss split is
// defined so both counts stay deterministic under concurrency:
//
//   - Miss: this request created the family's entry for its key. Exactly
//     one requester per distinct key ever counts a miss, no matter how many
//     race for it, so misses == distinct keys built.
//   - Hit: the entry already existed, whether or not its build had
//     finished. Hits == requests - misses, and the request sequence is a
//     pure function of the experiment set.
//   - Wait: the subset of hits that arrived while the build was still in
//     flight (singleflight waiters). Which requester wins a race is
//     scheduling, so waits are registered Volatile.
//
// A nil *CacheMetrics is a no-op.
type CacheMetrics struct {
	Hits   *Counter
	Misses *Counter
	Waits  *Counter
	Build  *Histogram

	// prefix and tracer put completed builds on the run timeline (one
	// "<prefix>.build" span per distinct key) when a tracer was attached
	// to the registry at registration time.
	prefix string
	tracer *Tracer
}

// NewCacheMetrics registers the family's metrics under prefix (e.g.
// "artifacts.norm" yields artifacts.norm.hits / .misses / .waits /
// .build). Safe on a nil registry (returns a usable no-op).
func NewCacheMetrics(r *Registry, prefix string) *CacheMetrics {
	return &CacheMetrics{
		Hits:   r.Counter(prefix + ".hits"),
		Misses: r.Counter(prefix + ".misses"),
		Waits:  r.Counter(prefix+".waits", Volatile),
		Build:  r.Histogram(prefix + ".build"),
		prefix: prefix,
		tracer: r.Tracer(),
	}
}

// Hit records a request that found an existing entry. Safe on nil.
func (m *CacheMetrics) Hit() {
	if m != nil {
		m.Hits.Inc()
	}
}

// Miss records the request that created an entry. Safe on nil.
func (m *CacheMetrics) Miss() {
	if m != nil {
		m.Misses.Inc()
	}
}

// Wait records a hit that had to wait for an in-flight build. Safe on nil.
func (m *CacheMetrics) Wait() {
	if m != nil {
		m.Waits.Inc()
	}
}

// ObserveBuildSpan records one entry's build time and, when a tracer is
// attached, a "<prefix>.build" span on the run timeline starting at start,
// so the trace shows when the build ran, not just how long it took. Safe
// on nil.
func (m *CacheMetrics) ObserveBuildSpan(start time.Time, d time.Duration) {
	if m == nil {
		return
	}
	m.Build.Observe(d)
	m.tracer.Span(m.prefix+".build", "artifacts", 0, start, d)
}
