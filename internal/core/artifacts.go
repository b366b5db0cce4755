package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"toplists/internal/cfmetrics"
	"toplists/internal/chrome"
	"toplists/internal/names"
	"toplists/internal/obs"
	"toplists/internal/providers"
	"toplists/internal/rank"
	"toplists/internal/world"
)

// Artifacts is the study's memoized derived-data layer: every ranking or
// set the evaluation derives from the raw simulation output — PSL-normalized
// list snapshots, per-day Cloudflare metric rankings, month-aggregated
// Dowdall amalgams, Chrome telemetry cell rankings, and the per-host probe
// verdicts behind the Cloudflare set and Table 1 — is computed exactly once
// per study and shared by all experiments.
//
// The store is safe for concurrent readers: each key is guarded by a
// sync.Once-style entry, so when experiments run in parallel a second
// requester for an in-flight artifact waits for the first computation
// (singleflight) instead of duplicating it. Values handed out are treated
// as immutable by all callers.
type Artifacts struct {
	s *Study

	// norms memoizes PSL-normalized (list, day) snapshots over one
	// study-wide normalizer, whose apex-resolution cache over the world's
	// interned name table every normalization shares. It is shared with the
	// Tranco/Trexa amalgam construction, so normalizations done while
	// building the study are already warm at evaluation time.
	norms *providers.NormMemo

	mu      sync.Mutex
	derived map[any]*rankingEntry

	// Cache instrumentation, one family per artifact kind. All nil-safe,
	// so a registry-less store records nothing.
	cmNorm      *obs.CacheMetrics
	cmCombo     *obs.CacheMetrics
	cmMonthly   *obs.CacheMetrics
	cmTelemetry *obs.CacheMetrics
	cfDomainsG  *obs.Gauge

	// probeMu guards the probe table and serializes probe sweeps, so each
	// distinct host is probed at most once per study whichever caller asks
	// first. A plain mutex rather than a sync.Once: a sweep aborted by
	// context cancellation writes nothing, so the next caller retries.
	probeMu sync.Mutex
	// probed maps every host a completed sweep covered to its final
	// verdict: Cloudflare-served or not (Unknown after the last sweep day
	// counts as not).
	probed map[string]bool
	// cf is the probed Cloudflare set over the site domains, published
	// once ProbeCF completes (nil until then). It never changes after, so
	// readers load it without probeMu and never queue behind a sweep of
	// other hosts.
	cf atomic.Pointer[cfSet]
}

// cfSet is the Cloudflare set as names and as an interned bitset.
type cfSet struct {
	domains map[string]struct{}
	ids     *names.Set
}

type rankingEntry struct {
	once sync.Once
	done atomic.Bool
	r    *rank.Ranking
}

// Key types for the derived-ranking map. Each is a distinct comparable
// struct, so one map can hold every artifact family without collisions.
// Edge keys carry the (vantage, backend) grid coordinates; the primary
// edge is (0, 0).
type (
	telemetryKey struct {
		country  world.Country
		platform world.Platform
		metric   chrome.TelemetryMetric
	}
	edgeComboDayKey struct {
		vi, bi int
		day    int
		combo  cfmetrics.Combo
	}
	edgeMonthlyKey struct {
		vi, bi int
		combo  cfmetrics.Combo
	}
)

func newArtifacts(s *Study) *Artifacts {
	a := &Artifacts{
		s:           s,
		norms:       providers.NewNormMemo(rank.NewNormalizer(s.World.Interner(), s.PSL)),
		derived:     make(map[any]*rankingEntry),
		cmNorm:      obs.NewCacheMetrics(s.obs, "artifacts.norm"),
		cmCombo:     obs.NewCacheMetrics(s.obs, "artifacts.combo"),
		cmMonthly:   obs.NewCacheMetrics(s.obs, "artifacts.monthly"),
		cmTelemetry: obs.NewCacheMetrics(s.obs, "artifacts.telemetry"),
		cfDomainsG:  s.obs.Gauge("artifacts.cf.domains"),
	}
	a.norms.SetMetrics(a.cmNorm)
	return a
}

// memoized returns the ranking for key, building it at most once even
// under concurrent requesters. cm (nil-safe) records the request against
// the key's artifact family.
func (a *Artifacts) memoized(key any, cm *obs.CacheMetrics, build func() *rank.Ranking) *rank.Ranking {
	a.mu.Lock()
	e, ok := a.derived[key]
	if !ok {
		e = &rankingEntry{}
		a.derived[key] = e
	}
	a.mu.Unlock()
	if !ok {
		cm.Miss()
	} else {
		cm.Hit()
		if !e.done.Load() {
			cm.Wait()
		}
	}
	e.once.Do(func() {
		start := time.Now()
		e.r = build()
		e.done.Store(true)
		cm.ObserveBuildSpan(start, time.Since(start))
	})
	return e.r
}

// invalidateMonthly drops the month-scoped derived artifacts — monthly
// Dowdall metric rankings and telemetry cell rankings — whose inputs grew
// when a day advanced. Day-scoped artifacts (per-day combo rankings,
// normalized day snapshots) are immutable once their day is published and
// survive; lock-free readers may be building them meanwhile, which a.mu
// makes safe. Called on the advance path after the new day is published;
// in batch runs the map is empty until evaluation begins and the sweep is
// a no-op.
func (a *Artifacts) invalidateMonthly() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for k := range a.derived {
		switch k.(type) {
		case telemetryKey, edgeMonthlyKey:
			delete(a.derived, k)
		}
	}
}

// Normalized returns the list's PSL-normalized day-d snapshot (Section
// 4.2), computed at most once per (list, day) across the whole study.
func (a *Artifacts) Normalized(l providers.List, day int) *rank.Ranking {
	r, _ := a.norms.Normalized(l, day)
	return r
}

// ComboRanking returns the day's ranked domain list for one Cloudflare
// filter-aggregation combo at the primary edge, memoized per (day, combo).
func (a *Artifacts) ComboRanking(day int, c cfmetrics.Combo) *rank.Ranking {
	return a.EdgeComboRanking(0, 0, day, c)
}

// MetricRanking returns the day's ranking for a canonical Cloudflare
// metric, memoized per (day, metric).
func (a *Artifacts) MetricRanking(day int, m cfmetrics.Metric) *rank.Ranking {
	return a.ComboRanking(day, m.Combo())
}

// MonthlyMetric combines a metric's daily rankings at the primary edge
// into one month-level ranking, memoized per metric.
func (a *Artifacts) MonthlyMetric(m cfmetrics.Metric) *rank.Ranking {
	return a.EdgeMonthlyMetric(0, 0, m)
}

// EdgeComboRanking returns the day's ranked domain list for one combo as
// observed by the (vi, bi) edge pipeline, memoized per (edge, day, combo).
// Like every per-day edge ranking it is built from the published view's
// archive, so it needs no lifecycle lock; the day must be published.
func (a *Artifacts) EdgeComboRanking(vi, bi, day int, c cfmetrics.Combo) *rank.Ranking {
	return a.memoized(edgeComboDayKey{vi, bi, day, c}, a.cmCombo, func() *rank.Ranking {
		return a.s.view.Load().edges[vi][bi].Ranking(day, c)
	})
}

// EdgeMetricRanking returns the day's ranking for a canonical metric as
// observed by the (vi, bi) edge pipeline.
func (a *Artifacts) EdgeMetricRanking(vi, bi, day int, m cfmetrics.Metric) *rank.Ranking {
	return a.EdgeComboRanking(vi, bi, day, m.Combo())
}

// EdgeMonthlyMetric combines a metric's daily rankings under the (vi, bi)
// edge's visibility into one month-level ranking by summing reciprocal
// ranks (the Dowdall rule, the same amalgamation Tranco uses), memoized
// per (edge, metric).
func (a *Artifacts) EdgeMonthlyMetric(vi, bi int, m cfmetrics.Metric) *rank.Ranking {
	return a.memoized(edgeMonthlyKey{vi, bi, m.Combo()}, a.cmMonthly, func() *rank.Ranking {
		days := make([]*rank.Ranking, a.s.Day())
		for d := range days {
			days[d] = a.EdgeMetricRanking(vi, bi, d, m)
		}
		return rank.Dowdall(a.s.World.Interner(), days)
	})
}

// TelemetryRanking returns the month-aggregated Chrome telemetry ranking
// for a (country, platform, metric) cell, memoized per cell.
func (a *Artifacts) TelemetryRanking(c world.Country, p world.Platform, m chrome.TelemetryMetric) *rank.Ranking {
	return a.memoized(telemetryKey{c, p, m}, a.cmTelemetry, func() *rank.Ranking {
		return a.s.Telemetry.Ranking(c, p, m)
	})
}

// CFDomains returns the probed set of Cloudflare-served registrable
// domains (the cf-ray filter of Section 4.3), established exactly once per
// study: a multi-day probe sweep of every domain over the virtual network,
// keeping those that answer with a cf-ray header. Callers must not modify
// the returned set.
func (a *Artifacts) CFDomains() map[string]struct{} {
	return a.cfSet().domains
}

// CFDomainIDs is the interned form of CFDomains: the same probed set as a
// bitset over the world's name table, usable with rank.FilterIDs and
// stats.JaccardIDs. Built from the same single probe sweep.
func (a *Artifacts) CFDomainIDs() *names.Set {
	return a.cfSet().ids
}

// cfSet returns the published Cloudflare set, probing it first if no
// sweep has completed it yet.
func (a *Artifacts) cfSet() *cfSet {
	mustProbe(a.ProbeCF(context.Background()))
	return a.cf.Load()
}

func mustProbe(err error) {
	if err != nil {
		// Only a canceled context or a closed study can fail the sweep;
		// these callers probe under Background, and probing after Close is
		// a caller bug worth crashing on.
		panic(err)
	}
}

// ProbeCF establishes the Cloudflare set over the site domains, probing
// only the domains no earlier sweep in this study covered. Once the set
// is published it returns at once, whatever other sweep holds the probe
// lock. Until then, concurrent requesters wait for the in-flight sweep; a
// sweep aborted by ctx records nothing, so the next caller retries.
// Experiments that honor cancellation call this (with their context)
// before touching CFDomains or CFDomainIDs.
func (a *Artifacts) ProbeCF(ctx context.Context) error {
	if a.cf.Load() != nil {
		return nil
	}
	a.probeMu.Lock()
	defer a.probeMu.Unlock()
	if a.cf.Load() != nil {
		return nil
	}
	w := a.s.World
	hosts := make([]string, w.NumSites())
	for i := range hosts {
		hosts[i] = w.Site(int32(i)).Domain
	}
	if err := a.sweepMissing(ctx, hosts); err != nil {
		return err
	}
	cf := make(map[string]struct{})
	var ids []names.ID
	for _, h := range hosts {
		if !a.probed[h] {
			continue
		}
		cf[h] = struct{}{}
		// Every site domain is interned at world build.
		if id, ok := w.Interner().Find(h); ok {
			ids = append(ids, id)
		}
	}
	a.cf.Store(&cfSet{domains: cf, ids: names.NewSet(ids)})
	a.cfDomainsG.Set(int64(len(cf)))
	return nil
}

// probeHosts returns the Cloudflare-served subset of hosts (any hostname:
// FQDN or origin-host form), probing only the hosts no earlier sweep in
// this study covered. A canceled sweep returns the context's error, never
// a partial set.
func (a *Artifacts) probeHosts(ctx context.Context, hosts []string) (map[string]struct{}, error) {
	a.probeMu.Lock()
	defer a.probeMu.Unlock()
	if err := a.sweepMissing(ctx, hosts); err != nil {
		return nil, err
	}
	cf := make(map[string]struct{})
	for _, h := range hosts {
		if a.probed[h] {
			cf[h] = struct{}{}
		}
	}
	return cf, nil
}

// sweepMissing runs one probe sweep over the distinct hosts the table
// lacks and records their verdicts. Called with probeMu held, so sweeps
// run one at a time and the table (and every probe.* counter) ends up the
// same whatever order callers arrive in. A failed sweep records nothing.
// Duplicates are dropped before the sweep: two concurrent probes of one
// host would share its breaker strikes, and the verdict would then
// depend on scheduling.
func (a *Artifacts) sweepMissing(ctx context.Context, hosts []string) error {
	var missing []string
	seen := make(map[string]struct{})
	for _, h := range hosts {
		if _, ok := a.probed[h]; ok {
			continue
		}
		if _, ok := seen[h]; ok {
			continue
		}
		seen[h] = struct{}{}
		missing = append(missing, h)
	}
	if len(missing) == 0 {
		return nil
	}
	cf, err := a.s.probeSweep(ctx, missing)
	if err != nil {
		return err
	}
	if a.probed == nil {
		a.probed = make(map[string]bool, len(missing))
	}
	for _, h := range missing {
		_, isCF := cf[h]
		a.probed[h] = isCF
	}
	return nil
}
