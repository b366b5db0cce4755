package core

import (
	"context"
	"time"

	"toplists/internal/httpsim"
)

// probeSweepDays is how many virtual days a probe sweep may spend on a
// host before giving up: hosts left Unknown after a day's retries are
// re-probed on the next day with fresh fault-plan coordinates and a
// closed circuit breaker, mirroring how the paper's crawls re-visit
// unreachable entries on later days rather than dropping them outright.
const probeSweepDays = 3

// newProber builds the study's hardened prober over the study network,
// which carries the study's configured fault weather. The per-attempt
// bound is a pure safety net, set far above any plausible in-memory
// latency: an injected stall resolves at once with its own transient
// error, so nothing should ever hit this timeout. That matters for determinism — a spurious timeout on a
// loaded machine would consume an attempt number and shift every later
// fault decision.
func (s *Study) newProber() (*httpsim.Prober, error) {
	n, err := s.network()
	if err != nil {
		return nil, err
	}
	p := httpsim.NewProber(n.Client())
	p.Concurrency = 64
	p.AttemptTimeout = 10 * time.Second
	p.BackoffBase = 200 * time.Microsecond
	p.Metrics = httpsim.NewProbeMetrics(s.obs)
	return p, nil
}

// probeSweep probes hosts with day-by-day retries and returns the set of
// Cloudflare-served hosts. Each sweep day re-probes only the hosts still
// Unknown, advancing the prober's virtual day (fresh fault rolls) and
// closing its breakers (the half-open transition). Hosts that stay
// Unknown after the final day are deterministically treated as not
// Cloudflare-served — the same conservative fallback the paper's
// filtering applies to unreachable entries.
func (s *Study) probeSweep(ctx context.Context, hosts []string) (map[string]struct{}, error) {
	defer s.obs.Span("phase.probe_sweep").End()
	prober, err := s.newProber()
	if err != nil {
		return nil, err
	}
	cf := make(map[string]struct{})
	pending := hosts
	tracer := s.obs.Tracer()
	for day := 0; day < probeSweepDays && len(pending) > 0; day++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prober.Day = day
		prober.ResetBreakers()
		roundStart := time.Now()
		var unknown []string
		for _, r := range prober.ProbeAll(ctx, pending) {
			switch {
			case r.Outcome == httpsim.OutcomeUnknown:
				unknown = append(unknown, r.Host)
			case r.Cloudflare:
				cf[r.Host] = struct{}{}
			}
		}
		tracer.Span("probe.round", "probe", int64(day), roundStart, time.Since(roundStart))
		pending = unknown
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return cf, nil
}

// ProbeHostsContext reports which of hosts (FQDN or origin-host form) are
// Cloudflare-served; used for the per-entry coverage of Table 1. Verdicts
// come from the study's probe table: a host an earlier sweep covered (a
// site domain after ProbeCF, say) is not probed again, and concurrent
// callers wait for the in-flight sweep. Cancellation mid-sweep returns the
// context's error rather than a partial (misclassified) set.
func (s *Study) ProbeHostsContext(ctx context.Context, hosts []string) (map[string]struct{}, error) {
	return s.artifacts.probeHosts(ctx, hosts)
}
