package httpsim

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"toplists/internal/faults"

	"toplists/internal/world"
)

// Outcome is the three-way classification of one probe: the zero value is
// Unknown, so a probe that never ran (canceled before launch, circuit
// open) is indistinguishable from one that exhausted its budget — both
// mean "no evidence either way", never "the host is down".
type Outcome uint8

const (
	// OutcomeUnknown means the probe could not establish anything: every
	// attempt failed transiently, the context was canceled, or the host's
	// circuit was open. Callers must not treat Unknown as "not served".
	OutcomeUnknown Outcome = iota
	// OutcomeOK means a usable HTTP response was classified.
	OutcomeOK
	// OutcomeDown means the host definitively does not exist (NXDOMAIN on
	// every scheme).
	OutcomeDown
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeDown:
		return "down"
	default:
		return "unknown"
	}
}

// ProbeResult is the outcome of probing one hostname.
type ProbeResult struct {
	Host string
	// Cloudflare reports whether the response carried a cf-ray header.
	Cloudflare bool
	// Backend is the CDN backend the response's signature identified
	// (BackendNone when no known ray header was present). Cloudflare is
	// always Backend == BackendCdnflare, kept for callers predating the
	// multi-backend model.
	Backend world.Backend
	// Reachable is true when a response was classified (Outcome ==
	// OutcomeOK); kept for callers predating the three-way Outcome.
	Reachable bool
	// Outcome distinguishes a classified response from a definitive
	// NXDOMAIN from "no evidence" (transient failures, cancellation).
	Outcome Outcome
	// Attempts is how many HTTP requests the probe issued.
	Attempts int
}

// Prober performs concurrent HEAD probes and classifies hosts by the
// cf-ray response header, replicating the paper's list-filtering step.
//
// Each probe tries https first with an http fallback. Transient failures
// (dial errors, timeouts, 5xx responses) are retried with deterministic
// exponential backoff, only NXDOMAIN is treated as definitive, and an
// exhausted budget yields OutcomeUnknown rather than a misclassification.
// SingleShot restores the fragile pre-hardening behavior for baselines.
type Prober struct {
	// Client issues the requests; use Network.Client for simulation or a
	// stock client against the real internet.
	Client *http.Client
	// Concurrency bounds in-flight probes (default 32).
	Concurrency int

	// Retries is how many extra retry rounds (each trying every scheme)
	// a probe may use after the first before giving up as Unknown.
	Retries int
	// AttemptTimeout bounds each individual request, so a stalled dial or
	// response costs one attempt rather than the whole probe (0 = no
	// per-attempt bound).
	AttemptTimeout time.Duration
	// BackoffBase is the first retry's delay; each further round doubles
	// it (capped at 8x) and scales by a deterministic per-(host, round)
	// jitter in [0.5, 1). 0 disables waiting between rounds.
	BackoffBase time.Duration
	// BreakerThreshold opens a host's circuit after that many consecutive
	// transient failures: further attempts (and probes) of the host
	// short-circuit to Unknown until ResetBreakers. 0 disables the
	// breaker.
	BreakerThreshold int
	// Day is the virtual measurement day stamped into each attempt's
	// fault key; retry-on-next-day sweeps advance it between passes.
	Day int
	// SingleShot restores the pre-hardening classification the
	// fault-sensitivity experiment uses as its baseline: one round, any
	// HTTP response (5xx included) classifies immediately, and an
	// exhausted probe is conflated with "down". Context cancellation
	// still yields Unknown.
	SingleShot bool
	// Metrics, when set, receives per-probe telemetry (attempts,
	// outcomes, breaker activity). Nil disables recording.
	Metrics *ProbeMetrics

	mu      sync.Mutex
	strikes map[string]int
}

// NewProber returns a Prober with defaults: 32-way concurrency, two retry
// rounds with 2ms base backoff, a 2s per-attempt bound, and an 8-strike
// circuit breaker.
func NewProber(client *http.Client) *Prober {
	return &Prober{
		Client:           client,
		Concurrency:      32,
		Retries:          2,
		AttemptTimeout:   2 * time.Second,
		BackoffBase:      2 * time.Millisecond,
		BreakerThreshold: 8,
	}
}

// ProbeAll probes every host and returns results in input order. The
// context cancels outstanding probes; canceled or never-launched probes
// come back OutcomeUnknown, never Down.
func (p *Prober) ProbeAll(ctx context.Context, hosts []string) []ProbeResult {
	conc := p.Concurrency
	if conc <= 0 {
		conc = 32
	}
	results := make([]ProbeResult, len(hosts))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i, h := range hosts {
		if ctx.Err() != nil {
			// Mark the rest Unknown (the zero Outcome) and stop launching.
			for j := i; j < len(hosts); j++ {
				results[j] = ProbeResult{Host: hosts[j]}
			}
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, host string) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = p.probeOne(ctx, host)
		}(i, h)
	}
	wg.Wait()
	return results
}

// attemptOutcome classifies one request's result.
type attemptOutcome uint8

const (
	attemptResponse  attemptOutcome = iota // got an HTTP response
	attemptNoHost                          // NXDOMAIN: definitive
	attemptCanceled                        // the probe's own context ended
	attemptTransient                       // everything else: retryable
)

// probeOne probes one host: rounds of https-then-http attempts until a
// response classifies it, NXDOMAIN rules it down, the retry budget runs
// out, or its circuit opens.
func (p *Prober) probeOne(ctx context.Context, host string) ProbeResult {
	res := ProbeResult{Host: host}
	if p.Metrics != nil {
		start := time.Now()
		defer func() { p.Metrics.observeProbe(&res, time.Since(start)) }()
	}
	schemes := []string{"https", "http"}
	if p.breakerOpen(host) {
		p.Metrics.breakerSkipped()
		return res
	}
	retries := p.Retries
	if p.SingleShot {
		retries = 0
	}
	for round := 0; ; round++ {
		if round > 0 {
			p.Metrics.retryRound()
			if !p.backoffWait(ctx, host, round) {
				return res
			}
		}
		noHost := 0
		for _, scheme := range schemes {
			hdr, status, oc := p.tryOnce(ctx, host, scheme, res.Attempts)
			res.Attempts++
			switch oc {
			case attemptResponse:
				if p.SingleShot || status < 500 {
					res.Outcome = OutcomeOK
					res.Reachable = true
					res.Backend = classifyBackend(hdr)
					res.Cloudflare = res.Backend == world.BackendCdnflare
					p.breakerClear(host)
					return res
				}
				// A 5xx is a transient server-side failure: unusable for
				// classification (an intermediate error page carries no
				// cf-ray even for a fronted host), so retry.
				if p.breakerTrip(host) {
					return res
				}
			case attemptNoHost:
				noHost++
			case attemptCanceled:
				return res
			case attemptTransient:
				if p.breakerTrip(host) {
					return res
				}
			}
		}
		if noHost == len(schemes) {
			res.Outcome = OutcomeDown
			return res
		}
		if round >= retries {
			if p.SingleShot {
				// The legacy conflation, preserved deliberately: the
				// single-shot baseline cannot tell "failed" from "down".
				res.Outcome = OutcomeDown
			}
			return res
		}
	}
}

// tryOnce issues one keyed HEAD request. The fault key rides both the
// request context (for the dialer) and the probe header (for the server
// middleware), so a fault plan sees the same (host, day, attempt)
// coordinates on every channel.
func (p *Prober) tryOnce(ctx context.Context, host, scheme string, attempt int) (http.Header, int, attemptOutcome) {
	actx := ctx
	if p.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		defer cancel()
	}
	key := faults.Key{Day: p.Day, Attempt: attempt}
	actx = faults.NewContext(actx, key)
	req, err := http.NewRequestWithContext(actx, http.MethodHead, scheme+"://"+host+"/", nil)
	if err != nil {
		return nil, 0, attemptTransient
	}
	req.Header.Set(faults.ProbeHeader, key.Encode())
	resp, err := p.Client.Do(req)
	if err != nil {
		switch {
		case ctx.Err() != nil:
			// The probe's own context ended (not just this attempt's
			// timeout): stop without classifying.
			return nil, 0, attemptCanceled
		case errors.Is(err, ErrNoSuchHost):
			return nil, 0, attemptNoHost
		default:
			return nil, 0, attemptTransient
		}
	}
	resp.Body.Close()
	return resp.Header, resp.StatusCode, attemptResponse
}

// backoffWait sleeps the deterministic backoff before a retry round. It
// returns false when the context ends first.
func (p *Prober) backoffWait(ctx context.Context, host string, round int) bool {
	if p.BackoffBase <= 0 {
		return ctx.Err() == nil
	}
	d := p.BackoffBase << uint(round-1)
	if max := 8 * p.BackoffBase; d > max {
		d = max
	}
	d = time.Duration(float64(d) * faults.Jitter(host, round))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// breakerOpen reports whether the host's circuit is open.
func (p *Prober) breakerOpen(host string) bool {
	if p.BreakerThreshold <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.strikes[host] >= p.BreakerThreshold
}

// breakerTrip records one transient failure and reports whether the
// host's circuit just opened (or already was open).
func (p *Prober) breakerTrip(host string) bool {
	if p.BreakerThreshold <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.strikes == nil {
		p.strikes = make(map[string]int)
	}
	p.strikes[host]++
	if p.strikes[host] == p.BreakerThreshold {
		p.Metrics.breakerTripped()
	}
	return p.strikes[host] >= p.BreakerThreshold
}

// breakerClear forgets a host's strikes after a success.
func (p *Prober) breakerClear(host string) {
	if p.BreakerThreshold <= 0 {
		return
	}
	p.mu.Lock()
	delete(p.strikes, host)
	p.mu.Unlock()
}

// ResetBreakers closes every circuit — the half-open transition a
// retry-on-next-day sweep grants before re-probing Unknown hosts.
func (p *Prober) ResetBreakers() {
	p.mu.Lock()
	p.strikes = nil
	p.mu.Unlock()
}

// classifyBackend identifies the CDN backend from a response's signature:
// each backend stamps its own ray header, so the first match wins (a real
// response carries at most one).
func classifyBackend(hdr http.Header) world.Backend {
	for b := world.BackendCdnflare; b <= world.Backend(world.NumBackends); b++ {
		if hdr.Get(b.RayHeader()) != "" {
			return b
		}
	}
	return world.BackendNone
}

// CloudflareSet probes hosts and returns the subset served by Cloudflare.
func (p *Prober) CloudflareSet(ctx context.Context, hosts []string) map[string]struct{} {
	out := make(map[string]struct{})
	for _, r := range p.ProbeAll(ctx, hosts) {
		if r.Cloudflare {
			out[r.Host] = struct{}{}
		}
	}
	return out
}
