package httpsim

import (
	"context"
	"testing"
	"time"

	"toplists/internal/faults"
	"toplists/internal/world"
)

// faultProbeDays mirrors the evaluation's retry-on-next-day sweep: Unknown
// hosts are re-probed on later virtual days with closed breakers.
const faultProbeDays = 4

func sweepCF(ctx context.Context, p *Prober, hosts []string) map[string]struct{} {
	out := make(map[string]struct{})
	pending := hosts
	for day := 0; day < faultProbeDays && len(pending) > 0; day++ {
		if day > 0 {
			p.Day = day
			p.ResetBreakers()
		}
		var unknown []string
		for _, r := range p.ProbeAll(ctx, pending) {
			switch {
			case r.Cloudflare:
				out[r.Host] = struct{}{}
			case r.Outcome == OutcomeUnknown:
				unknown = append(unknown, r.Host)
			}
		}
		pending = unknown
	}
	return out
}

func resilientProber(n *Network) *Prober {
	p := NewProber(n.Client())
	p.Concurrency = 64
	p.AttemptTimeout = 10 * time.Second
	p.BackoffBase = 200 * time.Microsecond
	return p
}

// TestResilientProberRecoversUnderFaults is the acceptance bar: at a 5%
// injected fault rate the hardened prober (with the day-retry sweep)
// recovers at least 99% of the truly Cloudflare-served hosts, while the
// legacy single-shot path demonstrably misclassifies some of them.
func TestResilientProberRecoversUnderFaults(t *testing.T) {
	w, n := testNetwork(t)
	n.SetFaultPlan(&faults.Plan{Seed: 1234, Rate: 0.05})
	defer n.SetFaultPlan(nil)

	truth := w.CloudflareSet()
	hosts := make([]string, w.NumSites())
	for i := range hosts {
		hosts[i] = w.Site(int32(i)).Domain
	}

	got := sweepCF(context.Background(), resilientProber(n), hosts)
	lost, false_ := 0, 0
	for h := range truth {
		if _, ok := got[h]; !ok {
			lost++
		}
	}
	for h := range got {
		if _, ok := truth[h]; !ok {
			false_++
		}
	}
	if false_ != 0 {
		t.Errorf("resilient prober classified %d non-CF hosts as Cloudflare", false_)
	}
	recovered := 100 * float64(len(truth)-lost) / float64(len(truth))
	t.Logf("resilient: %d/%d true-CF recovered (%.2f%%)", len(truth)-lost, len(truth), recovered)
	if recovered < 99 {
		t.Errorf("resilient prober recovered %.2f%% of true-CF hosts, want >= 99%%", recovered)
	}

	naive := resilientProber(n)
	naive.SingleShot = true
	naiveSet := naive.CloudflareSet(context.Background(), hosts)
	naiveLost := 0
	for h := range truth {
		if _, ok := naiveSet[h]; !ok {
			naiveLost++
		}
	}
	t.Logf("single-shot: %d/%d true-CF lost", naiveLost, len(truth))
	if naiveLost == 0 {
		t.Error("single-shot prober lost no CF hosts at 5% faults; the baseline should misclassify")
	}
	if naiveLost <= lost {
		t.Errorf("single-shot lost %d <= resilient lost %d; hardening bought nothing", naiveLost, lost)
	}
}

// TestFaultProbeDeterministic pins reproducibility under faults: the same
// plan seed yields identical classifications at any concurrency, across
// repeated sweeps, and 5xx responses never classify a host on the
// resilient path.
func TestFaultProbeDeterministic(t *testing.T) {
	w, n := testNetwork(t)
	n.SetFaultPlan(&faults.Plan{Seed: 77, Rate: 0.2})
	defer n.SetFaultPlan(nil)

	hosts := make([]string, 120)
	for i := range hosts {
		hosts[i] = w.Site(int32(i)).Domain
	}

	type verdict struct {
		cf bool
		oc Outcome
	}
	run := func(conc int) []verdict {
		p := resilientProber(n)
		p.Concurrency = conc
		p.Retries = 1
		rs := p.ProbeAll(context.Background(), hosts)
		out := make([]verdict, len(rs))
		for i, r := range rs {
			out[i] = verdict{r.Cloudflare, r.Outcome}
		}
		return out
	}

	base := run(64)
	for _, conc := range []int{2, 16, 64} {
		got := run(conc)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("host %s: verdict %+v at concurrency %d, want %+v (nondeterministic faults)",
					hosts[i], got[i], conc, base[i])
			}
		}
	}
}

// TestProbeFaultRateZeroUntouched: an installed plan with rate 0 is
// indistinguishable from no plan at all — the golden-safety property.
func TestProbeFaultRateZeroUntouched(t *testing.T) {
	w, n := testNetwork(t)
	hosts := make([]string, w.NumSites())
	for i := range hosts {
		hosts[i] = w.Site(int32(i)).Domain
	}
	before := NewProber(n.Client()).ProbeAll(context.Background(), hosts)
	n.SetFaultPlan(&faults.Plan{Seed: 9, Rate: 0})
	defer n.SetFaultPlan(nil)
	after := NewProber(n.Client()).ProbeAll(context.Background(), hosts)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("host %s: %+v with rate-0 plan, want %+v", hosts[i], after[i], before[i])
		}
	}
}

// TestProberCancelYieldsUnknown is the cancellation satellite: a canceled
// context must leave hosts Unknown — no Reachable=false / "not Cloudflare"
// misclassification — whether the probe never launched or was mid-flight.
func TestProberCancelYieldsUnknown(t *testing.T) {
	w, n := testNetwork(t)
	hosts := make([]string, w.NumSites())
	for i := range hosts {
		hosts[i] = w.Site(int32(i)).Domain
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range NewProber(n.Client()).ProbeAll(ctx, hosts) {
		if r.Outcome != OutcomeUnknown {
			t.Fatalf("host %s: outcome %v after pre-canceled probe, want unknown", r.Host, r.Outcome)
		}
		if r.Cloudflare || r.Reachable {
			t.Fatalf("host %s: classified (cf=%v reachable=%v) by a canceled probe", r.Host, r.Cloudflare, r.Reachable)
		}
	}

	// Mid-flight: cancel while probes are in the air. Every result must be
	// either a completed classification or Unknown — never Down.
	ctx2, cancel2 := context.WithCancel(context.Background())
	p := NewProber(n.Client())
	p.Concurrency = 4
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	for _, r := range p.ProbeAll(ctx2, hosts) {
		if r.Outcome == OutcomeDown {
			t.Fatalf("host %s: canceled sweep reported Down (conflated with failure)", r.Host)
		}
	}
}

// TestBreakerShortCircuits: a host whose every attempt fails transiently
// trips its circuit at the threshold, and later probes of that host
// short-circuit to Unknown until ResetBreakers.
func TestBreakerShortCircuits(t *testing.T) {
	w := world.Generate(world.Config{Seed: 51, NumSites: 50})
	n := NewNetwork()
	n.AddWorld(w)
	n.Start()
	n.Close() // every dial now fails with net.ErrClosed: transient forever

	host := w.Site(0).Domain
	p := NewProber(n.Client())
	p.Retries = 5
	p.BackoffBase = 0
	p.BreakerThreshold = 3

	r := p.probeOne(context.Background(), host)
	if r.Outcome != OutcomeUnknown {
		t.Fatalf("outcome %v, want unknown", r.Outcome)
	}
	if r.Attempts != 3 {
		t.Fatalf("breaker tripped after %d attempts, want 3", r.Attempts)
	}
	r = p.probeOne(context.Background(), host)
	if r.Attempts != 0 || r.Outcome != OutcomeUnknown {
		t.Fatalf("open circuit still probed: %+v", r)
	}
	p.ResetBreakers()
	if r := p.probeOne(context.Background(), host); r.Attempts == 0 {
		t.Fatal("reset breaker did not half-open the circuit")
	}
}

// TestFaultTouchesFirstAttempt: FaultTouches names exactly the hosts whose
// first probe attempt a fault strikes, on the host or on the www host its
// apex redirects to. An untouched host classifies on attempt 0 just as on
// the fault-free network; a touched one needs another attempt.
func TestFaultTouchesFirstAttempt(t *testing.T) {
	ctx := context.Background()
	w, n := testNetwork(t)
	hosts := make([]string, w.NumSites())
	for i := range hosts {
		hosts[i] = w.Site(int32(i)).Domain
	}
	clean := resilientProber(n).ProbeAll(ctx, hosts)
	plan := &faults.Plan{Seed: 99, Rate: 0.2}
	n.SetFaultPlan(plan)
	defer n.SetFaultPlan(nil)

	struck := func(h string) bool {
		return plan.Dial(h, faults.Key{}) != faults.None || plan.Edge(h, faults.Key{}) != faults.None
	}
	touched, viaRedirect := 0, 0
	for i, r := range resilientProber(n).ProbeAll(ctx, hosts) {
		h := hosts[i]
		got := n.FaultTouches(h)
		if got != (r.Attempts > 1) {
			t.Errorf("%s: FaultTouches %v, but the probe took %d attempts", h, got, r.Attempts)
		}
		if !got && (r.Outcome != clean[i].Outcome || r.Backend != clean[i].Backend) {
			t.Errorf("%s: untouched probe gave %v/%v, fault-free %v/%v", h, r.Outcome, r.Backend, clean[i].Outcome, clean[i].Backend)
		}
		if got {
			touched++
			if info, _ := n.lookup(h); info.redirectTo != "" && !struck(h) {
				viaRedirect++
			}
		}
	}
	if touched == 0 || viaRedirect == 0 {
		t.Fatalf("%d hosts touched, %d only on the redirect hop; the test exercises neither path", touched, viaRedirect)
	}
	if n.FaultTouches("unregistered.invalid") {
		t.Error("an unregistered host is touched, though it fails before any fault applies")
	}
	n.SetFaultPlan(nil)
	if n.FaultTouches(hosts[0]) {
		t.Error("a host is touched with no plan installed")
	}
}
