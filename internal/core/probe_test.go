package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"toplists/internal/rank"
)

// TestProbeCFCanceledNotMemoized: a CF probe aborted by its context must
// not be memoized as the study's answer — it leaves the probe table empty,
// and the next caller gets a fresh, complete sweep.
func TestProbeCFCanceledNotMemoized(t *testing.T) {
	s := NewStudy(Config{Seed: 5, NumSites: 400, NumClients: 80, Days: 2})
	s.Run()
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Artifacts().ProbeCF(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProbeCF under canceled context: %v, want context.Canceled", err)
	}
	if n := len(s.Artifacts().probed); n != 0 {
		t.Fatalf("canceled sweep left %d hosts in the probe table", n)
	}

	if err := s.Artifacts().ProbeCF(context.Background()); err != nil {
		t.Fatalf("retry after canceled sweep: %v", err)
	}
	probed := s.Artifacts().CFDomains()
	want := s.World.CloudflareSet()
	if len(probed) != len(want) {
		t.Fatalf("probed %d CF domains after canceled first sweep, want %d", len(probed), len(want))
	}
	for d := range want {
		if _, ok := probed[d]; !ok {
			t.Errorf("missing %s", d)
		}
	}
	if n := len(s.Artifacts().probed); n != s.World.NumSites() {
		t.Errorf("probe table holds %d hosts after the retry, want %d", n, s.World.NumSites())
	}
}

// TestProbeHostsContextCanceled: the sweep surfaces cancellation as an
// error, never a partial set, and records nothing in the probe table; the
// retry returns the full answer.
func TestProbeHostsContextCanceled(t *testing.T) {
	s := NewStudy(Config{Seed: 5, NumSites: 400, NumClients: 80, Days: 2})
	s.Run()
	defer s.Close()
	hosts := make([]string, 50)
	for i := range hosts {
		hosts[i] = s.World.Site(int32(i)).Domain
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set, err := s.ProbeHostsContext(ctx, hosts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if set != nil {
		t.Errorf("canceled sweep returned a set of %d hosts", len(set))
	}
	if n := len(s.Artifacts().probed); n != 0 {
		t.Fatalf("canceled sweep left %d hosts in the probe table", n)
	}

	set, err = s.ProbeHostsContext(context.Background(), hosts)
	if err != nil {
		t.Fatalf("retry after canceled sweep: %v", err)
	}
	truth := s.World.CloudflareSet()
	for _, h := range hosts {
		_, got := set[h]
		if _, want := truth[h]; got != want {
			t.Errorf("%s: probed Cloudflare %v, want %v", h, got, want)
		}
	}
}

// probeTableConfig is a small study with fault injection on, so probe
// verdicts go through retries and the table must still match a fresh
// sweep.
var probeTableConfig = Config{Seed: 5, NumSites: 400, NumClients: 80, Days: 2, FaultRate: 0.05}

// probeMix returns Table 1-style hosts: the Umbrella list's FQDNs, the
// CrUX list's origin hosts, some site domains, a host no one serves, and
// duplicates of each.
func probeMix(s *Study) []string {
	day := s.Cfg.Days - 1
	var hosts []string
	for _, l := range []*rank.Ranking{s.Umbrella.Raw(day), s.Crux.Raw(day)} {
		for i := 1; i <= min(60, l.Len()); i++ {
			h := strings.TrimPrefix(strings.TrimPrefix(l.At(i), "https://"), "http://")
			if j := strings.IndexByte(h, ':'); j >= 0 {
				h = h[:j]
			}
			hosts = append(hosts, h)
		}
	}
	for i := int32(0); i < 30; i++ {
		hosts = append(hosts, s.World.Site(i).Domain)
	}
	hosts = append(hosts, "no-such-host.invalid")
	return append(hosts, hosts[:40]...)
}

// distinct returns hosts without duplicates, in first-seen order.
func distinct(hosts []string) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, h := range hosts {
		if _, ok := seen[h]; !ok {
			seen[h] = struct{}{}
			out = append(out, h)
		}
	}
	return out
}

func probeCount(s *Study) int64 {
	return s.Metrics().Snapshot().Counters["probe.probes"]
}

func sameSet(t *testing.T, what string, got, want map[string]struct{}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d hosts, want %d", what, len(got), len(want))
	}
	for h := range want {
		if _, ok := got[h]; !ok {
			t.Errorf("%s: missing %s", what, h)
		}
	}
}

// TestProbeTableProbesNewHostsOnce: after ProbeCF, a Table 1-style probe
// of site domains, FQDNs and origin hosts probes only the hosts the table
// lacks, once each, and answers exactly as an unmemoized sweep of those
// hosts in a fresh study does.
func TestProbeTableProbesNewHostsOnce(t *testing.T) {
	ctx := context.Background()
	s := NewStudy(probeTableConfig)
	s.Run()
	defer s.Close()
	if err := s.Artifacts().ProbeCF(ctx); err != nil {
		t.Fatal(err)
	}
	sites := make(map[string]struct{})
	for i := 0; i < s.World.NumSites(); i++ {
		sites[s.World.Site(int32(i)).Domain] = struct{}{}
	}
	mix := probeMix(s)
	fresh := 0
	for _, h := range distinct(mix) {
		if _, ok := sites[h]; !ok {
			fresh++
		}
	}
	if fresh == 0 || fresh == len(distinct(mix)) {
		t.Fatalf("mix has %d new of %d distinct hosts; want a mix of both", fresh, len(distinct(mix)))
	}

	before := probeCount(s)
	got, err := s.ProbeHostsContext(ctx, mix)
	if err != nil {
		t.Fatal(err)
	}
	if d := probeCount(s) - before; d != int64(fresh) {
		t.Errorf("probe.probes rose by %d, want %d (the new distinct hosts)", d, fresh)
	}
	again, err := s.ProbeHostsContext(ctx, mix)
	if err != nil {
		t.Fatal(err)
	}
	if d := probeCount(s) - before; d != int64(fresh) {
		t.Errorf("a repeated probe of the same hosts probed %d more", d-int64(fresh))
	}
	sameSet(t, "repeated probe", again, got)

	ref := NewStudy(probeTableConfig)
	ref.Run()
	defer ref.Close()
	want, err := ref.probeSweep(ctx, distinct(mix))
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, "table lookup vs fresh sweep", got, want)
}

// TestProbeTableOrderIndependent: probing Table 1's hosts before or after
// the CF sweep gives the same sets and byte-equal deterministic counters,
// with every distinct host probed once.
func TestProbeTableOrderIndependent(t *testing.T) {
	ctx := context.Background()
	run := func(tableFirst bool) (cf, mixCF map[string]struct{}, det string, probes int64) {
		s := NewStudy(probeTableConfig)
		s.Run()
		defer s.Close()
		var err error
		if !tableFirst {
			mustProbe(s.Artifacts().ProbeCF(ctx))
		}
		if mixCF, err = s.ProbeHostsContext(ctx, probeMix(s)); err != nil {
			t.Fatal(err)
		}
		cf = s.Artifacts().CFDomains()
		b, err := s.Metrics().Snapshot().Deterministic()
		if err != nil {
			t.Fatal(err)
		}
		return cf, mixCF, string(b), probeCount(s)
	}
	cfA, mixA, detA, probesA := run(true)
	cfB, mixB, detB, _ := run(false)
	sameSet(t, "CF domains", cfA, cfB)
	sameSet(t, "Table 1 hosts", mixA, mixB)
	if detA != detB {
		t.Errorf("deterministic report subset depends on probe order:\n%s\n---\n%s", detA, detB)
	}

	s := NewStudy(probeTableConfig)
	s.Run()
	defer s.Close()
	hosts := probeMix(s)
	for i := 0; i < s.World.NumSites(); i++ {
		hosts = append(hosts, s.World.Site(int32(i)).Domain)
	}
	if want := int64(len(distinct(hosts))); probesA != want {
		t.Errorf("probe.probes = %d, want %d distinct hosts", probesA, want)
	}
}

// TestProbeTableConcurrent: the CF sweep and a Table 1 probe started at
// once from two goroutines give the serial answers and probe each
// distinct host once (the -race proof of the table's lock).
func TestProbeTableConcurrent(t *testing.T) {
	ctx := context.Background()
	ref := NewStudy(probeTableConfig)
	ref.Run()
	defer ref.Close()
	mustProbe(ref.Artifacts().ProbeCF(ctx))
	wantMix, err := ref.ProbeHostsContext(ctx, probeMix(ref))
	if err != nil {
		t.Fatal(err)
	}

	s := NewStudy(probeTableConfig)
	s.Run()
	defer s.Close()
	var wg sync.WaitGroup
	var cfErr, mixErr error
	var mix map[string]struct{}
	wg.Add(2)
	go func() {
		defer wg.Done()
		cfErr = s.Artifacts().ProbeCF(ctx)
	}()
	go func() {
		defer wg.Done()
		mix, mixErr = s.ProbeHostsContext(ctx, probeMix(s))
	}()
	wg.Wait()
	if cfErr != nil || mixErr != nil {
		t.Fatalf("ProbeCF: %v, ProbeHostsContext: %v", cfErr, mixErr)
	}
	sameSet(t, "CF domains", s.Artifacts().CFDomains(), ref.Artifacts().CFDomains())
	sameSet(t, "Table 1 hosts", mix, wantMix)
	if got, want := probeCount(s), probeCount(ref); got != want {
		t.Errorf("probe.probes = %d concurrently, %d serially", got, want)
	}
}

// TestFaultPlanDerivation: the fault seed is stable per study seed and
// distinct across seeds.
func TestFaultPlanDerivation(t *testing.T) {
	a := NewStudy(Config{Seed: 1, NumSites: 400, FaultRate: 0.1})
	b := NewStudy(Config{Seed: 1, NumSites: 400, FaultRate: 0.1})
	c := NewStudy(Config{Seed: 2, NumSites: 400, FaultRate: 0.1})
	if a.FaultSeed() != b.FaultSeed() {
		t.Error("same study seed derived different fault seeds")
	}
	if a.FaultSeed() == c.FaultSeed() {
		t.Error("different study seeds derived the same fault seed")
	}
	if NewStudy(Config{Seed: 1, NumSites: 400}).FaultPlan() != nil {
		t.Error("rate-0 study has a fault plan")
	}
}

// gateCtx holds every Value lookup until release is closed, and closes
// entered on the first one. A probe sweep makes its first lookup while
// setting up its first request, with the probe lock already held, so a
// sweep under a gateCtx holds that lock for as long as a test wants.
type gateCtx struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
}

func (c *gateCtx) Value(key any) any {
	c.once.Do(func() { close(c.entered) })
	<-c.release
	return c.Context.Value(key)
}

// TestCFSetReadsDoNotWaitForSweep: once ProbeCF has completed, the CF set
// reads return while a Table 1-style sweep of other hosts holds the probe
// lock, and they return the set ProbeCF published.
func TestCFSetReadsDoNotWaitForSweep(t *testing.T) {
	s := NewStudy(probeTableConfig)
	s.Run()
	defer s.Close()
	a := s.Artifacts()
	mustProbe(a.ProbeCF(context.Background()))
	wantIDs, wantDomains := a.CFDomainIDs(), a.CFDomains()

	gate := &gateCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	swept := make(chan error, 1)
	go func() {
		_, err := s.ProbeHostsContext(gate, probeMix(s))
		swept <- err
	}()
	released := false
	release := func() {
		if !released {
			released = true
			close(gate.release)
			if err := <-swept; err != nil {
				t.Errorf("ProbeHostsContext: %v", err)
			}
		}
	}
	defer release()

	const bound = 30 * time.Second
	select {
	case <-gate.entered:
	case <-time.After(bound):
		t.Fatal("the sweep never started a probe")
	}
	if a.probeMu.TryLock() {
		a.probeMu.Unlock()
		t.Fatal("the sweep does not hold the probe lock")
	}

	read := make(chan error, 1)
	go func() {
		if err := a.ProbeCF(context.Background()); err != nil {
			read <- err
			return
		}
		if a.CFDomainIDs() != wantIDs || len(a.CFDomains()) != len(wantDomains) {
			read <- errors.New("the CF set changed after ProbeCF published it")
			return
		}
		read <- nil
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(bound):
		t.Fatal("CF set reads waited behind a sweep of other hosts")
	}
	release()
}
