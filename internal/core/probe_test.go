package core

import (
	"context"
	"errors"
	"testing"
)

// TestProbeCFCanceledNotMemoized: a CF probe aborted by its context must
// not be memoized as the study's answer — the next caller gets a fresh,
// complete sweep.
func TestProbeCFCanceledNotMemoized(t *testing.T) {
	s := NewStudy(Config{Seed: 5, NumSites: 400, NumClients: 80, Days: 2})
	s.Run()
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Artifacts().ProbeCF(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProbeCF under canceled context: %v, want context.Canceled", err)
	}

	if err := s.Artifacts().ProbeCF(context.Background()); err != nil {
		t.Fatalf("retry after canceled sweep: %v", err)
	}
	probed := s.CFDomains()
	want := s.World.CloudflareSet()
	if len(probed) != len(want) {
		t.Fatalf("probed %d CF domains after canceled first sweep, want %d", len(probed), len(want))
	}
	for d := range want {
		if _, ok := probed[d]; !ok {
			t.Errorf("missing %s", d)
		}
	}
}

// TestProbeHostsContextCanceled: the sweep surfaces cancellation as an
// error, never a partial set.
func TestProbeHostsContextCanceled(t *testing.T) {
	s := NewStudy(Config{Seed: 5, NumSites: 400, NumClients: 80, Days: 2})
	s.Run()
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set, err := s.ProbeHostsContext(ctx, []string{s.World.Site(0).Domain})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if set != nil {
		t.Errorf("canceled sweep returned a set of %d hosts", len(set))
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
