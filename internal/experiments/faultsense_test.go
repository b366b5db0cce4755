package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"toplists/internal/core"
	"toplists/internal/faults"
)

// TestFaultSenseRecovery pins the robustness acceptance numbers: under a
// 5% injected fault rate the hardened prober recovers at least 99% of the
// truly Cloudflare-served hosts with no false positives, while the
// single-shot baseline visibly misclassifies.
func TestFaultSenseRecovery(t *testing.T) {
	s := getStudy(t)
	res, err := RunFaultSense(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*FaultSenseResult)
	renderOK(t, r)

	clean, ok := r.RowAt(0)
	if !ok {
		t.Fatal("no rate-0 row")
	}
	for name, c := range map[string]FaultSenseCell{"naive": clean.Naive, "resilient": clean.Resilient} {
		if c.Missed != 0 || c.False != 0 || c.Jaccard != 1 {
			t.Errorf("rate 0 %s prober not perfect: %+v", name, c)
		}
	}
	if d := clean.Resilient.EvalJaccard - r.TruthEvalJaccard; d != 0 {
		t.Errorf("rate 0 eval drift %v, want 0", d)
	}

	row, ok := r.RowAt(0.05)
	if !ok {
		t.Fatal("no 5% row")
	}
	if rec := r.Recovery(row.Resilient); rec < 0.99 {
		t.Errorf("resilient recovery %.4f at 5%% faults, want >= 0.99 (missed %d of %d)",
			rec, row.Resilient.Missed, r.TruthCF)
	}
	if row.Resilient.False != 0 {
		t.Errorf("resilient prober fabricated %d Cloudflare hosts", row.Resilient.False)
	}
	if row.Naive.Missed <= row.Resilient.Missed {
		t.Errorf("single-shot missed %d, resilient %d: baseline should degrade more",
			row.Naive.Missed, row.Resilient.Missed)
	}
	if row.Naive.Missed == 0 {
		t.Error("single-shot prober lost nothing at 5% faults; the ablation shows no contrast")
	}

	worst, ok := r.RowAt(0.20)
	if !ok {
		t.Fatal("no 20% row")
	}
	if r.Recovery(worst.Resilient) <= r.Recovery(worst.Naive) {
		t.Errorf("at 20%% faults resilient recovery %.4f not above naive %.4f",
			r.Recovery(worst.Resilient), r.Recovery(worst.Naive))
	}
}

// TestFaultSenseDeterministic: the sweep is a pure function of the study
// seed — two runs render byte-identically.
func TestFaultSenseDeterministic(t *testing.T) {
	s := getStudy(t)
	render := func() string {
		res, err := RunFaultSense(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Error("two faultsense sweeps over one study rendered differently")
	}
}

// TestRunConcurrentPanicRunner: a panicking experiment is reported in its
// outcome slot as a *PanicError; the rest of the pool completes.
func TestRunConcurrentPanicRunner(t *testing.T) {
	runners := []Runner{
		{"ok-a", "fine", func(ctx context.Context, s *core.Study) (Result, error) { return SurveyResult{}, nil }},
		{"boom", "panics", func(ctx context.Context, s *core.Study) (Result, error) { panic("experiment exploded") }},
		{"ok-b", "fine", func(ctx context.Context, s *core.Study) (Result, error) { return SurveyResult{}, nil }},
	}
	// The runners never touch the study, so none is needed.
	for _, workers := range []int{1, 3} {
		out := RunConcurrent(context.Background(), nil, runners, workers)
		var pe *PanicError
		if !errors.As(out[1].Err, &pe) {
			t.Fatalf("workers=%d: boom outcome err %v, want *PanicError", workers, out[1].Err)
		}
		if pe.ID != "boom" || pe.Value != "experiment exploded" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic error incomplete: id=%s value=%v stack=%d bytes",
				workers, pe.ID, pe.Value, len(pe.Stack))
		}
		if out[0].Err != nil || out[2].Err != nil {
			t.Errorf("workers=%d: healthy runners failed: %v, %v", workers, out[0].Err, out[2].Err)
		}
	}
}

// TestRunConcurrentCanceled: a pre-canceled context fails every outcome
// with the context's error without running anything.
func TestRunConcurrentCanceled(t *testing.T) {
	ran := false
	runners := []Runner{
		{"x", "x", func(ctx context.Context, s *core.Study) (Result, error) { ran = true; return SurveyResult{}, nil }},
		{"y", "y", func(ctx context.Context, s *core.Study) (Result, error) { ran = true; return SurveyResult{}, nil }},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, oc := range RunConcurrent(ctx, nil, runners, 1) {
		if !errors.Is(oc.Err, context.Canceled) {
			t.Errorf("%s: err %v, want context.Canceled", oc.Runner.ID, oc.Err)
		}
	}
	if ran {
		t.Error("a runner executed under a pre-canceled context")
	}
}

// fullReprobeFaultSense is the reference sweep: every host probed with
// both disciplines at every rate, 0% included, each rate on a fresh
// network.
func fullReprobeFaultSense(ctx context.Context, s *core.Study) (*FaultSenseResult, error) {
	fs := newFaultSense(s)
	res := fs.result()
	for _, rate := range faultSenseRates {
		n := fs.network()
		if rate > 0 {
			n.SetFaultPlan(&faults.Plan{Seed: s.FaultSeed(), Rate: rate})
		}
		naive, resilient, err := probeBoth(ctx, n, fs.hosts)
		n.Close()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, fs.row(rate, naive, resilient))
	}
	return res, nil
}

// redirectOnlyTouched counts the www-canonical hosts whose first probe
// attempt a rate's plan strikes only on the apex→www redirect hop: the
// apex itself rolls no fault, the www host it redirects to does.
func redirectOnlyTouched(s *core.Study, hosts []string, rate float64) int {
	p := &faults.Plan{Seed: s.FaultSeed(), Rate: rate}
	struck := func(h string) bool {
		return p.Dial(h, faults.Key{}) != faults.None || p.Edge(h, faults.Key{}) != faults.None
	}
	count := 0
	for i := range hosts {
		site := s.World.Site(int32(i))
		for sub, label := range site.Subdomains {
			if label == "www" && site.SubWeights[sub] > site.SubWeights[0] &&
				!struck(site.Domain) && struck(site.Hostname(sub)) {
				count++
			}
		}
	}
	return count
}

// TestFaultSenseMatchesFullReprobe: probing only the hosts a fault
// touches, with the 0% rows from the study's probe table (or a fresh clean
// probe when the study itself runs under faults), gives the same result
// and the same render bytes as re-probing every host at every rate.
func TestFaultSenseMatchesFullReprobe(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{3, 17, 2022} {
		for _, studyRate := range []float64{0, 0.05} {
			s := core.NewStudy(core.Config{
				Seed: seed, NumSites: faultSenseMaxHosts, NumClients: 300, Days: 2,
				EvalMagIdx: 1, FaultRate: studyRate,
			})
			s.Run()
			got, err := RunFaultSense(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fullReprobeFaultSense(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, study fault rate %v: result differs from a full re-probe\n got %+v\nwant %+v",
					seed, studyRate, got, want)
			}
			var g, w strings.Builder
			if err := got.Render(&g); err != nil {
				t.Fatal(err)
			}
			if err := want.Render(&w); err != nil {
				t.Fatal(err)
			}
			if g.String() != w.String() {
				t.Errorf("seed %d, study fault rate %v: render differs from a full re-probe", seed, studyRate)
			}
			fs := newFaultSense(s)
			if n := redirectOnlyTouched(s, fs.hosts, faultSenseRates[len(faultSenseRates)-1]); n == 0 {
				t.Errorf("seed %d: no host is touched only on its redirect hop; the sweep does not exercise it", seed)
			}
			s.Close()
		}
	}
}
