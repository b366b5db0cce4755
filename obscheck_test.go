package toplists

import (
	"strings"
	"sync"
	"testing"

	"toplists/internal/obs"
)

// faultedRunKey names one run of the seed-11 faulted study that the fault
// and telemetry determinism oracles compare: its worker count, whether a
// Tracer is attached, and which repetition of that configuration it is.
type faultedRunKey struct {
	workers int
	traced  bool
	rep     int
}

// faultedRun is what the oracles compare: the full render and the run
// report's deterministic subset.
type faultedRun struct {
	render string
	det    string
}

// faultedRuns memoizes faultedStudy, so TestFaultDeterminism and
// TestObsDeterminism share their runs and the package builds each
// configuration once. Repetitions are distinct keys, so a repeated-run
// comparison always compares two separately built studies.
var faultedRuns struct {
	sync.Mutex
	m map[faultedRunKey]faultedRun
}

// faultedStudy builds, renders and closes the seed-11 study at
// FaultRate 0.05 for key, or returns the memoized result of an earlier
// build of the same key.
func faultedStudy(t *testing.T, key faultedRunKey) faultedRun {
	t.Helper()
	faultedRuns.Lock()
	defer faultedRuns.Unlock()
	if out, ok := faultedRuns.m[key]; ok {
		return out
	}
	c := Config{Seed: 11, Sites: 900, Clients: 250, Days: 3, FaultRate: 0.05, Workers: key.workers}
	var tracer *obs.Tracer
	if key.traced {
		reg := obs.NewRegistry()
		tracer = obs.NewTracer(0)
		reg.SetTracer(tracer)
		c.Obs = reg
	}
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var b strings.Builder
	if err := s.RenderAll(&b); err != nil {
		t.Fatal(err)
	}
	if key.traced && tracer.Len() == 0 {
		t.Errorf("workers=%d: attached tracer recorded no events", key.workers)
	}
	det, err := s.Metrics().Snapshot().Deterministic()
	if err != nil {
		t.Fatal(err)
	}
	out := faultedRun{render: b.String(), det: string(det)}
	if faultedRuns.m == nil {
		faultedRuns.m = make(map[faultedRunKey]faultedRun)
	}
	faultedRuns.m[key] = out
	return out
}

// TestFaultDeterminism is the fault-injection determinism oracle: with a
// nonzero fault rate and a fixed seed, the full rendered evaluation must
// be byte-identical across worker counts and across repeated runs. Fault
// decisions are pure functions of (seed, host, attempt, day) — never
// wall-clock time, goroutine scheduling, or map order — so injected
// weather cannot introduce nondeterminism anywhere in the pipeline.
// TestObsDeterminism compares the same runs and more; the runs are
// shared, so this test adds no study builds to the package.
func TestFaultDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three full studies")
	}
	base := faultedStudy(t, faultedRunKey{workers: 4})
	if serial := faultedStudy(t, faultedRunKey{workers: 1}); serial.render != base.render {
		t.Errorf("faulted render differs between workers=1 and workers=4 (lens %d vs %d)",
			len(serial.render), len(base.render))
	}
	if again := faultedStudy(t, faultedRunKey{workers: 4, rep: 1}); again.render != base.render {
		t.Error("faulted render differs between two identical workers=4 runs")
	}
}

// TestObsDeterminism is the oracle behind `make obscheck` (and its alias
// `make faultcheck`): telemetry must never perturb study output, and every
// count-valued metric must be a pure function of (seed, config). The study
// runs at a nonzero fault rate, and fault decisions are pure functions of
// (seed, host, attempt, day) — never wall-clock time, goroutine
// scheduling, or map order — so injected weather cannot introduce
// nondeterminism either. Concretely, across a repeated workers=4 run and
// worker counts 1 and auto (0):
//
//  1. the full rendered evaluation stays byte-identical (instrumentation
//     cannot leak into results), and
//  2. the run report's deterministic subset — schema, counters, gauges —
//     is byte-identical (scheduling cannot leak into the counts).
//
// Timing-valued metrics (durations, phases, queue waits) and the
// explicitly Volatile counters are excluded from the subset by
// Report.Deterministic, which is exactly what makes this test possible.
//
// The same must hold with a Tracer attached: tracing is observation, not
// behavior, so a traced run at any worker count renders byte-identically
// to the untraced workers=4 baseline and carries the same deterministic
// subset — while actually recording events (an empty trace would make
// the "tracing is free" claim vacuous).
func TestObsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds seven full studies")
	}
	base := faultedStudy(t, faultedRunKey{workers: 4})
	// The subset must actually carry the instrumented counts — an
	// accidentally empty report would pass the comparison below vacuously.
	for _, key := range []string{
		"engine.events.pageload", "artifacts.norm.misses",
		"probe.attempts", "faults.injected.", "eval.completed",
		"names.interned",
	} {
		if !strings.Contains(base.det, key) {
			t.Errorf("deterministic report subset is missing %q:\n%s", key, base.det)
		}
	}

	for _, variant := range []faultedRunKey{
		{workers: 4, rep: 1}, {workers: 1}, {workers: 0},
		{workers: 4, traced: true}, {workers: 1, traced: true}, {workers: 0, traced: true},
	} {
		got := faultedStudy(t, variant)
		if got.render != base.render {
			t.Errorf("rendered output differs between workers=4 and workers=%d traced=%v (lens %d vs %d)",
				variant.workers, variant.traced, len(base.render), len(got.render))
		}
		if got.det != base.det {
			t.Errorf("deterministic report subset differs between workers=4 and workers=%d traced=%v:\n%s",
				variant.workers, variant.traced, firstDiffLine(base.det, got.det))
		}
	}
}

// firstDiffLine locates the first line where two reports diverge, for a
// readable failure message.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + " != " + bl[i]
		}
	}
	return "one report is a prefix of the other"
}
