package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests hold the code to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricTablesMatchSpec keeps the metric tables in the code and the
// lists in BENCHMARK.json identical: names, units and order.
func TestMetricTablesMatchSpec(t *testing.T) {
	s := readSpec(t)
	for _, c := range []struct {
		name string
		code []metricDef
		spec []specMetric
	}{{"end_to_end", endToEnd, s.EndToEnd}, {"per_layer", perLayer(), s.PerLayer}} {
		if len(c.code) != len(c.spec) {
			t.Errorf("%s: the code declares %d metrics, BENCHMARK.json %d", c.name, len(c.code), len(c.spec))
			continue
		}
		for i, d := range c.code {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", c.name, i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"study-exact", "study-sketch", "serve-mixed"}; !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
}

// TestAccounting checks the self-time bookkeeping: nested spans account
// for the wall time exactly, and overlapping siblings break the closure.
func TestAccounting(t *testing.T) {
	const ms = time.Millisecond
	nested := &recorder{spans: []spanRec{
		{name: "bench.simulate", parent: -1, start: 0, end: 100 * ms},
		{name: "traffic.day", parent: 0, start: 10 * ms, end: 60 * ms},
		{name: "sink.cfmetrics.end_day", parent: 1, start: 50 * ms, end: 60 * ms},
		{name: "providers.tranco.compute_day", parent: 0, start: 60 * ms, end: 90 * ms},
	}}
	self, unattributed, closure := nested.account(120 * ms)
	want := map[string]time.Duration{"bench": 20 * ms, "traffic": 40 * ms, "sink": 10 * ms, "providers": 30 * ms}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], d)
		}
	}
	if unattributed != 20*ms || closure != 0 {
		t.Errorf("unattributed %v, closure %v; want 20ms, 0", unattributed, closure)
	}

	overlapping := &recorder{spans: []spanRec{
		{name: "bench.evaluate", parent: -1, start: 0, end: 100 * ms},
		{name: "experiments.fig1", parent: 0, start: 0, end: 80 * ms},
		{name: "experiments.fig2", parent: 0, start: 20 * ms, end: 100 * ms},
	}}
	if _, _, closure := overlapping.account(100 * ms); closure <= closureTolerance {
		t.Errorf("overlapping children: closure %v, want above the %v tolerance", closure, closureTolerance)
	}
}

// TestSmoke builds the benchmark and toplistsd, runs every workload at tiny
// scale untraced and traced, and checks that each run passes its own
// correctness checks and reports every metric BENCHMARK.json declares for
// it, with its unit, on the last line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	bin := buildBinaries(t)
	s := readSpec(t)
	for _, w := range s.Workloads {
		for trace, want := range [][]specMetric{s.EndToEnd, s.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				res, err := runBench(t, bin, w.Name, trace, false)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d failed of %d attempted", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptOutputFails checks that a deliberately corrupted output — a
// study's rendered artifacts, or one repeated toplistsd response — counts
// as a failure and fails the command.
func TestCorruptOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs workloads")
	}
	bin := buildBinaries(t)
	for _, w := range []string{"study-exact", "serve-mixed"} {
		res, err := runBench(t, bin, w, 0, true)
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("%s: corrupted run ended with %v, want a non-zero exit", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted run reported correct %v with %d failed", w, res.Correct, res.Failed)
		}
	}
}

// buildBinaries builds pipebench and toplistsd into a temporary directory.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), ".", "toplists/cmd/toplistsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return dir
}

// runBench runs one workload at tiny scale and decodes its result line.
func runBench(t *testing.T, bin, workload string, trace int, corrupt bool) (result, error) {
	t.Helper()
	args := []string{"-scale", "tiny", "-bin", bin, "-out", t.TempDir(),
		"--workload", workload, "--seed", "7", "--seconds", "2", "--trace", strconv.Itoa(trace)}
	if corrupt {
		args = append(args, "-corrupt")
	}
	cmd := exec.Command(filepath.Join(bin, "pipebench"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result (%v); stderr:\n%s", err, stderr.String())
	}
	return res, runErr
}
