package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one reported metric: its name and unit. The tables
// below are the benchmark's contract; BENCHMARK.json at the repository
// root lists the same names and units (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload (README.md defines each per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"evaluate_s", "s"},
	{"peak_rss_mb", "MB"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"advance_p50_ms", "ms"},
}

// sinkNames name the study's five traffic sinks in metrics, in the order
// core.NewStudy attaches them.
var sinkNames = []string{"cfmetrics", "chrome", "providers.alexa", "providers.umbrella", "providers.secrank"}

// layers are the span-name prefixes self time is attributed to; "bench" is
// the benchmark's own glue between calls.
var layers = []string{"world", "linkgraph", "core", "traffic", "sink", "providers", "snapshot",
	"httpsim", "experiments", "toplistsd", "bench"}

// perLayer returns the metrics a traced run reports, on every workload; a
// metric of a layer the workload does not run reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"world.generate_s", "s"},
		{"linkgraph.build_s", "s"},
		{"traffic.new_engine_s", "s"},
		{"traffic.day_s", "s"},
		{"traffic.clients_day_s", "s"},
		{"traffic.speedup_w2", "ratio"},
		{"traffic.replay_s", "s"},
		{"traffic.events.pageload", "count"},
		{"traffic.events.dnsquery", "count"},
		{"traffic.events.botrequests", "count"},
	}
	for _, s := range sinkNames {
		defs = append(defs, []metricDef{
			{"sink." + s + ".end_day_s", "s"},
			{"sink." + s + ".merge_s", "s"},
			{"sink." + s + ".events", "count"},
		}...)
	}
	defs = append(defs, []metricDef{
		{"providers.tranco.compute_day_s", "s"},
		{"providers.trexa.compute_day_s", "s"},
		{"core.artifacts.cold_s", "s"},
		{"core.artifacts.warm_s", "s"},
		{"core.artifacts.hit_ratio", "ratio"},
		{"httpsim.probe_sweep_s", "s"},
		{"httpsim.probe.retry_ratio", "ratio"},
	}...)
	for _, id := range experimentIDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	defs = append(defs, []metricDef{
		{"experiments.render_s", "s"},
		{"experiments.pool_efficiency", "ratio"},
		{"snapshot.encode_s", "s"},
		{"snapshot.bytes", "bytes"},
		{"toplistsd.rankings_p50_ms", "ms"},
		{"toplistsd.rankings_p99_ms", "ms"},
		{"toplistsd.diff_p50_ms", "ms"},
		{"toplistsd.checkpoint_p50_ms", "ms"},
		{"toplistsd.read_quiet_p99_ms", "ms"},
		{"toplistsd.read_stalled_share", "ratio"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.due", "count"},
		{"loadgen.sent", "count"},
		{"loadgen.connections", "count"},
		{"loadgen.behind", "flag"},
		{"heap.after_simulate_mb", "MB"},
		{"sketch.mem_peak_bytes", "bytes"},
	}...)
	for _, l := range layers {
		defs = append(defs, metricDef{"self." + l + "_s", "s"})
	}
	return append(defs, []metricDef{
		{"unattributed_s", "s"},
		{"trace.wall_s", "s"},
		{"trace.closure_error", "ratio"},
		{"trace.overhead_share", "ratio"},
	}...)
}

// report accumulates one invocation's result.
type report struct {
	defs      []metricDef
	values    map[string]float64
	attempted int
	failed    int
	notes     []string
}

func newReport(traced bool) *report {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	return &report{defs: defs, values: make(map[string]float64)}
}

// set records a metric value. Only metrics of the run's table may be set.
func (r *report) set(name string, v float64) {
	if !slices.ContainsFunc(r.defs, func(d metricDef) bool { return d.name == name }) {
		panic("pipebench: metric " + name + " is not declared for this run")
	}
	r.values[name] = v
}

// notef adds a human-readable line printed before the result.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one checked operation, and a failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.notef("FAILED: "+format, args...)
	}
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostFacts describe the machine and runtime a result was measured on.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
}

func currentHost() hostFacts {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return hostFacts{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc, GoVersion: runtime.Version()}
}

// write prints the human-readable summary, saves the result with the host
// facts under the output directory, and prints the result line last.
func (r *report) write(w io.Writer, o options) error {
	res := result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: make(map[string]metricValue, len(r.defs))}
	host := currentHost()
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d GOGC=%s go=%s\n", host.NProc, host.GOMAXPROCS, host.GOGC, host.GoVersion)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range r.defs {
		v := r.values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "%-36s %16.6g (%d failed of %d attempted)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)

	saved, err := json.MarshalIndent(struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Seconds  float64   `json:"seconds"`
		Trace    int       `json:"trace"`
		Scale    string    `json:"scale"`
		Host     hostFacts `json:"host"`
		Notes    []string  `json:"notes"`
		Result   result    `json:"result"`
	}{o.workload, o.seed, o.seconds, o.trace, o.scaleName, host, r.notes, res}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	if err := os.WriteFile(path, append(saved, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "result saved to %s\n", path)

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs, 0 < q <= 1 (0 when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the resident-set high-water mark (VmHWM) of process pid
// ("self" for this one), in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
