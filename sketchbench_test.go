package toplists

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"toplists/internal/core"
	"toplists/internal/obs"
	"toplists/internal/sketch"
)

// The sketch-scale harness (its recorded runs are in EXPERIMENTS.md,
// "Retired one-off records"). The point of the sketch layer is that per-day
// aggregation state stops scaling with event volume: a month of traffic
// from a million clients aggregates through fixed-size summaries merged at
// each day barrier. The env-gated test below runs that scale (hours of wall
// clock on one core) and reports events/sec plus the process peak RSS;
// BenchmarkSketchMonth is the small-default always-on variant CI's bench
// smoke compiles and runs.

// vmHWMBytes reads the process high-water resident set from /proc.
func vmHWMBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

func envInt(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// runSketchScale builds and runs one sketch-mode study and reports the
// engine event totals, rate, and memory numbers.
func runSketchScale(tb testing.TB, sites, clients, days int) {
	reg := obs.NewRegistry()
	start := time.Now()
	s := core.NewStudy(core.Config{
		Seed:       2022,
		NumSites:   sites,
		NumClients: clients,
		Days:       days,
		Sketch:     sketch.Config{Enabled: true},
		Obs:        reg,
	})
	s.Run()
	elapsed := time.Since(start)

	snap := reg.Snapshot()
	var events int64
	for _, key := range []string{
		"engine.events.pageload", "engine.events.dnsquery", "engine.events.botrequests",
	} {
		events += snap.Counters[key]
	}
	sketchBytes := int64(0)
	for key, v := range snap.Gauges {
		if strings.HasPrefix(key, "sketch.") && strings.HasSuffix(key, "mem_peak_bytes") {
			sketchBytes += v
		}
	}
	tb.Logf("sketch scale: sites=%d clients=%d days=%d", sites, clients, days)
	tb.Logf("events=%d elapsed=%v events_per_sec=%.0f", events, elapsed.Round(time.Millisecond),
		float64(events)/elapsed.Seconds())
	tb.Logf("sketch_mem_peak_bytes=%d vm_hwm_bytes=%d", sketchBytes, vmHWMBytes())
	if b, ok := tb.(*testing.B); ok {
		b.ReportMetric(float64(events)/elapsed.Seconds(), "events/s")
		b.ReportMetric(float64(sketchBytes), "sketchB")
	}
}

// TestSketchScale is the sketch-scale measurement: set
// TOPLISTS_SKETCH_BENCH=1 (and optionally TOPLISTS_SKETCH_SITES / _CLIENTS /
// _DAYS) to run the million-client-scale measurement. Skipped otherwise —
// it is a measurement harness, not a correctness gate.
func TestSketchScale(t *testing.T) {
	if os.Getenv("TOPLISTS_SKETCH_BENCH") == "" {
		t.Skip("set TOPLISTS_SKETCH_BENCH=1 to run the sketch scale measurement")
	}
	runSketchScale(t,
		envInt("TOPLISTS_SKETCH_SITES", 100_000),
		envInt("TOPLISTS_SKETCH_CLIENTS", 1_000_000),
		envInt("TOPLISTS_SKETCH_DAYS", 28))
}

// BenchmarkSketchMonth is the small-default variant: one sketch-mode month
// at a laptop scale, so the harness is compiled and exercised on every
// bench smoke.
func BenchmarkSketchMonth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSketchScale(b, 5000, 1000, 7)
	}
}
