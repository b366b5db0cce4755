package toplists

import (
	"os"
	"testing"
	"time"

	"toplists/internal/core"
	"toplists/internal/obs"
	"toplists/internal/world"
)

// The vantage-grid scale harness (its recorded runs are in EXPERIMENTS.md,
// "Retired one-off records"). Widening the measurement grid from the single
// transparent edge to 3 vantages x 3 backends multiplies the number of edge
// pipelines fed per event by up to nine; the cost the refactor actually
// adds is one visibility hash plus a per-backend site mask per (event,
// extra pipeline). The env-gated test below measures events/sec and process
// peak RSS at a chosen grid so the baseline (1x1) and the full grid can be
// compared across two process runs; BenchmarkVantageGrid is the small-
// default always-on variant CI's bench smoke compiles and runs.

// runVantageScale builds and runs one exact-mode study on the given
// vantage/backend grid and reports event totals, rate, and peak RSS.
func runVantageScale(tb testing.TB, sites, clients, days, vantages, backends int) {
	reg := obs.NewRegistry()
	start := time.Now()
	s := core.NewStudy(core.Config{
		Seed:       2022,
		NumSites:   sites,
		NumClients: clients,
		Days:       days,
		Vantages:   vantages,
		Backends:   backends,
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
	edges := len(s.Vantages()) * len(s.Backends())
	tb.Logf("vantage scale: sites=%d clients=%d days=%d grid=%dx%d (%d edges)",
		sites, clients, days, vantages, backends, edges)
	tb.Logf("events=%d elapsed=%v events_per_sec=%.0f vm_hwm_bytes=%d",
		events, elapsed.Round(time.Millisecond), float64(events)/elapsed.Seconds(), vmHWMBytes())
	if b, ok := tb.(*testing.B); ok {
		b.ReportMetric(float64(events)/elapsed.Seconds(), "events/s")
	}
}

// TestVantageScale is the vantage-grid scale measurement: set
// TOPLISTS_VANTAGE_BENCH=1 and choose the grid with TOPLISTS_VANTAGE_VANTAGES
// / _BACKENDS (plus the usual _SITES / _CLIENTS / _DAYS). Run it once at
// 1/1 and once at 3/3 in separate processes — VmHWM is a process-wide
// high-water mark, so the two grids must not share an address space.
// Skipped without the env var: it is a measurement harness, not a gate.
func TestVantageScale(t *testing.T) {
	if os.Getenv("TOPLISTS_VANTAGE_BENCH") == "" {
		t.Skip("set TOPLISTS_VANTAGE_BENCH=1 to run the vantage grid scale measurement")
	}
	vantages := envInt("TOPLISTS_VANTAGE_VANTAGES", 3)
	backends := envInt("TOPLISTS_VANTAGE_BACKENDS", 3)
	if vantages < 1 || vantages > world.MaxVantages || backends < 1 || backends > world.NumBackends {
		t.Fatalf("grid %dx%d outside [1,%d]x[1,%d]", vantages, backends, world.MaxVantages, world.NumBackends)
	}
	runVantageScale(t,
		envInt("TOPLISTS_VANTAGE_SITES", 20_000),
		envInt("TOPLISTS_VANTAGE_CLIENTS", 30_000),
		envInt("TOPLISTS_VANTAGE_DAYS", 7),
		vantages, backends)
}

// BenchmarkVantageGrid is the small-default variant: a 3x3 grid at laptop
// scale, keeping the multi-edge fan-out exercised on every bench smoke.
func BenchmarkVantageGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runVantageScale(b, 2000, 500, 3, 3, 3)
	}
}
