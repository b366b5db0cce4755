// Command toplists runs the study end to end and regenerates the paper's
// tables and figures.
//
// Usage:
//
//	toplists [flags]
//
//	-seed       study seed (default 2022)
//	-sites      universe size (default 50000)
//	-clients    browsing population (default 6000)
//	-days       measurement window in days (default 28)
//	-workers    worker goroutines for the per-day simulation and for the
//	            concurrent experiment evaluation (default 0 = one per CPU;
//	            1 = serial; results are identical either way)
//	-vantages   measurement vantage points (default 1 = the transparent
//	            global vantage; up to 12)
//	-backends   deployed CDN edge backends (default 1 = Cloudflare-style
//	            only; up to 3)
//	-experiment artifact to regenerate: fig1..fig8, tab1..tab3, or "all"
//	-faultrate  inject deterministic network faults at this rate (0..1);
//	            output stays reproducible for a fixed seed
//	-sketch     aggregate through bounded mergeable sketches
//	-list       print the available experiments and exit
//	-report     write a machine-readable JSON run report (telemetry
//	            snapshot) to the given file
//	-trace      write a Chrome trace_event JSON timeline of the run to the
//	            given file (open in Perfetto or chrome://tracing); when
//	            -report is also set, the report's meta records the path
//	-debugaddr  serve /metrics and /debug/pprof/ on this address while
//	            the run is in flight (e.g. localhost:6060)
//	-quiet      suppress diagnostics and the end-of-run summary
//	-v          verbose diagnostics
//
// The study flags apply to every experiment, the multi-study ones (ablate,
// robust, attack) included; an out-of-range value exits with status 2 and
// an error naming it, before anything is built.
//
// Artifacts go to stdout and nothing else does: every diagnostic, and the
// end-of-run telemetry summary, goes to stderr, so redirecting stdout
// always yields exactly the paper artifacts.
//
// Interrupting the run (Ctrl-C) cancels the simulation and evaluation
// promptly via context cancellation.
//
// Example:
//
//	toplists -sites 20000 -clients 3000 -days 14 -experiment fig2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"toplists"
	"toplists/internal/obs"
)

func main() {
	var cfg toplists.Config
	flag.Uint64Var(&cfg.Seed, "seed", 2022, "study seed")
	flag.IntVar(&cfg.Sites, "sites", 50000, "number of websites in the universe")
	flag.IntVar(&cfg.Clients, "clients", 6000, "number of simulated clients")
	flag.IntVar(&cfg.Days, "days", 28, "measurement window in days")
	flag.IntVar(&cfg.Workers, "workers", 0, "simulation and evaluation worker goroutines (0 = one per CPU, 1 = serial)")
	flag.IntVar(&cfg.Vantages, "vantages", 1, "measurement vantage points (1 = transparent global only)")
	flag.IntVar(&cfg.Backends, "backends", 1, "deployed CDN edge backends (1 = Cloudflare-style only)")
	flag.Float64Var(&cfg.FaultRate, "faultrate", 0, "inject deterministic network faults at this rate (0..1)")
	flag.BoolVar(&cfg.Sketch, "sketch", false, "aggregate through bounded mergeable sketches instead of exact state")
	var (
		experiment = flag.String("experiment", "all", "experiment id (fig1..fig8, tab1..tab3, stability, faultsense, vantages) or 'all'")
		list       = flag.Bool("list", false, "list available experiments and exit")
		outdir     = flag.String("outdir", "", "also write each artifact to <outdir>/<id>.txt")
		reportPath = flag.String("report", "", "write a JSON run report (telemetry snapshot) to this file")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON run timeline to this file")
		debugAddr  = flag.String("debugaddr", "", "serve /metrics and /debug/pprof/ on this address (e.g. localhost:6060)")
		quiet      = flag.Bool("quiet", false, "suppress diagnostics and the run summary (errors still print)")
		verbose    = flag.Bool("v", false, "verbose diagnostics")
	)
	flag.Parse()

	level := obs.LevelInfo
	if *verbose {
		level = obs.LevelDebug
	}
	if *quiet {
		level = obs.LevelError
	}
	log := obs.NewLogger(os.Stderr, level)
	if err := cfg.Validate(); err != nil {
		log.Errorf("toplists: %s", errText(err))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *list {
		for _, e := range toplists.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Name)
		}
		fmt.Printf("%-6s %s\n", "ablate", "Mechanism ablations (extension; runs 7 studies)")
		fmt.Printf("%-6s %s\n", "robust", "Headline robustness over 5 seeds (extension; runs 5 studies)")
		fmt.Printf("%-6s %s\n", "attack", "Sybil panel-manipulation attack (extension; runs 4 studies)")
		return
	}

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(0)
		reg.SetTracer(tracer)
		tracer.Begin("run", "cmd")
	}
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Errorf("toplists: %s", errText(err))
			os.Exit(1)
		}
		defer srv.Close()
		log.Infof("debug server on http://%s (/metrics, /debug/pprof/)", srv.Addr())
	}

	switch *experiment {
	case "attack":
		res, err := toplists.RunAttack(cfg, []int{1, 3, 10})
		renderOrDie(log, res, err)
		return
	case "robust":
		s := cfg.Seed
		res, err := toplists.RunRobustness(cfg, []uint64{s, s + 1, s + 2, s + 3, s + 4})
		renderOrDie(log, res, err)
		return
	case "ablate":
		res, err := toplists.RunAblations(cfg)
		renderOrDie(log, res, err)
		return
	}

	start := time.Now()
	log.Infof("building study: %d sites, %d clients, %d days (seed %d)...",
		cfg.Sites, cfg.Clients, cfg.Days, cfg.Seed)
	cfg.AllCombos = true
	cfg.Obs = reg
	study, err := toplists.RunContext(ctx, cfg)
	if err != nil {
		log.Errorf("toplists: %s", errText(err))
		os.Exit(1)
	}
	defer study.Close()
	log.Infof("%s (built in %v)", study.Describe(), time.Since(start).Round(time.Millisecond))

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = ids[:0]
		for _, e := range toplists.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	// Experiments execute concurrently on the -workers pool, sharing one
	// memoized artifact store; outcomes come back in canonical paper order
	// so stdout is byte-identical to a serial run.
	outcomes, err := study.RunExperimentsContext(ctx, ids)
	if err != nil {
		log.Errorf("toplists: %s", errText(err))
		os.Exit(1)
	}
	for _, oc := range outcomes {
		if oc.Err != nil {
			if oc.ID == "fig8" && *experiment == "all" {
				log.Infof("[%s skipped: %v]", oc.ID, oc.Err)
				continue
			}
			log.Errorf("toplists: %s", errText(oc.Err))
			os.Exit(1)
		}
		if err := renderTo(oc.Result, *outdir); err != nil {
			log.Errorf("toplists: %s", errText(err))
			os.Exit(1)
		}
		fmt.Println()
	}

	if tracer != nil {
		tracer.End("run", "cmd")
		if err := writeTrace(tracer, *tracePath); err != nil {
			log.Errorf("toplists: trace: %s", errText(err))
			os.Exit(1)
		}
		log.Debugf("trace written to %s (%d events, %d dropped)", *tracePath, tracer.Len(), tracer.Dropped())
	}

	rep := reg.Snapshot()
	rep.Meta = map[string]string{
		"seed":       strconv.FormatUint(cfg.Seed, 10),
		"sites":      strconv.Itoa(cfg.Sites),
		"clients":    strconv.Itoa(cfg.Clients),
		"days":       strconv.Itoa(cfg.Days),
		"workers":    strconv.Itoa(cfg.Workers),
		"experiment": *experiment,
		"faultrate":  strconv.FormatFloat(cfg.FaultRate, 'g', -1, 64),
	}
	if *tracePath != "" {
		rep.Meta["trace"] = *tracePath
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
		if err := rep.WriteSummary(os.Stderr); err != nil {
			log.Errorf("toplists: summary: %v", err)
		}
	}
	if *reportPath != "" {
		if err := writeReport(rep, *reportPath); err != nil {
			log.Errorf("toplists: %s", errText(err))
			os.Exit(1)
		}
		log.Debugf("run report written to %s", *reportPath)
	}
}

// renderOrDie renders a multi-study extension result to stdout, exiting on
// any failure.
func renderOrDie(log *obs.Logger, res toplists.Result, err error) {
	if err == nil {
		err = res.Render(os.Stdout)
	}
	if err != nil {
		log.Errorf("toplists: %s", errText(err))
		os.Exit(1)
	}
}

// errText returns err's message with the library's "toplists: " prefix
// trimmed; library errors self-identify, and the CLI tags every message
// itself, so printing both would double the prefix.
func errText(err error) string {
	return strings.TrimPrefix(err.Error(), "toplists: ")
}

// writeReport writes the JSON run report to path.
func writeReport(rep *obs.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the run timeline as Chrome trace_event JSON to path.
func writeTrace(t *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// renderTo writes the artifact to stdout and, when outdir is set, to
// <outdir>/<id>.txt as well.
func renderTo(res toplists.Result, outdir string) error {
	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	if outdir == "" {
		return nil
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outdir, res.ID()+".txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	return res.Render(f)
}
