// Command toplistsd runs the study as a resident service: the simulated
// month advances one day at a time — on demand or on a virtual-clock
// ticker — while HTTP readers consult the day's published lists, and the
// whole study checkpoints durably to disk and resumes byte-identically
// in a later process, even one started by a supervisor after a SIGKILL.
//
// Usage:
//
//	toplistsd [flags]
//
// An out-of-range study flag (e.g. -sites -1, -faultrate 3) exits with
// status 2 and an error naming it, before anything is built.
//
//	-addr           HTTP listen address for the v1 API (default
//	                localhost:8650; :0 picks a free port)
//	-seed           study seed (default 2022)
//	-sites          universe size (default 50000)
//	-clients        browsing population (default 6000)
//	-days           measurement window in days (default 28)
//	-workers        per-day simulation worker goroutines (0 = one per CPU)
//	-vantages       measurement vantage points (0 or 1 = the single
//	                transparent global vantage; up to 12)
//	-backends       deployed CDN edge backends (0 or 1 = Cloudflare-style
//	                only; up to 3)
//	-allcombos      track all 21 Cloudflare filter-aggregation combinations
//	-sketch         aggregate through bounded mergeable sketches
//	-faultrate      inject deterministic network faults at this rate (0..1)
//	-tick           advance one simulated day per interval (0 = only on
//	                POST /v1/advance)
//	-checkpoint     checkpoint DIRECTORY: POST /v1/checkpoint, the
//	                -autocheckpoint cadence, and shutdown each write a new
//	                fsynced generation (study.snap.NNNNNN) here, and
//	                startup recovers from the newest intact generation
//	-autocheckpoint write a checkpoint generation every N advanced days
//	                (and on the final day; 0 = only manual/shutdown)
//	-retain         checkpoint generations to keep (default 5)
//	-readyfile      write the bound HTTP address to this file once
//	                serving (for harnesses using -addr localhost:0)
//	-trace          write a Chrome trace_event JSON timeline (tick
//	                advances, per-day/per-shard simulate spans, checkpoint
//	                writes) to this file on shutdown
//	-debugaddr      serve /metrics and /debug/pprof/ on this address
//	-quiet          suppress diagnostics (errors still print)
//	-v              verbose diagnostics
//
// API:
//
//	GET  /healthz                liveness: the process serves
//	GET  /readyz                 readiness: >= 1 day published, not aborted
//	GET  /v1/status              day cursor, completion, abort state
//	POST /v1/advance?days=N      simulate N more days (409 when done,
//	                             503 + Retry-After when the write path
//	                             is saturated)
//	GET  /v1/vantages            the vantage/backend measurement grid
//	GET  /v1/rankings/{list}     top k of a list for an advanced day;
//	                             with ?vantage=&backend= the path names a
//	                             Cloudflare metric and the response is
//	                             that (vantage, backend) edge's view
//	GET  /v1/diff                top-k churn of a list between two days
//	GET  /v1/report[?stable=1]   telemetry report (stable = the subset
//	                             pinned across checkpoint/restore)
//	POST /v1/checkpoint          write a new checkpoint generation
//
// Crash model: checkpoint generations are fsynced (file and directory)
// before being renamed into place, so a crash — SIGKILL, power loss —
// at any instant leaves at worst a torn temp file that recovery ignores.
// On startup with -checkpoint, the recovery supervisor scans generations
// newest-first, verifies each frame-by-frame, and resumes the newest
// intact one; corrupt candidates are logged and skipped, never fatal.
//
// Readers never see a torn day and never wait for one: each advanced day
// is published whole, as an immutable view, and /v1/rankings, /v1/diff,
// /readyz and /v1/status read the latest view without taking the study's
// lifecycle lock. Only checkpoints and CrUX reads read-hold that lock,
// which a day advance write-holds. CrUX publishes one month-to-date list,
// so a read of any past day returns the list as of the latest day.
package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"toplists/internal/core"
	"toplists/internal/obs"
	"toplists/internal/snapshot"
)

// HTTP server hardening. The write timeout bounds the slowest legitimate
// response — a multi-day POST /v1/advance on a large study — so it is
// deliberately generous; the header/read timeouts bound what a slow or
// hostile client can pin per connection.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 10 * time.Minute
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 30 * time.Second
)

func main() {
	var cfg core.Config
	flag.Uint64Var(&cfg.Seed, "seed", 2022, "study seed")
	flag.IntVar(&cfg.NumSites, "sites", 50000, "number of websites in the universe")
	flag.IntVar(&cfg.NumClients, "clients", 6000, "number of simulated clients")
	flag.IntVar(&cfg.Days, "days", 28, "measurement window in days")
	flag.IntVar(&cfg.Workers, "workers", 0, "simulation worker goroutines (0 = one per CPU, 1 = serial)")
	flag.IntVar(&cfg.Vantages, "vantages", 1, "measurement vantage points (1 = transparent global only)")
	flag.IntVar(&cfg.Backends, "backends", 1, "deployed CDN edge backends (1 = Cloudflare-style only)")
	flag.BoolVar(&cfg.TrackAllCombos, "allcombos", false, "track all 21 Cloudflare filter-aggregation combinations")
	flag.BoolVar(&cfg.Sketch.Enabled, "sketch", false, "aggregate through bounded mergeable sketches instead of exact state")
	flag.Float64Var(&cfg.FaultRate, "faultrate", 0, "inject deterministic network faults at this rate (0..1)")
	var (
		addr      = flag.String("addr", "localhost:8650", "HTTP listen address for the v1 API")
		tick      = flag.Duration("tick", 0, "advance one simulated day per interval (0 = manual advance only)")
		ckptPath  = flag.String("checkpoint", "", "checkpoint directory for generations, recovery, and shutdown")
		autoCkpt  = flag.Int("autocheckpoint", 0, "write a checkpoint generation every N advanced days (0 = off)")
		retain    = flag.Int("retain", 5, "checkpoint generations to keep")
		readyFile = flag.String("readyfile", "", "write the bound HTTP address here once serving")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON run timeline here on shutdown")
		debugAddr = flag.String("debugaddr", "", "serve /metrics and /debug/pprof/ on this address")
		quiet     = flag.Bool("quiet", false, "suppress diagnostics (errors still print)")
		verbose   = flag.Bool("v", false, "verbose diagnostics")
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
		log.Errorf("toplistsd: %v", err)
		os.Exit(2)
	}
	if *autoCkpt > 0 && *ckptPath == "" {
		log.Errorf("toplistsd: -autocheckpoint needs a -checkpoint directory")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	cfg.Obs = reg
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(0)
		reg.SetTracer(tracer)
	}
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Errorf("toplistsd: %v", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Infof("debug server on http://%s (/metrics, /debug/pprof/)", srv.Addr())
	}

	var ckptDir *snapshot.Dir
	if *ckptPath != "" {
		var err error
		ckptDir, err = snapshot.OpenDir(*ckptPath)
		if err != nil {
			log.Errorf("toplistsd: %v", err)
			os.Exit(1)
		}
	}

	study, err := openStudy(cfg, ckptDir, log)
	if err != nil {
		log.Errorf("toplistsd: %v", err)
		os.Exit(1)
	}
	defer study.Close()

	srv := newServer(study, ckptDir, *retain, log)
	if ckptDir != nil && *autoCkpt > 0 {
		study.SetAutoCheckpoint(*autoCkpt, srv.autoCheckpoint)
		log.Infof("auto-checkpoint every %d day(s), retaining %d generation(s)", *autoCkpt, *retain)
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Errorf("toplistsd: %v", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler:           srv.handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		if err := httpSrv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Errorf("toplistsd: serve: %v", err)
		}
	}()
	log.Infof("v1 API on http://%s (day %d/%d)", lis.Addr(), study.Day(), study.Cfg.Days)
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(lis.Addr().String()), 0o644); err != nil {
			log.Errorf("toplistsd: readyfile: %v", err)
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tickDone sync.WaitGroup
	if *tick > 0 {
		tickDone.Add(1)
		go func() {
			defer tickDone.Done()
			srv.tickLoop(ctx, *tick)
		}()
	}

	<-ctx.Done()
	stop()
	log.Infof("shutting down")

	// Drain order matters for the final checkpoint's day boundary:
	// 1. the ticker stops (an in-flight day completes — tickLoop never
	//    cancels mid-day);
	// 2. in-flight HTTP requests finish, so no POST /v1/advance can move
	//    the cursor underneath the snapshot;
	// 3. the final generation streams out durably;
	// 4. the listener closes.
	tickDone.Wait()
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Errorf("toplistsd: drain: %v", err)
	}

	// Snapshot on the way out so the next process resumes where this one
	// stopped. An aborted study refuses (its sinks are torn) — that is
	// reported, not fatal, and never damages the previous generation.
	if ckptDir != nil {
		if _, _, err := srv.writeCheckpoint(); err != nil {
			log.Errorf("toplistsd: shutdown checkpoint: %v", err)
		}
	}

	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err == nil {
			err = tracer.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			log.Errorf("toplistsd: trace: %v", err)
		} else {
			log.Infof("trace written to %s (%d events, %d dropped)", *tracePath, tracer.Len(), tracer.Dropped())
		}
	}
}

// openStudy builds the resident study: recovery from the checkpoint
// directory's newest intact generation, else a fresh day-zero study built
// from cfg.
// Recovery failure other than "nothing there yet" is fatal on purpose:
// generations existed and none restored, and silently starting over
// would discard the month.
func openStudy(cfg core.Config, ckptDir *snapshot.Dir, log *obs.Logger) (*core.Study, error) {
	if ckptDir != nil {
		rec, err := core.Recover(ckptDir, core.ResumeOptions{Workers: cfg.Workers, Obs: cfg.Obs}, log)
		switch {
		case err == nil:
			log.Infof("recovered generation %s at day %d/%d (%d candidate(s), %d rejected)",
				rec.Gen.Name(), rec.Study.Day(), rec.Study.Cfg.Days, rec.Scanned, rec.Rejected)
			return rec.Study, nil
		case errors.Is(err, core.ErrNoCheckpoint):
			log.Infof("checkpoint directory empty; starting fresh")
		default:
			return nil, err
		}
	}

	start := time.Now()
	study := core.NewStudy(cfg)
	log.Infof("%s (built in %v)", study.Describe(), time.Since(start).Round(time.Millisecond))
	return study, nil
}
