package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"toplists/internal/core"
	"toplists/internal/experiments"
)

const (
	// measuredWorkers is the simulation and evaluation pool width of the
	// measured study runs, the CLI's -workers 2.
	measuredWorkers = 2
	// minStudyRuns is the fewest measured study runs an invocation makes,
	// however short --seconds is, so every median has three samples.
	minStudyRuns = 3
)

// studyWorkload is one batch-study workload: a study configuration and the
// experiments evaluated on it.
type studyWorkload struct {
	name   string
	sketch bool
	days   func(scale) int
	ids    []string // experiments evaluated and rendered, in order
	probes bool     // whether they run the httpsim probe sweep
}

var studyWorkloads = map[string]studyWorkload{
	// study-exact is `toplists -experiment all`: every paper experiment and
	// extension on the exact aggregation path. It alone runs the probe
	// sweep and the exact per-event replay of the parallel engine path.
	"study-exact": {name: "study-exact", days: func(s scale) int { return s.exactDays },
		ids: experimentIDs(), probes: true},
	// study-sketch moves the work to the sketch sinks' day-barrier merges
	// and evaluates only the experiments that never probe.
	"study-sketch": {name: "study-sketch", sketch: true, days: func(s scale) int { return s.sketchDays },
		ids: []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "tab2", "tab3", "stability", "vantages"}},
}

// experimentIDs lists what `toplists -experiment all` runs, in its order:
// the paper's artifacts, then the extensions.
func experimentIDs() []string {
	var ids []string
	for _, r := range append(experiments.All(), experiments.Extensions()...) {
		ids = append(ids, r.ID)
	}
	return ids
}

// config is the study the CLI builds for this workload.
func (w studyWorkload) config(o options, workers int) core.Config {
	cfg := core.Config{Seed: o.seed, NumSites: o.scale.sites, NumClients: o.scale.clients,
		Days: w.days(o.scale), TrackAllCombos: true, Workers: workers}
	cfg.Sketch.Enabled = w.sketch
	return cfg
}

func (w studyWorkload) runners() []experiments.Runner {
	rs := make([]experiments.Runner, len(w.ids))
	for i, id := range w.ids {
		r, ok := experiments.Lookup(id)
		if !ok {
			panic("pipebench: unknown experiment " + id)
		}
		rs[i] = r
	}
	return rs
}

// studyRun is what a child process reports about one study run.
type studyRun struct {
	SHA        string    `json:"sha"`
	SetupS     float64   `json:"setup_s"`
	SimulateS  float64   `json:"simulate_s"`
	EvaluateS  float64   `json:"evaluate_s"`
	WallS      float64   `json:"wall_s"`
	Events     int64     `json:"events"`
	AdvanceMS  []float64 `json:"advance_ms"`
	ReadP50MS  float64   `json:"read_p50_ms"`
	ReadP99MS  float64   `json:"read_p99_ms"`
	Reads      int       `json:"reads"`
	ReadFailed int       `json:"read_failed"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
}

// runChild runs one study in this process and prints its studyRun.
func runChild(o options) error {
	w, ok := studyWorkloads[o.workload]
	if !ok {
		return fmt.Errorf("no study workload %q", o.workload)
	}
	run, err := runStudy(context.Background(), o, w, o.workers, o.child == "measure")
	if err != nil {
		return err
	}
	if run.PeakRSSMB, err = peakRSSMB("self"); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(run)
}

// runStudy runs one untraced study the way a user does — build, advance
// every day, evaluate and render — timing each phase. With reads set it
// then reads published rankings in process.
func runStudy(ctx context.Context, o options, w studyWorkload, workers int, reads bool) (studyRun, error) {
	var run studyRun
	start := time.Now()
	st := core.NewStudy(w.config(o, workers))
	defer st.Close()
	run.SetupS = time.Since(start).Seconds()

	simStart := time.Now()
	for st.Day() < st.Cfg.Days {
		t := time.Now()
		if err := st.AdvanceDay(ctx); err != nil {
			return run, fmt.Errorf("advance day %d: %w", st.Day(), err)
		}
		run.AdvanceMS = append(run.AdvanceMS, ms(time.Since(t)))
	}
	run.SimulateS = time.Since(simStart).Seconds()
	c := st.Metrics().Snapshot().Counters
	run.Events = c["engine.events.pageload"] + c["engine.events.dnsquery"] + c["engine.events.botbatch"]

	evalStart := time.Now()
	sha, err := render(experiments.RunConcurrent(ctx, st, w.runners(), workers), o.corrupt)
	if err != nil {
		return run, err
	}
	run.SHA = sha
	run.EvaluateS = time.Since(evalStart).Seconds()
	run.WallS = time.Since(start).Seconds()

	if reads {
		// Collect the evaluation's garbage first, so the reads are not
		// timed against a background collection of it.
		runtime.GC()
		run.ReadP50MS, run.ReadP99MS, run.ReadFailed = readRankings(st, o.seed, o.scale.reads)
		run.Reads = o.scale.reads
	}
	return run, nil
}

// render writes the outcomes, in order and each followed by a blank line
// (exactly what `toplists -experiment all` prints), into a SHA-256 digest.
// corrupt perturbs the rendered bytes.
func render(outs []experiments.Outcome, corrupt bool) (string, error) {
	h := sha256.New()
	for _, oc := range outs {
		if oc.Err != nil {
			return "", fmt.Errorf("experiment %s: %w", oc.Runner.ID, oc.Err)
		}
		if err := oc.Result.Render(h); err != nil {
			return "", fmt.Errorf("render %s: %w", oc.Runner.ID, err)
		}
		h.Write([]byte("\n"))
	}
	if corrupt {
		h.Write([]byte("corrupted"))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// readRankings reads n rankings of the read mix from the finished study in
// process — core.Study.RankingFor, the library call behind toplistsd's
// read endpoints — and returns the latency p50 and p99 in ms and how many
// reads failed or did not repeat byte for byte.
func readRankings(st *core.Study, seed uint64, n int) (p50, p99 float64, failed int) {
	rng := rand.New(rand.NewPCG(seed, 2))
	ids := newIdentity()
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		q := drawRead(rng, i, st.Day())
		t := time.Now()
		body, err := readInProcess(st, q)
		lat = append(lat, ms(time.Since(t)))
		if err != nil || !ids.check(q.path(), body) {
			failed++
		}
	}
	return quantile(lat, 0.5), quantile(lat, 0.99), failed
}

// readInProcess answers q from the study: the top k names, or the names
// that entered and left the top k since the previous day, JSON-encoded.
func readInProcess(st *core.Study, q readQuery) ([]byte, error) {
	to, err := st.RankingFor(q.list, q.day)
	if err != nil {
		return nil, err
	}
	if q.kind != readDiff {
		names := to.Names()
		if q.k() < len(names) {
			names = names[:q.k()]
		}
		return json.Marshal(names)
	}
	from, err := st.RankingFor(q.list, q.from())
	if err != nil {
		return nil, err
	}
	fromSet, toSet := from.TopSet(q.k()), to.TopSet(q.k())
	var entered, left []string
	for i := 1; i <= min(q.k(), to.Len()); i++ {
		if _, ok := fromSet[to.At(i)]; !ok {
			entered = append(entered, to.At(i))
		}
	}
	for i := 1; i <= min(q.k(), from.Len()); i++ {
		if _, ok := toSet[from.At(i)]; !ok {
			left = append(left, from.At(i))
		}
	}
	return json.Marshal([2][]string{entered, left})
}

// spawnStudy runs one study in a fresh child process and decodes its run.
func spawnStudy(o options, w studyWorkload, mode string, workers int) (studyRun, error) {
	self, err := os.Executable()
	if err != nil {
		return studyRun{}, err
	}
	args := []string{"-child", mode, "-workers", strconv.Itoa(workers), "-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10), "-scale", o.scaleName}
	if o.corrupt && mode == "measure" {
		args = append(args, "-corrupt")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return studyRun{}, fmt.Errorf("%s study child: %w", mode, err)
	}
	var r studyRun
	if err := json.Unmarshal(out, &r); err != nil {
		return studyRun{}, fmt.Errorf("%s study child: %w", mode, err)
	}
	return r, nil
}

// measureStudy runs the reference study (one worker: the serial engine and
// evaluation paths), then measured runs of the workload, each in a fresh
// process, for --seconds and at least minStudyRuns times. Every measured
// run must render byte-identically to the reference. It reports medians.
func measureStudy(o options, w studyWorkload, rep *report) error {
	ref, err := spawnStudy(o, w, "ref", 1)
	if err != nil {
		return err
	}
	setups := []float64{ref.SetupS}
	var walls, evals, rates, rss, advances, p50s, p99s []float64
	start := time.Now()
	for n := 1; n <= minStudyRuns || time.Since(start).Seconds() < o.seconds; n++ {
		r, err := spawnStudy(o, w, "measure", measuredWorkers)
		if err != nil {
			return err
		}
		rep.check(r.SHA == ref.SHA, "run %d: rendered output sha256 %s differs from the 1-worker reference %s", n, r.SHA, ref.SHA)
		rep.attempted += r.Reads
		rep.failed += r.ReadFailed
		if r.ReadFailed > 0 {
			rep.notef("FAILED: run %d: %d of %d ranking reads failed or did not repeat byte for byte", n, r.ReadFailed, r.Reads)
		}
		setups = append(setups, r.SetupS)
		walls = append(walls, r.WallS)
		evals = append(evals, r.EvaluateS)
		rates = append(rates, float64(r.Events)/r.SimulateS)
		rss = append(rss, r.PeakRSSMB)
		advances = append(advances, quantile(r.AdvanceMS, 0.5))
		p50s = append(p50s, r.ReadP50MS)
		p99s = append(p99s, r.ReadP99MS)
	}
	rep.set("setup_s", median(setups))
	rep.set("wall_s", median(walls))
	rep.set("events_per_s", median(rates))
	rep.set("evaluate_s", median(evals))
	rep.set("peak_rss_mb", median(rss))
	rep.set("read_p50_ms", median(p50s))
	rep.set("read_p99_ms", median(p99s))
	rep.set("advance_p50_ms", median(advances))
	rep.notef("%s: %d runs at %d workers, each in a fresh process, all checked against a 1-worker reference; "+
		"medians over runs (setup_s also over the reference); %d reads per run", w.name, len(walls), measuredWorkers, o.scale.reads)
	return nil
}

// traceStudy is the traced run of a study workload: the reference and one
// untraced run in child processes, then the traced pipeline in this one.
func traceStudy(o options, w studyWorkload, rep *report) error {
	ref, err := spawnStudy(o, w, "ref", 1)
	if err != nil {
		return err
	}
	untraced, err := spawnStudy(o, w, "measure", measuredWorkers)
	if err != nil {
		return err
	}
	rep.check(untraced.SHA == ref.SHA, "untraced run: rendered output sha256 %s differs from the reference %s", untraced.SHA, ref.SHA)

	rec := newRecorder()
	p := pipeline{cfg: w.config(o, measuredWorkers), days: w.days(o.scale), runners: w.runners(), probes: w.probes}
	out, err := tracePipeline(context.Background(), p, rec, rep, o.corrupt)
	if err != nil {
		return err
	}
	rep.check(out.sha == ref.SHA, "traced run: rendered output sha256 %s differs from the reference %s", out.sha, ref.SHA)
	rep.set("trace.overhead_share", out.comparable.Seconds()/untraced.WallS-1)
	rep.notef("tracing overhead: %.3fs traced vs %.3fs untraced for build, simulate, evaluate and render",
		out.comparable.Seconds(), untraced.WallS)
	return finishTrace(o, rec, rep)
}
