package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"toplists/internal/core"
	"toplists/internal/experiments"
	"toplists/internal/linkgraph"
	"toplists/internal/simrand"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// speedupDays is how many days a traced run times at the other worker
// count for traffic.speedup_w2.
const speedupDays = 4

// pipeline is the in-process pipeline a traced run drives.
type pipeline struct {
	cfg     core.Config
	days    int                  // days to simulate, at most cfg.Days
	runners []experiments.Runner // evaluated after the simulation, if any
	probes  bool                 // whether the runners probe
}

// traced is what tracePipeline returns besides the metrics it sets.
type traced struct {
	sha        string        // digest of the rendered evaluation
	comparable time.Duration // the spans an untraced study run also spends
}

// tracePipeline drives the pipeline through each layer's public functions
// with a span around every call, and sets the per-layer metrics. It does
// what core.Study.AdvanceDay does — Engine.AdvanceDay, then the amalgams'
// ComputeDay — with the study's sinks wrapped in timers; the caller checks
// the rendered output against the reference, which proves the two
// equivalent.
func tracePipeline(ctx context.Context, p pipeline, rec *recorder, rep *report, corrupt bool) (traced, error) {
	var out traced
	workers := p.cfg.Workers
	altWorkers := 1
	if workers == 1 {
		altWorkers = 2
	}
	altDays, err := engineDays(ctx, p.cfg, altWorkers, min(p.days, speedupDays), rec)
	if err != nil {
		return out, err
	}

	endSetup := rec.span("bench.setup")
	end := rec.span("world.generate")
	w := world.Generate(world.Config{Seed: p.cfg.Seed, NumSites: p.cfg.NumSites, Backends: 1, Vantages: world.DefaultVantages(1)})
	end()
	end = rec.span("linkgraph.build")
	linkgraph.Build(w, linkgraph.Config{}, simrand.New(p.cfg.Seed).Derive("linkgraph"))
	end()
	end = rec.span("core.new_study")
	st := core.NewStudy(p.cfg)
	end()
	defer st.Close()
	end = rec.span("traffic.new_engine")
	eng := traffic.NewEngine(st.World, engineConfig(st))
	end()
	sinks := make([]*timedSink, len(sinkNames))
	for i, s := range []traffic.Sink{st.Pipeline, st.Telemetry, st.Alexa, st.Umbrella, st.Secrank} {
		var wrapped traffic.Sink
		wrapped, sinks[i] = timeSink(sinkNames[i], s, rec)
		eng.AddSink(wrapped)
	}
	eng.SetObs(st.Metrics())
	st.Engine = eng
	end = rec.span("traffic.new_engine.clients")
	clients := traffic.NewEngine(st.World, engineConfig(st))
	clients.AddSink(traffic.BaseSink{})
	end()
	endSetup()
	for _, name := range []string{"world.generate", "linkgraph.build", "traffic.new_engine"} {
		rep.set(name+"_s", rec.durations(name)[0])
	}

	endSim := rec.span("bench.simulate")
	for d := 0; d < p.days; d++ {
		end = rec.span("traffic.clients_day")
		err := clients.AdvanceDay(ctx)
		end()
		if err != nil {
			return out, fmt.Errorf("clients-only day %d: %w", d, err)
		}
		end = rec.span("traffic.day")
		err = eng.AdvanceDay(ctx)
		end()
		if err != nil {
			return out, fmt.Errorf("day %d: %w", d, err)
		}
		end = rec.span("providers.tranco.compute_day")
		st.Tranco.ComputeDay(d)
		end()
		end = rec.span("providers.trexa.compute_day")
		st.Trexa.ComputeDay(d)
		end()
	}
	if p.days == st.Cfg.Days {
		// Every day has run, so RunContext only finalizes the study.
		end = rec.span("core.finalize")
		err := st.RunContext(ctx)
		end()
		if err != nil {
			return out, fmt.Errorf("finalize: %w", err)
		}
	}
	endSim()
	clients = nil
	setDayMetrics(rep, rec, sinks, altDays, workers)
	c := st.Metrics().Snapshot()
	rep.set("traffic.events.pageload", float64(c.Counters["engine.events.pageload"]))
	rep.set("traffic.events.dnsquery", float64(c.Counters["engine.events.dnsquery"]))
	rep.set("traffic.events.botrequests", float64(c.Counters["engine.events.botrequests"]))
	var sketchMem int64
	for name, v := range c.Gauges {
		if strings.HasPrefix(name, "sketch.") && strings.HasSuffix(name, ".mem_peak_bytes") {
			sketchMem += v
		}
	}
	rep.set("sketch.mem_peak_bytes", float64(sketchMem))

	end = rec.span("bench.gc")
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	end()
	rep.set("heap.after_simulate_mb", float64(mem.HeapAlloc)/1e6)

	var snap bytes.Buffer
	end = rec.span("snapshot.encode")
	err = st.Snapshot(&snap)
	end()
	if err != nil {
		return out, fmt.Errorf("snapshot: %w", err)
	}
	rep.set("snapshot.encode_s", rec.durations("snapshot.encode")[0])
	rep.set("snapshot.bytes", float64(snap.Len()))
	snap = bytes.Buffer{}

	var comparable float64
	for _, name := range []string{"core.new_study", "traffic.day", "providers.tranco.compute_day",
		"providers.trexa.compute_day", "core.finalize"} {
		for _, d := range rec.durations(name) {
			comparable += d
		}
	}
	if len(p.runners) > 0 {
		if out.sha, err = traceEvaluation(ctx, st, p, rec, rep, corrupt); err != nil {
			return out, err
		}
		comparable += rec.durations("experiments.pool")[0] + rec.durations("experiments.render")[0]
	}
	out.comparable = time.Duration(comparable * float64(time.Second))
	return out, nil
}

// engineConfig is the traffic configuration core.NewStudy gives st's
// engine.
func engineConfig(st *core.Study) traffic.Config {
	return traffic.Config{Seed: st.Cfg.Seed + 1, NumClients: st.Cfg.NumClients, Days: st.Cfg.Days,
		Workers: st.Cfg.Workers, Sketch: st.Cfg.Sketch}
}

// engineDays builds a separate study at the given worker count, times its
// first k engine days (in seconds) and discards it.
func engineDays(ctx context.Context, cfg core.Config, workers, k int, rec *recorder) ([]float64, error) {
	defer rec.span("bench.speedup")()
	cfg.Workers = workers
	end := rec.span("core.new_study.alt")
	st := core.NewStudy(cfg)
	end()
	defer runtime.GC()
	defer st.Close()
	var out []float64
	for d := 0; d < k; d++ {
		end := rec.span("traffic.day.alt")
		t := time.Now()
		err := st.Engine.AdvanceDay(ctx)
		out = append(out, time.Since(t).Seconds())
		end()
		if err != nil {
			return nil, fmt.Errorf("day %d at %d workers: %w", d, workers, err)
		}
	}
	return out, nil
}

// setDayMetrics derives the per-day traffic, sink and amalgam metrics from
// the simulate spans: each is the median over the simulated days of that
// day's time in the call.
func setDayMetrics(rep *report, rec *recorder, sinks []*timedSink, altDays []float64, workers int) {
	days := rec.durations("traffic.day")
	clients := rec.durations("traffic.clients_day")
	rep.set("traffic.day_s", median(days))
	rep.set("traffic.clients_day_s", median(clients))
	own := median(days[:len(altDays)])
	w1, w2 := median(altDays), own
	if workers == 1 {
		w1, w2 = own, median(altDays)
	}
	rep.set("traffic.speedup_w2", w1/w2)

	// Sink time per day: the sink spans directly under each traffic.day.
	dayIdx := make(map[int]int)
	for i, s := range rec.spans {
		if s.name == "traffic.day" {
			dayIdx[i] = len(dayIdx)
		}
	}
	perDay := make([]map[string]float64, len(dayIdx))
	for i := range perDay {
		perDay[i] = make(map[string]float64)
	}
	for _, s := range rec.spans {
		if d, ok := dayIdx[s.parent]; ok {
			perDay[d][s.name] += (s.end - s.start).Seconds()
		}
	}
	replay := make([]float64, len(perDay))
	for d, m := range perDay {
		replay[d] = days[d] - clients[d]
		for _, v := range m {
			replay[d] -= v
		}
	}
	rep.set("traffic.replay_s", median(replay))
	for i, name := range sinkNames {
		var endDay, merge []float64
		for _, m := range perDay {
			endDay = append(endDay, m["sink."+name+".end_day"])
			merge = append(merge, m["sink."+name+".merge"])
		}
		rep.set("sink."+name+".end_day_s", median(endDay))
		rep.set("sink."+name+".merge_s", median(merge))
		rep.set("sink."+name+".events", float64(sinks[i].events))
	}
	rep.set("providers.tranco.compute_day_s", median(rec.durations("providers.tranco.compute_day")))
	rep.set("providers.trexa.compute_day_s", median(rec.durations("providers.trexa.compute_day")))
}

// traceEvaluation evaluates the study as the untraced run does (the pool,
// then the render), then times the probe sweep on a fresh artifact store,
// the serial evaluation set cold after Study.ResetArtifacts, and each
// experiment again on the warm store.
func traceEvaluation(ctx context.Context, st *core.Study, p pipeline, rec *recorder, rep *report, corrupt bool) (string, error) {
	endEval := rec.span("bench.evaluate")
	end := rec.span("experiments.pool")
	outcomes := experiments.RunConcurrent(ctx, st, p.runners, p.cfg.Workers)
	end()
	end = rec.span("experiments.render")
	sha, err := render(outcomes, corrupt)
	end()
	endEval()
	if err != nil {
		return "", err
	}
	pool := rec.durations("experiments.pool")[0]
	rep.set("experiments.render_s", rec.durations("experiments.render")[0])

	if p.probes {
		st.ResetArtifacts()
		before := st.Metrics().Snapshot().Counters
		end = rec.span("httpsim.probe_sweep")
		err := st.Artifacts().ProbeCF(ctx)
		end()
		if err != nil {
			return "", fmt.Errorf("probe sweep: %w", err)
		}
		after := st.Metrics().Snapshot().Counters
		rep.set("httpsim.probe_sweep_s", rec.durations("httpsim.probe_sweep")[0])
		probes := after["probe.probes"] - before["probe.probes"]
		rep.set("httpsim.probe.retry_ratio", float64(after["probe.attempts"]-before["probe.attempts"])/float64(max(probes, 1)))
	}

	st.ResetArtifacts()
	hits0, misses0 := cacheCounts(st)
	end = rec.span("core.artifacts.cold")
	err = runSerial(ctx, st, p.runners, nil)
	end()
	if err != nil {
		return "", err
	}
	end = rec.span("core.artifacts.warm")
	err = runSerial(ctx, st, p.runners, rec)
	end()
	if err != nil {
		return "", err
	}
	hits1, misses1 := cacheCounts(st)
	cold := rec.durations("core.artifacts.cold")[0]
	rep.set("core.artifacts.cold_s", cold)
	rep.set("core.artifacts.warm_s", rec.durations("core.artifacts.warm")[0])
	rep.set("core.artifacts.hit_ratio", float64(hits1-hits0)/float64(max(hits1-hits0+misses1-misses0, 1)))
	for _, r := range p.runners {
		rep.set("experiments."+r.ID+"_s", rec.durations("experiments." + r.ID)[0])
	}
	rep.set("experiments.pool_efficiency", cold/(float64(p.cfg.Workers)*pool))
	return sha, nil
}

// runSerial runs each experiment in turn on this goroutine, each in its
// own span when rec is set.
func runSerial(ctx context.Context, st *core.Study, runners []experiments.Runner, rec *recorder) error {
	for _, r := range runners {
		end := rec.span("experiments." + r.ID)
		_, err := r.Run(ctx, st)
		end()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", r.ID, err)
		}
	}
	return nil
}

// cacheCounts sums the artifact store's hit and miss counters.
func cacheCounts(st *core.Study) (hits, misses int64) {
	c := st.Metrics().Snapshot().Counters
	for _, family := range []string{"norm", "combo", "monthly", "telemetry"} {
		hits += c["artifacts."+family+".hits"]
		misses += c["artifacts."+family+".misses"]
	}
	return hits, misses
}
