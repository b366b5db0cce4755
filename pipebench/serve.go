package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"toplists/internal/core"
)

const (
	// serveDays is toplistsd's -days: more days than a run advances, so
	// the study never completes while it serves.
	serveDays = 64
	// readInterval paces the open-loop reads at 500/s.
	readInterval = 2 * time.Millisecond
	// advanceInterval paces the writer's POST /v1/advance.
	advanceInterval = time.Second
	// checkpointEvery is how many advances the writer makes per POST
	// /v1/checkpoint.
	checkpointEvery = 5
	// loadConnections counts the load's connections: the writer's and the
	// reader's.
	loadConnections = 2
	// lateLimit is the generator lateness (p99) above which a run is
	// flagged as one where the load generator fell behind its schedule.
	lateLimit = 5 * time.Millisecond
	// stopTimeout bounds a server's graceful shutdown before it is killed.
	stopTimeout = time.Minute
)

// Write kinds, numbered after the read kinds.
const (
	opAdvance = readDiff + 1 + iota
	opCheckpoint
)

// op is one timed request of the load.
type op struct {
	kind            int
	due, sent, done time.Time
	ok              bool
}

// round is what one toplistsd lifetime measured.
type round struct {
	setup, wall, evaluate time.Duration
	rssMB                 float64
	events                int64 // engine events the load's advances simulated
	published             int   // days published when the load stopped
	reads, writes         []op
	late                  []float64 // per read: how late the generator sent it, ms
	sentOnTime            int       // reads sent before the load window closed
}

// server is one running toplistsd process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	spawned time.Time
	exited  chan error
	stopped bool
}

// startServer spawns toplistsd on a free port, with a fresh checkpoint
// directory under dir, and waits until it listens.
func startServer(o options, dir string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(filepath.Join(o.bin, "toplistsd"),
		"-addr", "localhost:0", "-readyfile", addrFile, "-quiet",
		"-seed", strconv.FormatUint(o.seed, 10),
		"-sites", strconv.Itoa(o.scale.sites), "-clients", strconv.Itoa(o.scale.clients),
		"-days", strconv.Itoa(serveDays), "-workers", "1",
		"-checkpoint", filepath.Join(dir, "checkpoints"))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	s := &server{cmd: cmd, spawned: time.Now(), exited: make(chan error, 1)}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start toplistsd: %w", err)
	}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.After(2 * time.Minute)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			s.base = "http://" + string(b)
			return s, nil
		}
		select {
		case err := <-s.exited:
			s.stopped = true
			return nil, fmt.Errorf("toplistsd exited before serving: %v", err)
		case <-deadline:
			s.kill()
			return nil, errors.New("toplistsd did not start serving within 2 minutes")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop shuts the server down gracefully — SIGTERM makes it drain and write
// its final checkpoint — and waits for it to exit, killing it after
// stopTimeout.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	// A failed signal means the process already exited; Wait reports how.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("toplistsd: %w", err)
		}
		return nil
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("toplistsd did not stop within a minute and was killed")
	}
}

// kill ends the server at once, if it still runs, and waits for it.
func (s *server) kill() {
	if s.stopped {
		return
	}
	s.stopped = true
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// newClient returns an HTTP client that keeps one connection open.
func newClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// fetch sends one request and returns the body of a 200 response; a
// transport error or any other status is an error.
func fetch(c *http.Client, method, url string) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// serverEvents reads the server's engine event count from GET /metrics.
func serverEvents(c *http.Client, base string) (int64, error) {
	body, err := fetch(c, http.MethodGet, base+"/metrics")
	if err != nil {
		return 0, err
	}
	var rep struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, fmt.Errorf("decode /metrics: %w", err)
	}
	n := rep.Counters
	return n["engine.events.pageload"] + n["engine.events.dnsquery"] + n["engine.events.botbatch"], nil
}

// roundWindow is each round's load window: --seconds split evenly.
func roundWindow(o options) time.Duration {
	return time.Duration(o.seconds / float64(o.scale.rounds) * float64(time.Second))
}

// runRound is one server lifetime: spawn it and publish the first day, run
// the open-loop mix for the window, evaluate every published list, and
// shut it down.
func runRound(o options, n int, ids *identity, rep *report, rec *recorder) (round, error) {
	var r round
	dir, err := os.MkdirTemp(o.out, "serve-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	defer rec.span("toplistsd.round")()

	endSetup := rec.span("toplistsd.setup")
	srv, err := startServer(o, dir)
	if err != nil {
		return r, err
	}
	defer srv.kill()
	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	if _, err := fetch(writer, http.MethodPost, srv.base+"/v1/advance"); err != nil {
		return r, fmt.Errorf("round %d: first advance: %w", n, err)
	}
	if _, err := fetch(reader, http.MethodGet, srv.base+"/readyz"); err != nil {
		return r, fmt.Errorf("round %d: not ready after the first day: %w", n, err)
	}
	r.setup = time.Since(srv.spawned)
	rep.attempted += 2
	endSetup()

	ev0, err := serverEvents(reader, srv.base)
	if err != nil {
		return r, err
	}
	endLoad := rec.span("toplistsd.load")
	loadMix(&r, srv.base, writer, reader, roundWindow(o), rand.New(rand.NewPCG(o.seed, uint64(n)+3)), o.corrupt, ids, rep, rec)
	endLoad()
	ev1, err := serverEvents(reader, srv.base)
	if err != nil {
		return r, err
	}
	r.events = ev1 - ev0

	endEval := rec.span("toplistsd.evaluate")
	t := time.Now()
	sweep(reader, srv.base, r.published, ids, rep)
	r.evaluate = time.Since(t)
	endEval()

	if r.rssMB, err = peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid)); err != nil {
		return r, err
	}
	endStop := rec.span("toplistsd.shutdown")
	err = srv.stop()
	endStop()
	r.wall = time.Since(srv.spawned)
	return r, err
}

// loadMix drives the open-loop mix for window. On the reader's connection
// a read is due every readInterval; on the writer's, a POST /v1/advance
// every advanceInterval (the first half an interval in) and a POST
// /v1/checkpoint after every checkpointEvery advances. Every request is
// timed from its due time, so reads queued behind a stalled one carry the
// wait. With corrupt set, one repeated read's body is altered on purpose.
func loadMix(r *round, base string, writer, reader *http.Client, window time.Duration, rng *rand.Rand,
	corrupt bool, ids *identity, rep *report, rec *recorder) {
	var published atomic.Int64
	published.Store(1)
	start := time.Now()
	closeAt := start.Add(window)

	var wg sync.WaitGroup
	var writes []op
	var writeErrs []error
	wg.Add(1)
	go func() {
		defer wg.Done()
		send := func(path string, kind int, due time.Time) {
			sent := time.Now()
			_, err := fetch(writer, http.MethodPost, base+path)
			w := op{kind: kind, due: due, sent: sent, done: time.Now(), ok: err == nil}
			writes = append(writes, w)
			if err != nil {
				writeErrs = append(writeErrs, err)
			}
			rec.detail("toplistsd."+path[len("/v1/"):], 2, due, w.done.Sub(due))
		}
		for i := 0; ; i++ {
			due := start.Add(advanceInterval/2 + time.Duration(i)*advanceInterval)
			if !due.Before(closeAt) {
				return
			}
			time.Sleep(time.Until(due))
			send("/v1/advance", opAdvance, due)
			if writes[len(writes)-1].ok {
				published.Add(1)
			}
			if (i+1)%checkpointEvery == 0 {
				send("/v1/checkpoint", opCheckpoint, time.Now())
			}
		}
	}()

	var failed int
	var firstErr error
	var prevDone time.Time
	for i := 0; i < int(window/readInterval); i++ {
		due := start.Add(time.Duration(i) * readInterval)
		time.Sleep(time.Until(due))
		q := drawRead(rng, i, int(published.Load()))
		sent := time.Now()
		body, err := fetch(reader, http.MethodGet, base+q.path())
		done := time.Now()
		if err == nil && corrupt && ids.has(q.path()) {
			body = append(body, '!')
			corrupt = false
		}
		if err == nil && !ids.check(q.path(), body) {
			err = fmt.Errorf("GET %s: response differs from an earlier read", q.path())
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
		r.reads = append(r.reads, op{kind: q.kind, due: due, sent: sent, done: done, ok: err == nil})
		r.late = append(r.late, ms(max(min(sent.Sub(due), sent.Sub(prevDone)), 0)))
		if sent.Before(closeAt) {
			r.sentOnTime++
		}
		prevDone = done
		rec.detail("toplistsd.read", 1, due, done.Sub(due))
	}
	wg.Wait()
	r.writes = writes
	r.published = int(published.Load())
	rep.attempted += len(r.reads) + len(writes)
	rep.failed += failed + len(writeErrs)
	if failed > 0 {
		rep.notef("FAILED: %d of %d reads, first: %v", failed, len(r.reads), firstErr)
	}
	if len(writeErrs) > 0 {
		rep.notef("FAILED: %d of %d writes, first: %v", len(writeErrs), len(writes), writeErrs[0])
	}
}

// sweep is the evaluation a client comparing the lists runs once the load
// stops: every published list in full, and its day-over-day top-100 diff,
// one request at a time, each checked against earlier reads of it.
func sweep(c *http.Client, base string, days int, ids *identity, rep *report) {
	for d := 0; d < days; d++ {
		for _, l := range readLists {
			for _, path := range []string{
				fmt.Sprintf("/v1/rankings/%s?day=%d&k=0", l, d),
				readQuery{kind: readDiff, list: l, day: d}.path(),
			} {
				body, err := fetch(c, http.MethodGet, base+path)
				if err == nil && !ids.check(path, body) {
					err = errors.New("response differs from an earlier read")
				}
				rep.check(err == nil, "evaluation GET %s: %v", path, err)
			}
		}
	}
}

// serveRounds runs the configured number of server lifetimes, numbered
// from first.
func serveRounds(o options, first int, ids *identity, rep *report, rec *recorder) ([]round, error) {
	var rounds []round
	for n := first; n < first+o.scale.rounds; n++ {
		r, err := runRound(o, n, ids, rep, rec)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// measureServe runs serve-mixed untraced and reports its end-to-end
// metrics: medians over the rounds, latency percentiles over every request
// of the run.
func measureServe(o options, rep *report) error {
	rounds, err := serveRounds(o, 1, newIdentity(), rep, nil)
	if err != nil {
		return err
	}
	var setups, walls, evals, rss, reads, advances []float64
	var events int64
	var advancing time.Duration
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		evals = append(evals, r.evaluate.Seconds())
		rss = append(rss, r.rssMB)
		for _, rd := range r.reads {
			reads = append(reads, ms(rd.done.Sub(rd.due)))
		}
		for _, w := range r.writes {
			if w.kind == opAdvance {
				advances = append(advances, ms(w.done.Sub(w.due)))
				advancing += w.done.Sub(w.sent)
			}
		}
		events += r.events
	}
	rep.set("setup_s", median(setups))
	rep.set("wall_s", median(walls))
	rep.set("events_per_s", float64(events)/advancing.Seconds())
	rep.set("evaluate_s", median(evals))
	rep.set("peak_rss_mb", median(rss))
	rep.set("read_p50_ms", quantile(reads, 0.5))
	rep.set("read_p99_ms", quantile(reads, 0.99))
	rep.set("advance_p50_ms", quantile(advances, 0.5))
	rep.notef("serve-mixed: %d server lifetimes, %d reads and %d advances in all", len(rounds), len(reads), len(advances))
	loadHealth(rep, rounds, false)
	return nil
}

// loadHealth reports how well the load generator kept its schedule:
// reads due against reads sent before each window closed, its own
// lateness (p99 of how long after max(due time, previous reply) each read
// went out), and the connection count. A run where it fell behind is
// flagged.
func loadHealth(rep *report, rounds []round, traced bool) {
	var due, sent int
	var late []float64
	for _, r := range rounds {
		due += len(r.reads)
		sent += r.sentOnTime
		late = append(late, r.late...)
	}
	lateP99 := quantile(late, 0.99)
	behind := lateP99 > ms(lateLimit)
	rep.notef("loadgen: %d of %d reads sent before their window closed, generator late p99 %.3f ms, %d connections",
		sent, due, lateP99, loadConnections)
	if behind {
		rep.notef("WARNING: the load generator fell behind (late p99 %.3f ms > %v); this run's read latencies overstate the server's",
			lateP99, lateLimit)
	}
	if traced {
		rep.set("loadgen.late_p99_ms", lateP99)
		rep.set("loadgen.due", float64(due))
		rep.set("loadgen.sent", float64(sent))
		rep.set("loadgen.connections", loadConnections)
		if behind {
			rep.set("loadgen.behind", 1)
		}
	}
}

// traceServe is the traced run of serve-mixed: one untraced round for the
// tracing overhead, the traced rounds, then the server's study replayed in
// process through the traced pipeline for the per-layer breakdown.
func traceServe(o options, rep *report) error {
	ids := newIdentity()
	untraced, err := runRound(o, 0, ids, rep, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	rounds, err := serveRounds(o, 1, ids, rep, rec)
	if err != nil {
		return err
	}
	setServeLayerMetrics(rep, rounds)
	loadHealth(rep, rounds, true)

	// The server's study: the same configuration on the serial engine
	// path, simulated for as many days as a round publishes.
	cfg := core.Config{Seed: o.seed, NumSites: o.scale.sites, NumClients: o.scale.clients, Days: serveDays, Workers: 1}
	if _, err := tracePipeline(context.Background(), pipeline{cfg: cfg, days: rounds[0].published}, rec, rep, false); err != nil {
		return err
	}
	var walls []float64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
	}
	rep.set("trace.overhead_share", median(walls)/untraced.wall.Seconds()-1)
	rep.notef("tracing overhead: %.3fs median traced server lifetime vs %.3fs untraced", median(walls), untraced.wall.Seconds())
	return finishTrace(o, rec, rep)
}

// setServeLayerMetrics reports the client-side toplistsd metrics: latency
// by endpoint, and reads that overlapped an advance against those that
// did not.
func setServeLayerMetrics(rep *report, rounds []round) {
	var rankings, diffs, checkpoints, quiet []float64
	var stalled, total int
	for _, r := range rounds {
		var advancing [][2]time.Time
		for _, w := range r.writes {
			if w.kind == opAdvance {
				advancing = append(advancing, [2]time.Time{w.sent, w.done})
			} else {
				checkpoints = append(checkpoints, ms(w.done.Sub(w.sent)))
			}
		}
		for _, rd := range r.reads {
			lat := ms(rd.done.Sub(rd.due))
			if rd.kind == readDiff {
				diffs = append(diffs, lat)
			} else {
				rankings = append(rankings, lat)
			}
			total++
			if overlaps(rd.due, rd.done, advancing) {
				stalled++
			} else {
				quiet = append(quiet, lat)
			}
		}
	}
	rep.set("toplistsd.rankings_p50_ms", quantile(rankings, 0.5))
	rep.set("toplistsd.rankings_p99_ms", quantile(rankings, 0.99))
	rep.set("toplistsd.diff_p50_ms", quantile(diffs, 0.5))
	rep.set("toplistsd.checkpoint_p50_ms", quantile(checkpoints, 0.5))
	rep.set("toplistsd.read_quiet_p99_ms", quantile(quiet, 0.99))
	rep.set("toplistsd.read_stalled_share", float64(stalled)/float64(max(total, 1)))
}

// overlaps reports whether [a, b] intersects any of spans.
func overlaps(a, b time.Time, spans [][2]time.Time) bool {
	for _, s := range spans {
		if a.Before(s[1]) && s[0].Before(b) {
			return true
		}
	}
	return false
}
