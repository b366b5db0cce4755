package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"toplists/internal/core"
	"toplists/internal/names"
	"toplists/internal/rank"
	"toplists/internal/snapshot"
)

func testStudy(t *testing.T, days int) *core.Study {
	t.Helper()
	s := core.NewStudy(core.Config{
		Seed:       31,
		NumSites:   300,
		NumClients: 60,
		Days:       days,
		Workers:    2,
	})
	t.Cleanup(s.Close)
	return s
}

// testDir opens a fresh checkpoint generation directory.
func testDir(t *testing.T) *snapshot.Dir {
	t.Helper()
	dir, err := snapshot.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func testServer(t *testing.T, s *core.Study, dir *snapshot.Dir) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(s, dir, 5, nil).handler())
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url string, wantCode int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d\n%s", method, url, resp.StatusCode, wantCode, body)
	}
	return body
}

// TestServerSmoke is the service-mode acceptance walk: start a study,
// advance three days over HTTP, read rankings and diffs, checkpoint to
// a generation directory, restore the newest generation into a second
// server, and require the restored service to report the identical
// resume-stable telemetry and rankings.
func TestServerSmoke(t *testing.T) {
	dir := testDir(t)
	s := testStudy(t, 4)
	ts := testServer(t, s, dir)

	var status statusResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/status", 200), &status); err != nil {
		t.Fatal(err)
	}
	if status.Day != 0 || status.Done || len(status.Lists) != 7 {
		t.Fatalf("fresh status: %+v", status)
	}

	// Liveness is unconditional; readiness needs a published day.
	do(t, "GET", ts.URL+"/healthz", 200)
	do(t, "GET", ts.URL+"/readyz", 503)

	// No day advanced yet: rankings must not serve, advance must.
	do(t, "GET", ts.URL+"/v1/rankings/Alexa", 404)
	do(t, "POST", ts.URL+"/v1/advance?days=3", 200)
	do(t, "GET", ts.URL+"/readyz", 200)

	var rk rankingsResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/rankings/Tranco?day=2&k=10", 200), &rk); err != nil {
		t.Fatal(err)
	}
	if rk.Day != 2 || rk.K != 10 || len(rk.Names) != 10 || rk.Total < 10 {
		t.Fatalf("rankings: %+v", rk)
	}

	var df diffResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/diff?list=Alexa&from=1&to=2&k=50", 200), &df); err != nil {
		t.Fatal(err)
	}
	if df.Jaccard < 0 || df.Jaccard > 1 || len(df.Entered) != len(df.Left) {
		t.Fatalf("diff: %+v", df)
	}

	// Bad requests answer 4xx, not 500.
	do(t, "GET", ts.URL+"/v1/rankings/NoSuchList", 404)
	do(t, "GET", ts.URL+"/v1/rankings/Alexa?day=99", 400)
	do(t, "GET", ts.URL+"/v1/rankings/Alexa?k=-1", 400)
	do(t, "GET", ts.URL+"/v1/diff?list=Alexa&k=0", 400)
	do(t, "GET", ts.URL+"/v1/diff?list=Alexa&k=-1", 400)
	do(t, "GET", ts.URL+"/v1/diff", 400)
	do(t, "POST", ts.URL+"/v1/advance?days=bogus", 400)

	var ck struct {
		Generation string `json:"generation"`
		Path       string `json:"path"`
		Bytes      int64  `json:"bytes"`
		Day        int    `json:"day"`
	}
	if err := json.Unmarshal(do(t, "POST", ts.URL+"/v1/checkpoint", 200), &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Generation != "study.snap.000001" || ck.Day != 3 || ck.Bytes < 1 {
		t.Fatalf("checkpoint response: %+v", ck)
	}
	stable := do(t, "GET", ts.URL+"/v1/report?stable=1", 200)

	gen, err := dir.Latest()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(gen.Path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.Resume(f, core.ResumeOptions{Workers: 1})
	f.Close()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer restored.Close()
	ts2 := testServer(t, restored, nil)

	if err := json.Unmarshal(do(t, "GET", ts2.URL+"/v1/status", 200), &status); err != nil {
		t.Fatal(err)
	}
	if status.Day != 3 || status.Done {
		t.Fatalf("restored status: %+v", status)
	}
	if got := do(t, "GET", ts2.URL+"/v1/report?stable=1", 200); !bytes.Equal(got, stable) {
		t.Fatalf("resume-stable report differs after restore:\n--- before ---\n%s\n--- after ---\n%s", stable, got)
	}
	want := do(t, "GET", ts.URL+"/v1/rankings/Umbrella?day=2&k=0", 200)
	if got := do(t, "GET", ts2.URL+"/v1/rankings/Umbrella?day=2&k=0", 200); !bytes.Equal(got, want) {
		t.Fatal("restored server serves a different Umbrella day 2")
	}

	// Finish both studies: the last day must finalize and further
	// advancement must answer 409.
	do(t, "POST", ts.URL+"/v1/advance", 200)
	do(t, "POST", ts.URL+"/v1/advance", 409)
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/status", 200), &status); err != nil {
		t.Fatal(err)
	}
	if !status.Done {
		t.Fatalf("status after final day: %+v", status)
	}
	do(t, "GET", ts.URL+"/v1/rankings/CrUX?day=3", 200)

	// A second checkpoint rotates to the next generation.
	do(t, "POST", ts.URL+"/v1/checkpoint", 200)
	gens, err := dir.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[1].Seq != 2 {
		t.Fatalf("generations after two checkpoints: %+v", gens)
	}
}

// TestServerUnroutableRankings: a rankings path whose list is not one
// clean path segment answers a JSON 404 like any other unknown list,
// instead of the mux's plain-text 404 or redirect.
func TestServerUnroutableRankings(t *testing.T) {
	h := newServer(testStudy(t, 2), nil, 5, nil).handler()
	for _, target := range []string{
		"/v1/rankings/", "/v1/rankings/..", "/v1/rankings/.", "/v1/rankings/%2F",
		"/v1/rankings/Alexa/", "/v1/rankings/Alexa//", "/v1/rankings/a/../Alexa?k=1",
	} {
		rec := serve(h, "GET", target)
		if rec.Code != http.StatusNotFound || !json.Valid(rec.Body.Bytes()) {
			t.Errorf("GET %s: status %d, body %q; want a JSON 404", target, rec.Code, rec.Body)
		}
	}
	if rec := serve(h, "POST", "/v1/rankings/Alexa"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/rankings/Alexa: status %d, want 405", rec.Code)
	}
}

// TestServerMuxErrorsAreJSON: requests no route serves get a JSON error
// with the right status (404 for an unknown or unclean path, 405 with an
// Allow header for a route path under another method), never the mux's
// plain-text answer or a redirect.
func TestServerMuxErrorsAreJSON(t *testing.T) {
	h := newServer(testStudy(t, 2), nil, 5, nil).handler()
	for _, c := range []struct {
		method, target string
		code           int
		allow          string
	}{
		{"GET", "/nope", http.StatusNotFound, ""},
		{"DELETE", "/nope", http.StatusNotFound, ""},
		{"GET", "/", http.StatusNotFound, ""},
		{"GET", "/v1/rankings", http.StatusNotFound, ""},
		{"GET", "/healthz/", http.StatusNotFound, ""},
		{"GET", "/v1//status", http.StatusNotFound, ""},
		{"GET", "/v1/./status", http.StatusNotFound, ""},
		{"GET", "/nope/../v1/status", http.StatusNotFound, ""},
		{"POST", "/v1/advance/", http.StatusNotFound, ""},
		{"POST", "/v1/rankings/Alexa", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"PUT", "/v1/status", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"GET", "/v1/advance", http.StatusMethodNotAllowed, "POST"},
		{"HEAD", "/v1/checkpoint", http.StatusMethodNotAllowed, "POST"},
	} {
		rec := serve(h, c.method, c.target)
		var body map[string]string
		if rec.Code != c.code || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body["error"] == "" {
			t.Errorf("%s %s: status %d, body %q; want a JSON %d error", c.method, c.target, rec.Code, rec.Body, c.code)
		}
		if got := rec.Header().Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.target, got, c.allow)
		}
	}
}

// TestServerCheckpointUnconfigured: without -checkpoint the endpoint is a
// clean 400.
func TestServerCheckpointUnconfigured(t *testing.T) {
	ts := testServer(t, testStudy(t, 2), nil)
	do(t, "POST", ts.URL+"/v1/checkpoint", 400)
}

// TestServerPanicRecovery: a panicking handler answers a JSON 500 and
// ticks the volatile http.panics counter; the process (and the study)
// keep serving.
func TestServerPanicRecovery(t *testing.T) {
	s := testStudy(t, 2)
	srv := newServer(s, nil, 5, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	mux.Handle("/", srv.routes())
	ts := httptest.NewServer(srv.withRecovery(mux))
	t.Cleanup(ts.Close)

	body := do(t, "GET", ts.URL+"/boom", 500)
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("panic response not a JSON error: %s", body)
	}
	do(t, "GET", ts.URL+"/v1/status", 200)
	if got := s.Metrics().Snapshot().Volatile["http.panics"]; got != 1 {
		t.Fatalf("http.panics = %d, want 1", got)
	}
	// Operational mishaps never reach the resume-stable subset.
	stable, err := s.Metrics().Snapshot().ResumeStable()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stable, []byte("http.")) {
		t.Fatalf("http.* counters leaked into the resume-stable subset:\n%s", stable)
	}
}

// TestServerWriteSemaphore: with every write slot held, advance and
// checkpoint answer 503 + Retry-After instead of queueing.
func TestServerWriteSemaphore(t *testing.T) {
	s := testStudy(t, 2)
	dir := testDir(t)
	srv := newServer(s, dir, 5, nil)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	for i := 0; i < writeSlots; i++ {
		srv.writeSem <- struct{}{}
	}
	for _, path := range []string{"/v1/advance", "/v1/checkpoint"} {
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s with saturated write path: %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s: 503 without Retry-After", path)
		}
	}
	if got := s.Metrics().Snapshot().Volatile["http.throttled"]; got != 2 {
		t.Fatalf("http.throttled = %d, want 2", got)
	}
	for i := 0; i < writeSlots; i++ {
		<-srv.writeSem
	}
	// Slots released: the write path serves again.
	do(t, "POST", ts.URL+"/v1/advance", 200)
}

// TestAdvanceCollects: a successful advance, over HTTP or from the tick
// loop, leaves a garbage collection started behind it, and a refused one
// does not. The collector's own pacing is off for the test, so only
// collectAfterAdvance can run a cycle.
func TestAdvanceCollects(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := testStudy(t, 2)
	srv := newServer(s, nil, 5, nil)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	// settled waits until no collection started by the server runs and
	// returns the number of completed cycles.
	settled := func() uint32 {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); srv.collecting.Load(); {
			if time.Now().After(deadline) {
				t.Fatal("collection started after an advance did not finish")
			}
			time.Sleep(time.Millisecond)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumGC
	}

	n := settled()
	do(t, "POST", ts.URL+"/v1/advance", 200)
	if next := settled(); next == n {
		t.Fatal("POST /v1/advance left no collection behind")
	} else {
		n = next
	}
	srv.tickLoop(context.Background(), time.Millisecond) // the final day
	if next := settled(); next == n {
		t.Fatal("the tick loop's advance left no collection behind")
	} else {
		n = next
	}
	do(t, "POST", ts.URL+"/v1/advance", http.StatusConflict)
	if next := settled(); next != n {
		t.Fatalf("a refused advance ran %d collection(s)", next-n)
	}
}

// TestTickLoopShutdown: the merged tick loop exits promptly on cancel
// with no goroutine stuck on a channel send (the bug the old split
// ticker/advancer had). Run under -race it also proves the loop and a
// concurrent reader share the study safely.
func TestTickLoopShutdown(t *testing.T) {
	s := testStudy(t, 3)
	srv := newServer(s, nil, 5, nil)
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.tickLoop(ctx, time.Millisecond)
	}()

	// Reader racing the ticker.
	for s.Day() < 1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.RankingFor("Tranco", 0); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tickLoop did not exit after cancel")
	}
	// The loop never cancels a day mid-flight: the study must not abort.
	if err := s.Aborted(); err != nil {
		t.Fatalf("tick loop aborted the study on shutdown: %v", err)
	}
}

// TestTickLoopRunsToCompletion: left alone, the loop finishes the study
// and exits on its own.
func TestTickLoopRunsToCompletion(t *testing.T) {
	s := testStudy(t, 2)
	srv := newServer(s, nil, 5, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.tickLoop(context.Background(), time.Millisecond)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("tickLoop did not complete the study")
	}
	if got := s.Day(); got != 2 {
		t.Fatalf("tick loop stopped at day %d, want 2", got)
	}
}

// TestParseCrashpoint pins the chaos-hook env format.
func TestParseCrashpoint(t *testing.T) {
	if n, off, ok := parseCrashpoint("3:4096"); !ok || n != 3 || off != 4096 {
		t.Fatalf("parseCrashpoint(3:4096) = %d %d %v", n, off, ok)
	}
	for _, bad := range []string{"", "3", ":4096", "0:1", "-1:5", "2:-1", "x:y"} {
		if _, _, ok := parseCrashpoint(bad); ok {
			t.Fatalf("parseCrashpoint(%q) accepted", bad)
		}
	}
}

// TestServerConcurrentReaders is the reader-consistency acceptance test,
// meaningful under -race: rankings, status, diff, and report readers
// hammer the API while days advance and checkpoints stream out. Every
// reader must observe a complete prior day — a served day is fully
// published, never mid-advancement. Write-path 503s are expected: the
// admission semaphore sheds load, it never corrupts it.
func TestServerConcurrentReaders(t *testing.T) {
	const days = 4
	dir := testDir(t)
	s := testStudy(t, days)
	ts := testServer(t, s, dir)
	do(t, "POST", ts.URL+"/v1/advance", 200)

	stopc := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopc:
					return
				default:
				}
				if err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	get := func(path string) (int, []byte, error) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}

	reader(func() error {
		code, b, err := get("/v1/rankings/Tranco?k=5")
		if err != nil || code != 200 {
			return fmt.Errorf("rankings: code %d err %v\n%s", code, err, b)
		}
		var rk rankingsResponse
		if err := json.Unmarshal(b, &rk); err != nil {
			return err
		}
		if rk.Day < 0 || rk.Day >= days || len(rk.Names) == 0 {
			return fmt.Errorf("rankings served a torn day: %+v", rk)
		}
		return nil
	})
	reader(func() error {
		code, b, err := get("/v1/status")
		if err != nil || code != 200 {
			return fmt.Errorf("status: code %d err %v\n%s", code, err, b)
		}
		return nil
	})
	reader(func() error {
		code, _, err := get("/v1/report?stable=1")
		if err != nil || code != 200 {
			return fmt.Errorf("report: code %d err %v", code, err)
		}
		return nil
	})
	reader(func() error {
		// Checkpoints race advancement: both must stay coherent. 503 is
		// load shedding (Retry-After), not an error.
		resp, err := http.Post(ts.URL+"/v1/checkpoint", "", nil)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 200 && resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("checkpoint: code %d", resp.StatusCode)
		}
		return nil
	})

	for d := 1; d < days; d++ {
		// Advance can also be shed while a checkpoint streams; retry.
		for {
			resp, err := http.Post(ts.URL+"/v1/advance", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == 200 {
				break
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("advance: code %d", resp.StatusCode)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stopc)
	wg.Wait()

	// The newest generation written under load is a coherent day
	// boundary: it must restore cleanly.
	gen, err := dir.Latest()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(gen.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := core.Resume(f, core.ResumeOptions{})
	if err != nil {
		t.Fatalf("checkpoint written under load failed to restore: %v", err)
	}
	restored.Close()
}

// multiEdgeServer starts a server over a 2-vantage, 2-backend study with
// two days already advanced, so edge rankings have data to serve.
func multiEdgeServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := core.NewStudy(core.Config{
		Seed:       33,
		NumSites:   300,
		NumClients: 60,
		Days:       3,
		Workers:    2,
		Vantages:   2,
		Backends:   2,
	})
	t.Cleanup(s.Close)
	ts := testServer(t, s, nil)
	do(t, "POST", ts.URL+"/v1/advance?days=2", 200)
	return ts
}

func TestServerVantages(t *testing.T) {
	ts := multiEdgeServer(t)
	var resp vantagesResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/vantages", 200), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Vantages) != 2 || len(resp.Backends) != 2 {
		t.Fatalf("grid = %d vantages x %d backends, want 2x2", len(resp.Vantages), len(resp.Backends))
	}
	if v := resp.Vantages[0]; v.Name != "global" || !v.Transparent {
		t.Fatalf("vantage 0 = %+v, want transparent global", v)
	}
	if v := resp.Vantages[1]; v.Name != "us-east" || v.Transparent {
		t.Fatalf("vantage 1 = %+v, want opaque us-east", v)
	}
	if resp.Backends[0] != "cdnflare" || resp.Backends[1] != "edgecast" {
		t.Fatalf("backends = %v", resp.Backends)
	}
	if len(resp.Metrics) != 7 {
		t.Fatalf("metrics = %v, want the seven canonical keys", resp.Metrics)
	}
}

func TestServerEdgeRankings(t *testing.T) {
	ts := multiEdgeServer(t)

	// The transparent primary edge's view equals the un-keyed metric: both
	// sides of the edge key default to the grid's first entry.
	var primary rankingsResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=global&backend=cdnflare", 200), &primary); err != nil {
		t.Fatal(err)
	}
	if primary.Vantage != "global" || primary.Backend != "cdnflare" || primary.Total == 0 {
		t.Fatalf("primary edge response: %+v", primary)
	}
	var defaulted rankingsResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=global", 200), &defaulted); err != nil {
		t.Fatal(err)
	}
	if defaulted.Backend != "cdnflare" || defaulted.Total != primary.Total {
		t.Fatalf("defaulted backend response: %+v", defaulted)
	}

	// A regional vantage serves its own (smaller or equal) view.
	var regional rankingsResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=us-east&backend=edgecast", 200), &regional); err != nil {
		t.Fatal(err)
	}
	if regional.Total == 0 || regional.Total > primary.Total {
		t.Fatalf("regional edge total = %d (primary %d)", regional.Total, primary.Total)
	}

	// Unknown keys answer 404 with a JSON error, never a panic; a day the
	// study can never serve is 400.
	do(t, "GET", ts.URL+"/v1/rankings/bogus-metric?vantage=global", 404)
	do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=atlantis", 404)
	do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=global&backend=akamai", 404)
	do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=global&day=2", 404)
	do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=global&day=99", 400)
	do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=global&k=-1", 400)
}

func TestServerEdgeRankingsSingleEdge(t *testing.T) {
	// The default single-edge study still serves its one edge and rejects
	// the vantages a wider grid would have.
	s := testStudy(t, 2)
	ts := testServer(t, s, nil)
	do(t, "POST", ts.URL+"/v1/advance?days=1", 200)

	var resp vantagesResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/vantages", 200), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Vantages) != 1 || len(resp.Backends) != 1 {
		t.Fatalf("default grid = %+v", resp)
	}
	do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=global", 200)
	do(t, "GET", ts.URL+"/v1/rankings/all-requests?vantage=us-east", 404)
	do(t, "GET", ts.URL+"/v1/rankings/all-requests?backend=edgecast", 404)
}

// TestWritersMatchWriteJSON: the hand-written rankings and diff encoders
// answer the bytes and headers the generic JSON path would, for names
// that need no escaping and for names that do, with and without the
// edge fields, for empty and nil name lists, and for Jaccard values
// that are whole, short and long.
func TestWritersMatchWriteJSON(t *testing.T) {
	odd := []string{"a<b>&c.com", `q"uote\\`, "tab\there", "\u2028sep", "café.fr", "bad\xffutf8", "\x7f", ""}
	cases := []rankingsResponse{
		{List: "Tranco", Day: 3, K: 2, Total: 20000, Names: []string{"google.com", "example.org"}},
		{List: "all-requests", Vantage: "eu-central", Backend: "cloudflare", Day: 0, K: len(odd), Total: 9, Names: odd},
		{List: "Alexa", Vantage: "global", Day: 1, K: 0, Total: 0, Names: []string{}},
		{List: "<list>", Backend: "edgecast", Day: 27, Names: nil},
	}
	diffs := []diffResponse{
		{List: "Tranco", From: 2, To: 3, K: 100, Entered: []string{"new.com"}, Left: []string{"old.com"}, Jaccard: 0.98989898989899},
		{List: "a&b", From: 0, To: 0, K: 1, Entered: []string{}, Left: []string{}, Jaccard: 1},
		{List: "Umbrella", From: 4, To: 5, K: 3, Entered: odd[:3], Left: []string{"x.org", "y.net", "z.io"}, Jaccard: 0},
		{List: "Alexa", From: 1, To: 2, K: 40000, Entered: nil, Left: odd, Jaccard: 2.5e-05},
	}
	for _, resp := range cases {
		fast, slow := httptest.NewRecorder(), httptest.NewRecorder()
		writeRankings(fast, resp)
		writeJSON(slow, http.StatusOK, resp)
		checkSameResponse(t, resp, fast, slow)
	}
	for _, resp := range diffs {
		fast, slow := httptest.NewRecorder(), httptest.NewRecorder()
		writeDiff(fast, resp)
		writeJSON(slow, http.StatusOK, resp)
		checkSameResponse(t, resp, fast, slow)
	}
}

func checkSameResponse(t *testing.T, resp any, fast, slow *httptest.ResponseRecorder) {
	t.Helper()
	if fast.Code != slow.Code || !bytes.Equal(fast.Body.Bytes(), slow.Body.Bytes()) {
		t.Fatalf("%+v:\nhand-written %d %q\nwriteJSON    %d %q", resp, fast.Code, fast.Body, slow.Code, slow.Body)
	}
	if got, want := fast.Header().Get("Content-Type"), slow.Header().Get("Content-Type"); got != want {
		t.Fatalf("%+v: Content-Type %q, want %q", resp, got, want)
	}
	if got, want := fast.Header().Get("Content-Length"), fmt.Sprint(slow.Body.Len()); got != want {
		t.Fatalf("%+v: Content-Length %q, want %q", resp, got, want)
	}
}

// TestTopKDiffMatchesSetDifference checks topKDiff against brute-force set
// arithmetic over the two top-k cuts, for every k from 1 to one past the
// longer ranking, on rankings of different lengths with partial overlap.
func TestTopKDiffMatchesSetDifference(t *testing.T) {
	from := rank.MustNew([]string{"a", "b", "c", "d", "e", "f", "g"})
	toNames := []string{"c", "x", "a", "y", "g", "b", "z", "q", "d"}
	// Over one table the diff compares IDs; over two it compares names.
	other, err := rank.NewIn(names.NewTable(), toNames)
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []*rank.Ranking{rank.MustNew(toNames), other} {
		checkTopKDiff(t, from, to)
	}
}

func checkTopKDiff(t *testing.T, from, to *rank.Ranking) {
	t.Helper()
	cut := func(r *rank.Ranking, k int) map[string]bool {
		set := make(map[string]bool)
		for i := 1; i <= min(k, r.Len()); i++ {
			set[r.At(i)] = true
		}
		return set
	}
	for k := 1; k <= max(from.Len(), to.Len())+1; k++ {
		fromSet, toSet := cut(from, k), cut(to, k)
		var wantEntered, wantLeft []string
		for i := 1; i <= min(k, to.Len()); i++ {
			if !fromSet[to.At(i)] {
				wantEntered = append(wantEntered, to.At(i))
			}
		}
		for i := 1; i <= min(k, from.Len()); i++ {
			if !toSet[from.At(i)] {
				wantLeft = append(wantLeft, from.At(i))
			}
		}
		inter := len(toSet) - len(wantEntered)
		wantJaccard := float64(inter) / float64(len(fromSet)+len(toSet)-inter)

		entered, left, jaccard := topKDiff(from, to, k)
		if fmt.Sprint(entered) != fmt.Sprint(wantEntered) || fmt.Sprint(left) != fmt.Sprint(wantLeft) || jaccard != wantJaccard {
			t.Errorf("k=%d: entered %v left %v jaccard %v, want %v %v %v",
				k, entered, left, jaccard, wantEntered, wantLeft, wantJaccard)
		}
	}
}
