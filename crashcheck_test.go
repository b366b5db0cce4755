package toplists

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"toplists/internal/snapshot"
)

// crashcheck is the kill-anywhere chaos oracle behind `make crashcheck`:
// it builds the real toplistsd binary, runs it with a fast virtual-clock
// ticker and auto-checkpointing, SIGKILLs it at seed-keyed offsets —
// mid-day, between generations, and (via the TOPLISTSD_CRASHPOINT hook)
// mid-checkpoint-write — restarts it through the recovery supervisor
// each time, and requires the finished month to be byte-identical, over
// HTTP, to an uninterrupted run of the same binary: every probed list
// body and the resume-stable report. A separate test tears the newest
// generation on disk and requires recovery to fall back, visibly.

// crashScale keeps a 28-day month cheap enough to simulate several
// times per seed (the baseline plus every post-kill replay).
const (
	crashSites   = 300
	crashClients = 60
	crashDays    = 28
	crashKills   = 6 // >= 5 kill points per seed, one of them mid-write
)

// killLog appends one line per chaos event to $CRASHCHECK_LOG (the file
// CI uploads as an artifact) and mirrors it to the test log.
var killLogMu sync.Mutex

func killLogf(t *testing.T, format string, args ...any) {
	t.Helper()
	line := fmt.Sprintf(format, args...)
	t.Log(line)
	path := os.Getenv("CRASHCHECK_LOG")
	if path == "" {
		return
	}
	killLogMu.Lock()
	defer killLogMu.Unlock()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("crashcheck: log %s: %v", path, err)
		return
	}
	defer f.Close()
	fmt.Fprintln(f, line) //nolint:errcheck // artifact log is best effort
}

// buildDaemon compiles cmd/toplistsd once for all seeds.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "toplistsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/toplistsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build toplistsd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running toplistsd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

var crashClient = &http.Client{Timeout: 5 * time.Minute}

// startDaemon launches the binary with -addr localhost:0, learns the
// bound address through -readyfile, and waits for /healthz.
func startDaemon(t *testing.T, bin string, env []string, args ...string) *daemon {
	t.Helper()
	ready := filepath.Join(t.TempDir(), "ready")
	cmd := exec.Command(bin, append([]string{"-addr", "localhost:0", "-readyfile", ready}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(ready); err == nil && len(b) > 0 {
			d := &daemon{cmd: cmd, base: "http://" + string(b)}
			if _, _, err := d.get("/healthz"); err == nil {
				return d
			}
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
			t.Fatalf("daemon did not become healthy\nstderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := crashClient.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) post(path string) (int, []byte, error) {
	resp, err := crashClient.Post(d.base+path, "", nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// mustGet fails the test on transport error or unexpected status.
func (d *daemon) mustGet(t *testing.T, path string) []byte {
	t.Helper()
	code, b, err := d.get(path)
	if err != nil || code != 200 {
		t.Fatalf("GET %s: code %d err %v\n%s", path, code, err, b)
	}
	return b
}

// day polls /v1/status; -1 while the daemon is unreachable.
func (d *daemon) day() int {
	code, b, err := d.get("/v1/status")
	if err != nil || code != 200 {
		return -1
	}
	var st struct {
		Day int `json:"day"`
	}
	if json.Unmarshal(b, &st) != nil {
		return -1
	}
	return st.Day
}

// sigkill simulates a crash: SIGKILL, no cleanup, wait for the corpse.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	d.cmd.Process.Kill() //nolint:errcheck
	d.cmd.Wait()         //nolint:errcheck // killed: non-zero by design
}

// stop shuts the daemon down gracefully and requires a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
}

// waitKilled waits for the process to die on its own (the crashpoint
// hook SIGKILLs it from inside a checkpoint write).
func (d *daemon) waitKilled(t *testing.T) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		t.Fatal("crashpoint never fired: daemon still alive after 60s")
	}
}

func studyArgs(seed uint64) []string {
	return []string{
		"-seed", fmt.Sprint(seed),
		"-sites", fmt.Sprint(crashSites),
		"-clients", fmt.Sprint(crashClients),
		"-days", fmt.Sprint(crashDays),
		"-workers", "2",
		"-quiet",
	}
}

// probes is the comparison surface: every published list at an early,
// middle, and final day (full lists, k=0), plus the resume-stable report
// subset. Byte-identical bodies here mean the interrupted month and the
// straight month published the same study.
func probes(t *testing.T, d *daemon) []string {
	t.Helper()
	var st struct {
		Lists []string `json:"lists"`
	}
	if err := json.Unmarshal(d.mustGet(t, "/v1/status"), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Lists) == 0 {
		t.Fatal("status reports no lists")
	}
	ps := []string{"/v1/report?stable=1"}
	for _, list := range st.Lists {
		for _, day := range []int{9, 19, crashDays - 1} {
			ps = append(ps, fmt.Sprintf("/v1/rankings/%s?day=%d&k=0", list, day))
		}
	}
	return ps
}

func collect(t *testing.T, d *daemon, ps []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(ps))
	for _, p := range ps {
		out[p] = d.mustGet(t, p)
	}
	return out
}

// baselineRun drives the same binary through an uninterrupted month and
// captures the probe bodies — HTTP against HTTP, like for like.
func baselineRun(t *testing.T, bin string, seed uint64) map[string][]byte {
	t.Helper()
	d := startDaemon(t, bin, nil, studyArgs(seed)...)
	defer d.stop(t)
	code, b, err := d.post(fmt.Sprintf("/v1/advance?days=%d", crashDays))
	if err != nil || code != 200 {
		t.Fatalf("baseline advance: code %d err %v\n%s", code, err, b)
	}
	return collect(t, d, probes(t, d))
}

// chaosRun kills the daemon crashKills times at seed-keyed offsets,
// restarting through the recovery supervisor each time, then lets the
// survivor finish the month and captures the same probes.
func chaosRun(t *testing.T, bin string, seed uint64, ckptDir string) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed))) //nolint:gosec // deterministic schedule, not crypto
	args := append(studyArgs(seed),
		"-tick", "25ms",
		"-checkpoint", ckptDir,
		"-autocheckpoint", "2",
		"-retain", "4",
	)
	dir, err := snapshot.OpenDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}

	for kill := 0; kill < crashKills; kill++ {
		// One kill detonates inside a checkpoint write via the binary's
		// crashpoint hook: the process's first checkpoint dies after half
		// a generation's worth of bytes, leaving a torn temp file
		// recovery must ignore. A manual POST /v1/checkpoint guarantees a
		// write happens even if the month already finished ticking.
		var env []string
		kind := "sigkill"
		if kill == crashKills/2 {
			off := int64(20000)
			if gen, err := dir.Latest(); err == nil {
				if fi, err := os.Stat(gen.Path); err == nil && fi.Size() > 2 {
					off = fi.Size() / 2
				}
			}
			env = []string{fmt.Sprintf("TOPLISTSD_CRASHPOINT=1:%d", off)}
			kind = "crashpoint"
		}

		d := startDaemon(t, bin, env, args...)
		if kind == "crashpoint" {
			day := d.day()
			go d.post("/v1/checkpoint") //nolint:errcheck // the daemon dies mid-response
			d.waitKilled(t)
			killLogf(t, "seed=%d kill=%d kind=%s day=%d (mid-checkpoint-write, self-inflicted)", seed, kill, kind, day)
			continue
		}
		// Hold the first process until a generation exists, so every
		// later restart has something to recover; then kill anywhere.
		if kill == 0 {
			deadline := time.Now().Add(60 * time.Second)
			for d.day() < 2 {
				if time.Now().After(deadline) {
					t.Fatal("first process never reached day 2")
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		sleep := time.Duration(10+rng.Intn(120)) * time.Millisecond
		time.Sleep(sleep)
		day := d.day()
		d.sigkill(t)
		killLogf(t, "seed=%d kill=%d kind=%s after=%v day=%d", seed, kill, kind, sleep, day)
	}

	// The surviving process recovers and finishes the month on its own
	// ticker.
	d := startDaemon(t, bin, nil, args...)
	defer d.stop(t)
	deadline := time.Now().Add(3 * time.Minute)
	for d.day() < crashDays {
		if time.Now().After(deadline) {
			t.Fatalf("chaos survivor stuck at day %d", d.day())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The final day is published before the study finishes it (the CrUX
	// derivation, which interns the origin names, runs after), so seeing
	// day crashDays does not mean the month is done. An advance waits for
	// the lifecycle lock the ticker holds through that work, and its 409
	// marks the same finished state the baseline's advance response does.
	if code, b, err := d.post("/v1/advance?days=1"); err != nil || code != http.StatusConflict {
		t.Fatalf("advance past the finished month: code %d err %v\n%s", code, err, b)
	}
	killLogf(t, "seed=%d survivor finished day %d/%d", seed, d.day(), crashDays)
	return collect(t, d, probes(t, d))
}

// TestCrashCheck: for each seed, an uninterrupted month and a month
// killed crashKills times must publish byte-identical probe bodies.
func TestCrashCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("crashcheck builds and repeatedly kills the real binary; skipped with -short")
	}
	bin := buildDaemon(t)
	for _, seed := range []uint64{101, 202, 303} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			want := baselineRun(t, bin, seed)
			got := chaosRun(t, bin, seed, t.TempDir())
			if len(got) != len(want) {
				t.Fatalf("probe sets differ: %d vs %d", len(got), len(want))
			}
			for p, w := range want {
				g, ok := got[p]
				if !ok {
					t.Fatalf("chaos run missing probe %s", p)
				}
				if string(g) != string(w) {
					t.Errorf("probe %s differs after %d kills:\n--- uninterrupted ---\n%s\n--- chaos ---\n%s",
						p, crashKills, w, g)
				}
			}
		})
	}
}

// TestCrashCheckTornGeneration: a generation torn on disk (bit rot,
// partial write that somehow got renamed) must be rejected — visibly,
// in the volatile recovery counters — and recovery must fall back to
// the previous generation instead of refusing to start.
func TestCrashCheckTornGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("crashcheck builds and repeatedly kills the real binary; skipped with -short")
	}
	bin := buildDaemon(t)
	ckptDir := t.TempDir()
	args := append(studyArgs(404),
		"-tick", "3ms",
		"-checkpoint", ckptDir,
		"-autocheckpoint", "1",
		"-retain", "4",
	)

	d := startDaemon(t, bin, nil, args...)
	deadline := time.Now().Add(60 * time.Second)
	for d.day() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never reached day 3")
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.sigkill(t)

	dir, err := snapshot.OpenDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dir.Latest()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(gen.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gen.Path, b[:len(b)/3], 0o666); err != nil {
		t.Fatal(err)
	}
	killLogf(t, "seed=404 tore generation %s (%d -> %d bytes)", gen.Name(), len(b), len(b)/3)

	d = startDaemon(t, bin, nil, args...)
	defer d.stop(t)
	var rep struct {
		Volatile map[string]int64 `json:"volatile"`
	}
	if err := json.Unmarshal(d.mustGet(t, "/v1/report"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Volatile["recovery.rejected"] < 1 {
		t.Fatalf("torn generation was not rejected: volatile = %+v", rep.Volatile)
	}
	if got := rep.Volatile["recovery.resumed_gen"]; got >= int64(gen.Seq) || got < 1 {
		t.Fatalf("resumed generation %d, want an intact one below %d", got, gen.Seq)
	}
	if day := d.day(); day < 1 {
		t.Fatalf("fallback recovery left the study at day %d", day)
	}
	killLogf(t, "seed=404 fell back past %s, resumed gen %d", gen.Name(), rep.Volatile["recovery.resumed_gen"])
}
