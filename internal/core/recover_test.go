package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"toplists/internal/obs"
	"toplists/internal/snapshot"
)

// checkpointedDir advances a study day by day with an every-day
// auto-checkpoint into a fresh snapshot directory, returning the dir.
// The study is closed before returning: recovery always starts cold.
func checkpointedDir(t *testing.T, cfg Config, days int) *snapshot.Dir {
	t.Helper()
	dir, err := snapshot.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(cfg)
	defer s.Close()
	s.SetAutoCheckpoint(1, func(day int, write func(io.Writer) error) error {
		_, _, err := dir.Write(write)
		return err
	})
	for i := 0; i < days; i++ {
		if err := s.AdvanceDay(context.Background()); err != nil {
			t.Fatalf("AdvanceDay(%d): %v", i, err)
		}
	}
	return dir
}

func TestRecoverResumesNewestGeneration(t *testing.T) {
	cfg := checkpointCfg(41, 5, false)
	dir := checkpointedDir(t, cfg, 3)
	// A LATEST pointer left by an older build, naming generation 1, must
	// not steer recovery away from the newest generation file.
	newest, err := dir.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(newest.Path), "LATEST"), []byte("study.snap.000001\n"), 0o666); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rec, err := Recover(dir, ResumeOptions{Workers: 1, Obs: reg}, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Study.Close()
	if rec.Gen.Seq != 3 || rec.Scanned != 1 || rec.Rejected != 0 {
		t.Fatalf("Recover = %+v, want newest generation first try", rec)
	}
	if got := rec.Study.Day(); got != 3 {
		t.Fatalf("recovered at day %d, want 3", got)
	}

	// The recovered study finishes the month byte-identically to a
	// straight run.
	straight := NewStudy(cfg)
	defer straight.Close()
	straight.Run()
	rec.Study.Run()
	if got, want := studyFingerprint(rec.Study), studyFingerprint(straight); got != want {
		t.Fatalf("recovered fingerprint %x, straight %x", got, want)
	}

	rep := reg.Snapshot()
	if rep.Volatile["recovery.candidates"] != 1 || rep.Volatile["recovery.resumed_gen"] != 3 {
		t.Fatalf("recovery telemetry: %+v", rep.Volatile)
	}
	// Crash/restart history must never leak into the resume-stable report.
	stable, err := rep.ResumeStable()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stable, []byte("recovery.")) {
		t.Fatalf("recovery.* counters leaked into the resume-stable subset:\n%s", stable)
	}
}

// damage mutates one generation file in place.
func damage(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(b), 0o666); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverFallsBackPastTornNewestGeneration(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/3] }},
		{"zero-length", func(b []byte) []byte { return nil }},
		{"bit-flipped", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)/2] ^= 0x20
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := checkpointedDir(t, checkpointCfg(43, 5, false), 3)
			newest, err := dir.Latest()
			if err != nil {
				t.Fatal(err)
			}
			damage(t, newest.Path, tc.mutate)

			reg := obs.NewRegistry()
			rec, err := Recover(dir, ResumeOptions{Workers: 1, Obs: reg}, nil)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer rec.Study.Close()
			if rec.Gen.Seq != 2 || rec.Rejected != 1 || rec.Scanned != 2 {
				t.Fatalf("Recover = %+v, want fallback to generation 2", rec)
			}
			if got := rec.Study.Day(); got != 2 {
				t.Fatalf("recovered at day %d, want 2", got)
			}
			if got := reg.Snapshot().Volatile["recovery.rejected"]; got < 1 {
				t.Fatalf("recovery.rejected = %d, want >= 1", got)
			}
		})
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	dir, err := snapshot.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, ResumeOptions{}, nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Recover over empty dir: %v, want ErrNoCheckpoint", err)
	}
}

func TestRecoverAllGenerationsRejected(t *testing.T) {
	dir := checkpointedDir(t, checkpointCfg(47, 4, false), 2)
	gens, err := dir.Generations()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		damage(t, g.Path, func(b []byte) []byte { return b[:len(b)/2] })
	}
	rec, err := Recover(dir, ResumeOptions{}, nil)
	if err == nil {
		t.Fatal("Recover accepted a directory of torn generations")
	}
	if errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-rejected must not look like no-checkpoint: %v", err)
	}
	if rec.Study != nil {
		t.Fatal("Recover returned a study alongside an error")
	}
	if rec.Rejected != 2 || rec.Scanned != 2 {
		t.Fatalf("Recover = %+v, want both generations rejected", rec)
	}
}

// TestAutoCheckpointCadence pins the SetAutoCheckpoint contract: the hook
// fires every n advanced days and on the final day, from a clean day
// boundary (each written snapshot resumes at exactly the hook's day), and
// a failing hook never aborts the study.
func TestAutoCheckpointCadence(t *testing.T) {
	cfg := checkpointCfg(53, 5, false)
	s := NewStudy(cfg)
	defer s.Close()

	type ckpt struct {
		day  int
		blob []byte
	}
	var got []ckpt
	s.SetAutoCheckpoint(2, func(day int, write func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return err
		}
		got = append(got, ckpt{day, buf.Bytes()})
		return nil
	})
	s.Run()

	wantDays := []int{2, 4, 5}
	if len(got) != len(wantDays) {
		t.Fatalf("hook fired %d times, want %d", len(got), len(wantDays))
	}
	for i, c := range got {
		if c.day != wantDays[i] {
			t.Fatalf("checkpoint %d at day %d, want %d", i, c.day, wantDays[i])
		}
		r, err := Resume(bytes.NewReader(c.blob), ResumeOptions{Workers: 1})
		if err != nil {
			t.Fatalf("resume hook checkpoint at day %d: %v", c.day, err)
		}
		if r.Day() != c.day {
			t.Fatalf("hook checkpoint resumed at day %d, want %d", r.Day(), c.day)
		}
		r.Close()
	}
	if v := s.Metrics().Snapshot().Volatile["checkpoint.auto"]; v != int64(len(wantDays)) {
		t.Fatalf("checkpoint.auto = %d, want %d", v, len(wantDays))
	}

	// A failing hook is counted, not fatal: the study still advances.
	fail := NewStudy(checkpointCfg(53, 2, false))
	defer fail.Close()
	fail.SetAutoCheckpoint(1, func(int, func(io.Writer) error) error {
		return errors.New("disk full")
	})
	if err := fail.AdvanceDay(context.Background()); err != nil {
		t.Fatalf("AdvanceDay with failing hook: %v", err)
	}
	if err := fail.Aborted(); err != nil {
		t.Fatalf("failing hook aborted the study: %v", err)
	}
	if v := fail.Metrics().Snapshot().Volatile["checkpoint.auto_failed"]; v != 1 {
		t.Fatalf("checkpoint.auto_failed = %d, want 1", v)
	}
}
