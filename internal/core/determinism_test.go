package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"testing"

	"toplists/internal/cfmetrics"
	"toplists/internal/sketch"
)

// studyFingerprint digests everything the study publishes — the seven
// provider lists for every day (CrUX's origin order among them; its
// buckets are a function of that order) and the daily ranked lists of all
// 21 Cloudflare filter-aggregation combos — into one hash. Two runs agree
// iff every published artifact is byte-identical.
func studyFingerprint(s *Study) uint64 {
	h := fnv.New64a()
	write := func(parts ...string) {
		for _, p := range parts {
			io.WriteString(h, p)
			h.Write([]byte{0})
		}
	}

	for _, l := range s.Lists() {
		for d := 0; d < s.Cfg.Days; d++ {
			write("list", l.Name(), fmt.Sprint(d))
			for _, name := range l.Raw(d).Names() {
				write(name)
			}
		}
	}

	for _, combo := range cfmetrics.AllCombos() {
		for d := 0; d < s.Pipeline.NumDays(); d++ {
			write("cf", combo.String(), fmt.Sprint(d))
			for _, id := range s.Pipeline.DayList(d, combo) {
				write(fmt.Sprint(id))
			}
		}
	}
	return h.Sum64()
}

func runFingerprint(seed uint64, workers int) uint64 {
	return runFingerprintMode(seed, workers, false)
}

func runFingerprintMode(seed uint64, workers int, sketchMode bool) uint64 {
	s := NewStudy(Config{
		Seed:           seed,
		NumSites:       1500,
		NumClients:     300,
		Days:           4,
		TrackAllCombos: true,
		Workers:        workers,
		Sketch:         sketch.Config{Enabled: sketchMode},
	})
	s.Run()
	return studyFingerprint(s)
}

// TestStudyDeterminismAcrossWorkers is the end-to-end determinism oracle:
// a study run with the serial engine (workers=1) and runs with parallel
// sharded engines must publish byte-identical provider lists, Cloudflare
// combo lists, and CrUX output, for each seed.
func TestStudyDeterminismAcrossWorkers(t *testing.T) {
	workerCounts := []int{2, 4, runtime.GOMAXPROCS(0)}
	for _, seed := range []uint64{2022, 7, 314159} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := runFingerprint(seed, 1)
			for _, workers := range workerCounts {
				if got := runFingerprint(seed, workers); got != want {
					t.Errorf("workers=%d fingerprint %#x, want %#x (serial)",
						workers, got, want)
				}
			}
		})
	}
}

// TestStudySketchDeterminismAcrossWorkers is the same oracle for sketch
// mode: the sketch path aggregates over fixed logical shards merged in
// canonical order at the day barrier, so its published output must also be
// byte-identical at every worker count — approximate relative to the exact
// path, but never schedule-dependent.
func TestStudySketchDeterminismAcrossWorkers(t *testing.T) {
	workerCounts := []int{2, 4, runtime.GOMAXPROCS(0)}
	for _, seed := range []uint64{2022, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := runFingerprintMode(seed, 1, true)
			for _, workers := range workerCounts {
				if got := runFingerprintMode(seed, workers, true); got != want {
					t.Errorf("sketch workers=%d fingerprint %#x, want %#x (serial)",
						workers, got, want)
				}
			}
		})
	}
}

// TestStudyDeterminismRepeatable pins the weaker property the parallel
// oracle builds on: the same configuration twice produces the same
// fingerprint at all.
func TestStudyDeterminismRepeatable(t *testing.T) {
	if a, b := runFingerprint(11, 0), runFingerprint(11, 0); a != b {
		t.Fatalf("same config, different fingerprints: %#x vs %#x", a, b)
	}
}
