package core

import (
	"context"
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toplists/internal/cfmetrics"
)

// readKey names one published read: a list, or an edge's view of a
// canonical metric, on one day.
type readKey struct {
	list, vantage, backend string
	day                    int
}

// forEachRead makes every published read of s below day — RankingFor on
// every list but CrUX, EdgeRankingFor on every edge and canonical metric —
// and hands fn each result's names.
func forEachRead(s *Study, day int, fn func(k readKey, names []string, err error)) {
	for d := 0; d < day; d++ {
		for _, l := range s.ListNames() {
			if l == "CrUX" {
				continue
			}
			r, err := s.RankingFor(l, d)
			var names []string
			if err == nil {
				names = r.Names()
			}
			fn(readKey{list: l, day: d}, names, err)
		}
		for _, v := range s.Vantages() {
			for _, b := range s.Backends() {
				for _, m := range cfmetrics.AllMetrics() {
					r, err := s.EdgeRankingFor(m.Key(), v.Name, b.String(), d)
					var names []string
					if err == nil {
						names = r.Names()
					}
					fn(readKey{m.Key(), v.Name, b.String(), d}, names, err)
				}
			}
		}
	}
}

// publishedReads returns the names of every read forEachRead makes of s
// below day, failing the test on any read error.
func publishedReads(t *testing.T, s *Study, day int) map[readKey][]string {
	t.Helper()
	out := make(map[readKey][]string)
	forEachRead(s, day, func(k readKey, names []string, err error) {
		if err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		out[k] = names
	})
	return out
}

func viewCfg(seed uint64) Config {
	return Config{Seed: seed, NumSites: 400, NumClients: 80, Days: 4, Workers: 2, Vantages: 2, Backends: 2}
}

// TestReadsDuringAdvance is the lock-free read oracle: reader goroutines
// read every published day of every list (but CrUX) and every edge metric
// while a 2-vantage × 2-backend study advances day by day, and each read
// must equal, by names, the answer of a serial study with the same seed.
// Readers also check that Day never goes backwards and Aborted stays nil.
// Run under -race -count=10 (make race).
func TestReadsDuringAdvance(t *testing.T) {
	cfg := viewCfg(71)
	serial := NewStudy(cfg)
	defer serial.Close()
	serial.Run()
	want := publishedReads(t, serial, cfg.Days)

	live := NewStudy(cfg)
	defer live.Close()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				// One more pass after the last advance covers the final day.
				stop := false
				select {
				case <-done:
					stop = true
				default:
				}
				day := live.Day()
				if day < last {
					t.Errorf("Day() went back from %d to %d", last, day)
					return
				}
				last = day
				if err := live.Aborted(); err != nil {
					t.Errorf("Aborted() = %v during a clean advance", err)
					return
				}
				bad := false
				forEachRead(live, day, func(k readKey, names []string, err error) {
					if bad {
						return
					}
					if err != nil {
						t.Errorf("%+v at published day %d: %v", k, day, err)
						bad = true
					} else if !slices.Equal(names, want[k]) {
						t.Errorf("%+v: %d names differ from the serial study's %d", k, len(names), len(want[k]))
						bad = true
					}
				})
				if bad || stop {
					return
				}
			}
		}()
	}
	for d := 0; d < cfg.Days; d++ {
		if err := live.AdvanceDay(context.Background()); err != nil {
			t.Errorf("AdvanceDay(%d): %v", d, err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestReadsDoNotWaitForAdvance shows deterministically that reads take no
// lock an advance holds: the auto-checkpoint hook runs inside AdvanceDay
// with the lifecycle write lock held, and while it blocks, RankingFor,
// EdgeRankingFor, Day and Aborted must all return. The timeout is a
// failure bound for a read stuck behind the lock, not a latency target.
func TestReadsDoNotWaitForAdvance(t *testing.T) {
	cfg := viewCfg(73)
	s := NewStudy(cfg)
	defer s.Close()
	if err := s.AdvanceDay(context.Background()); err != nil {
		t.Fatal(err)
	}

	entered := make(chan int, 1)
	release := make(chan struct{})
	s.SetAutoCheckpoint(1, func(day int, _ func(io.Writer) error) error {
		entered <- day
		<-release
		return nil
	})
	advanced := make(chan error, 1)
	go func() { advanced <- s.AdvanceDay(context.Background()) }()
	defer func() {
		close(release)
		if err := <-advanced; err != nil {
			t.Errorf("AdvanceDay: %v", err)
		}
	}()

	const bound = 30 * time.Second
	var day int
	select {
	case day = <-entered:
	case <-time.After(bound):
		t.Fatal("the auto-checkpoint hook never ran")
	}

	read := make(chan error, 1)
	go func() {
		read <- func() error {
			if got := s.Day(); got != day {
				return errors.New("Day() does not report the day published before the hook")
			}
			if err := s.Aborted(); err != nil {
				return err
			}
			for d := 0; d < day; d++ {
				for _, l := range s.ListNames() {
					if l == "CrUX" {
						continue
					}
					if _, err := s.RankingFor(l, d); err != nil {
						return err
					}
				}
				for _, m := range cfmetrics.AllMetrics() {
					if _, err := s.EdgeRankingFor(m.Key(), s.Vantages()[1].Name, s.Backends()[1].String(), d); err != nil {
						return err
					}
				}
			}
			return nil
		}()
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatalf("read while the advance held the lifecycle lock: %v", err)
		}
	case <-time.After(bound):
		t.Fatalf("reads still blocked after %v behind an advance holding the lifecycle lock", bound)
	}
}

// TestFinalDayPublishedFinished pins that the final day is published only
// once the month is finished: a goroutine polling Day() during the last
// AdvanceDay must, as soon as it sees Day() == Days, already read the
// names.interned gauge at its value after the call returns, the CrUX
// origin names included.
func TestFinalDayPublishedFinished(t *testing.T) {
	interned := func(s *Study) int64 { return s.Metrics().Snapshot().Gauges["names.interned"] }
	for seed := uint64(1); seed <= 4; seed++ {
		func() {
			cfg := Config{Seed: seed, NumSites: 300, NumClients: 80, Days: 2, Workers: 1}
			s := NewStudy(cfg)
			defer s.Close()
			ctx := context.Background()
			for s.Day() < cfg.Days-1 {
				if err := s.AdvanceDay(ctx); err != nil {
					t.Fatal(err)
				}
			}
			// seen carries the poller's one reading; failed stops a poller
			// whose final day never comes.
			seen := make(chan int64, 1)
			var failed atomic.Bool
			go func() {
				for s.Day() < cfg.Days {
					if failed.Load() {
						return
					}
				}
				seen <- interned(s)
			}()
			if err := s.AdvanceDay(ctx); err != nil {
				failed.Store(true)
				t.Fatal(err)
			}
			if got, want := <-seen, interned(s); got != want {
				t.Errorf("seed %d: names.interned = %d when Day() first read %d, %d after AdvanceDay returned",
					seed, got, cfg.Days, want)
			}
		}()
	}
}
