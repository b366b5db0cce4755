package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"toplists/internal/cfmetrics"
	"toplists/internal/sketch"
	"toplists/internal/snapshot"
)

// checkpointCfg is deliberately tiny: the round-trip property test
// snapshots and resumes at every day boundary, rebuilding a world each
// time.
func checkpointCfg(seed uint64, days int, sketchOn bool) Config {
	return Config{
		Seed:           seed,
		NumSites:       400,
		NumClients:     80,
		Days:           days,
		TrackAllCombos: true,
		Workers:        2,
		Sketch:         sketch.Config{Enabled: sketchOn},
	}
}

func snap(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripByteIdentical is the property test of the snapshot
// layer: at every day boundary k, Snapshot -> Resume -> Snapshot must
// reproduce the checkpoint byte for byte, in exact and sketch mode. The
// canonical encoding (sorted maps, fixed-width floats) is what makes this
// hold; any nondeterministic iteration order in a component would fail
// here immediately.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	for _, mode := range []bool{false, true} {
		t.Run(fmt.Sprintf("sketch=%v", mode), func(t *testing.T) {
			const days = 3
			s := NewStudy(checkpointCfg(23, days, mode))
			defer s.Close()
			for k := 0; ; k++ {
				a := snap(t, s)
				r, err := Resume(bytes.NewReader(a), ResumeOptions{Workers: 1})
				if err != nil {
					t.Fatalf("day %d: Resume: %v", k, err)
				}
				if got := r.Day(); got != k {
					t.Fatalf("day %d: resumed study at day %d", k, got)
				}
				b := snap(t, r)
				r.Close()
				if !bytes.Equal(a, b) {
					t.Fatalf("day %d: re-snapshot differs (%d vs %d bytes)", k, len(a), len(b))
				}
				if k == days {
					break
				}
				if err := s.AdvanceDay(context.Background()); err != nil {
					t.Fatalf("day %d: AdvanceDay: %v", k, err)
				}
			}
		})
	}
}

// TestResumeOracle pins the headline acceptance property at unit scale: a
// study checkpointed at day k, resumed (with a different worker count),
// and advanced to the end publishes byte-identical lists, Cloudflare
// combo lists, and CrUX output to a straight run — and its resume-stable
// report subset matches too. Before any advance the resumed study already
// publishes day k: Day is k and every list and edge read below k equals
// the checkpointed study's, and one resumed at its final day serves CrUX.
// The full-size oracle is `make snapcheck`.
func TestResumeOracle(t *testing.T) {
	const days = 6
	for _, mode := range []bool{false, true} {
		t.Run(fmt.Sprintf("sketch=%v", mode), func(t *testing.T) {
			straight := NewStudy(checkpointCfg(91, days, mode))
			defer straight.Close()
			straight.Run()
			wantFP := studyFingerprint(straight)
			wantRep, err := straight.Metrics().Snapshot().ResumeStable()
			if err != nil {
				t.Fatal(err)
			}

			for _, k := range []int{1, 3, days} {
				src := NewStudy(checkpointCfg(91, days, mode))
				for i := 0; i < k; i++ {
					if err := src.AdvanceDay(context.Background()); err != nil {
						t.Fatalf("k=%d: AdvanceDay(%d): %v", k, i, err)
					}
				}
				b := snap(t, src)
				want := publishedReads(t, src, k)

				r, err := Resume(bytes.NewReader(b), ResumeOptions{Workers: 3})
				if err != nil {
					t.Fatalf("k=%d: Resume: %v", k, err)
				}
				if got := r.Day(); got != k {
					t.Fatalf("k=%d: resumed study publishes day %d", k, got)
				}
				if got := publishedReads(t, r, k); !maps.EqualFunc(got, want, slices.Equal) {
					t.Errorf("k=%d: resumed study's published reads differ from the checkpointed study's", k)
				}
				if k == days {
					got, err := r.RankingFor("CrUX", k-1)
					if err != nil {
						t.Fatalf("k=%d: CrUX after a final-day resume: %v", k, err)
					}
					want, err := src.RankingFor("CrUX", k-1)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Names(), want.Names()) {
						t.Errorf("k=%d: resumed CrUX differs from the checkpointed study's", k)
					}
				}
				src.Close()
				r.Run()
				if got := studyFingerprint(r); got != wantFP {
					t.Errorf("k=%d: fingerprint %x after resume, straight run %x", k, got, wantFP)
				}
				gotRep, err := r.Metrics().Snapshot().ResumeStable()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotRep, wantRep) {
					t.Errorf("k=%d: resume-stable report differs:\n--- straight ---\n%s\n--- resumed ---\n%s",
						k, wantRep, gotRep)
				}
				r.Close()
			}
		})
	}
}

// TestResumeRejectsDamage: corrupted, truncated, and version-skewed
// checkpoints are rejected with precise sentinel errors and never yield a
// study — no partial restore is observable.
func TestResumeRejectsDamage(t *testing.T) {
	s := NewStudy(checkpointCfg(5, 2, false))
	if err := s.AdvanceDay(context.Background()); err != nil {
		t.Fatal(err)
	}
	good := snap(t, s)
	s.Close()

	mustFail := func(t *testing.T, b []byte, want error, what string) {
		t.Helper()
		r, err := Resume(bytes.NewReader(b), ResumeOptions{})
		if err == nil {
			t.Fatalf("%s: Resume accepted damaged checkpoint", what)
		}
		if r != nil {
			t.Fatalf("%s: Resume returned a study alongside error %v", what, err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Errorf("%s: error %v, want %v", what, err, want)
		}
	}

	t.Run("magic", func(t *testing.T) {
		b := bytes.Clone(good)
		b[0] ^= 0xff
		mustFail(t, b, snapshot.ErrBadMagic, "flipped magic")
		mustFail(t, nil, snapshot.ErrBadMagic, "empty file")
	})

	t.Run("version", func(t *testing.T) {
		b := bytes.Clone(good)
		b[9] = 0x7f // container version little byte (big-endian u16 at [8:10])
		mustFail(t, b, snapshot.ErrVersion, "container version skew")
	})

	t.Run("truncation", func(t *testing.T) {
		for cut := 0; cut < len(good); cut += 97 {
			mustFail(t, good[:cut], nil, fmt.Sprintf("cut at %d", cut))
		}
		mustFail(t, good[:len(good)-1], nil, "cut last byte")
	})

	t.Run("bitflip", func(t *testing.T) {
		for off := 10; off < len(good); off += 53 {
			b := bytes.Clone(good)
			b[off] ^= 0x04
			r, err := Resume(bytes.NewReader(b), ResumeOptions{})
			if err == nil {
				t.Fatalf("flip at %d: Resume accepted corrupted checkpoint", off)
			}
			if r != nil {
				t.Fatalf("flip at %d: Resume returned a study alongside error %v", off, err)
			}
		}
	})

	t.Run("trailing", func(t *testing.T) {
		mustFail(t, append(bytes.Clone(good), 0xee), nil, "trailing garbage")
	})
}

// TestSnapshotRefusesAbortedStudy: a study latched by a mid-day failure
// holds torn sink state; Snapshot must refuse to serialize it.
func TestSnapshotRefusesAbortedStudy(t *testing.T) {
	s := abortedStudy(t)
	defer s.Close()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); !errors.Is(err, ErrStudyAborted) {
		t.Fatalf("Snapshot on aborted study: %v, want ErrStudyAborted", err)
	}
	if buf.Len() > 0 {
		t.Fatalf("Snapshot wrote %d bytes before refusing", buf.Len())
	}
}

// TestSnapshotRoundTripMultiVantage extends the byte-identity property to
// the multi-edge state: a 3-vantage, 2-backend study must Snapshot ->
// Resume -> Snapshot byte-identically at every day boundary, and the
// resumed extra pipelines must publish the same day lists.
func TestSnapshotRoundTripMultiVantage(t *testing.T) {
	cfg := checkpointCfg(31, 2, false)
	cfg.Vantages = 3
	cfg.Backends = 2

	s := NewStudy(cfg)
	defer s.Close()
	if len(s.Vantages()) != 3 || len(s.Backends()) != 2 {
		t.Fatalf("grid is %dx%d, want 3x2", len(s.Vantages()), len(s.Backends()))
	}
	for k := 0; ; k++ {
		a := snap(t, s)
		r, err := Resume(bytes.NewReader(a), ResumeOptions{Workers: 1})
		if err != nil {
			t.Fatalf("day %d: Resume: %v", k, err)
		}
		b := snap(t, r)
		if !bytes.Equal(a, b) {
			r.Close()
			t.Fatalf("day %d: re-snapshot differs (%d vs %d bytes)", k, len(a), len(b))
		}
		for i, p := range s.Edges.Extras() {
			q := r.Edges.Extras()[i]
			if p.NumDays() != q.NumDays() {
				t.Fatalf("day %d extra %d: %d vs %d days", k, i, p.NumDays(), q.NumDays())
			}
			for d := 0; d < p.NumDays(); d++ {
				for _, m := range cfmetrics.AllMetrics() {
					al, bl := p.DayList(d, m.Combo()), q.DayList(d, m.Combo())
					if len(al) != len(bl) {
						t.Fatalf("day %d extra %d metric %v: %d vs %d sites", d, i, m, len(al), len(bl))
					}
					for j := range al {
						if al[j] != bl[j] {
							t.Fatalf("day %d extra %d metric %v rank %d differs", d, i, m, j)
						}
					}
				}
			}
		}
		r.Close()
		if k == cfg.Days {
			break
		}
		if err := s.AdvanceDay(context.Background()); err != nil {
			t.Fatalf("day %d: AdvanceDay: %v", k, err)
		}
	}
}

// TestEdgeRankingFor covers the keyed ranking accessor: the primary edge
// serves the same ranking as the un-keyed path, regional edges serve
// their own, and unknown keys error instead of panicking.
func TestEdgeRankingFor(t *testing.T) {
	cfg := checkpointCfg(33, 2, false)
	cfg.Vantages = 2
	cfg.Backends = 2
	s := NewStudy(cfg)
	defer s.Close()
	s.Run()

	m := cfmetrics.MAllRequests
	primary, err := s.EdgeRankingFor(m.Key(), s.Vantages()[0].Name, "cdnflare", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Artifacts().MetricRanking(1, m)
	if primary.Len() != want.Len() {
		t.Fatalf("primary edge ranking %d entries, un-keyed path %d", primary.Len(), want.Len())
	}
	regional, err := s.EdgeRankingFor(m.Key(), s.Vantages()[1].Name, "cdnflare", 1)
	if err != nil {
		t.Fatal(err)
	}
	if regional.Len() == 0 || regional.Len() > primary.Len() {
		t.Fatalf("regional edge ranking %d entries, primary %d", regional.Len(), primary.Len())
	}
	for _, bad := range [][3]string{
		{"bogus-metric", s.Vantages()[0].Name, "cdnflare"},
		{m.Key(), "bogus-vantage", "cdnflare"},
		{m.Key(), s.Vantages()[0].Name, "akamai"}, // not deployed at Backends=2
	} {
		if _, err := s.EdgeRankingFor(bad[0], bad[1], bad[2], 1); err == nil {
			t.Fatalf("EdgeRankingFor(%v) accepted unknown key", bad)
		}
	}
	if _, err := s.EdgeRankingFor(m.Key(), s.Vantages()[0].Name, "cdnflare", 99); err == nil {
		t.Fatal("EdgeRankingFor accepted out-of-range day")
	}
}

// checkpointComponents runs cfg's study to completion, checkpoints it, and
// returns every component payload by name.
func checkpointComponents(t *testing.T, cfg Config) map[string][]byte {
	t.Helper()
	s := NewStudy(cfg)
	defer s.Close()
	s.Run()
	sr, err := snapshot.NewReader(bytes.NewReader(snap(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, name := range []string{compMeta, compNames, compEngine, compObs, compPipeline, compChrome,
		compAlexa, compUmbrella, compSecrank, compTranco, compTrexa, compEdges} {
		if out[name], err = sr.Component(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := sr.End(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointBytesDeterministic pins that a checkpoint is a pure
// function of the study configuration: the same study, run twice serially
// and once each at 2 and 4 workers, must write every checkpoint component
// byte-identically, in exact and sketch mode. Exact mode splits the clients
// into one shard per worker, so this also pins that every sink's exact
// merge is independent of the split.
func TestCheckpointBytesDeterministic(t *testing.T) {
	for _, sketchOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("sketch=%v", sketchOn), func(t *testing.T) {
			cfg := Config{Seed: 7, NumSites: 1500, NumClients: 400, Days: 4,
				TrackAllCombos: true, Sketch: sketch.Config{Enabled: sketchOn}}
			cfg.Workers = 1
			want := checkpointComponents(t, cfg)
			for _, workers := range []int{1, 2, 4} {
				cfg.Workers = workers
				got := checkpointComponents(t, cfg)
				for name, payload := range want {
					if !bytes.Equal(got[name], payload) {
						t.Errorf("workers=%d: component %q differs from the first serial run", workers, name)
					}
				}
			}
		})
	}
}
