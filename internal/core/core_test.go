package core

import (
	"math"
	"testing"

	"toplists/internal/cfmetrics"
	"toplists/internal/names"
	"toplists/internal/rank"
	"toplists/internal/world"
)

// sharedStudy is built once: study runs are the expensive fixture here.
var sharedStudy *Study

func getStudy(t testing.TB) *Study {
	t.Helper()
	if sharedStudy == nil {
		sharedStudy = NewStudy(Config{
			Seed: 101, NumSites: 2500, NumClients: 1200, Days: 7,
		})
		sharedStudy.Run()
	}
	return sharedStudy
}

// idOf interns name into the shared table that rank.MustNew rankings use,
// so test fixtures can key ID-based evaluation inputs.
func idOf(name string) names.ID { return rank.MustNew(nil).Table().Intern(name) }

// idSet is the set of the given names' IDs in that shared table.
func idSet(ns ...string) *names.Set {
	ids := make([]names.ID, len(ns))
	for i, n := range ns {
		ids[i] = idOf(n)
	}
	return names.NewSet(ids)
}

func TestStudyWiring(t *testing.T) {
	s := getStudy(t)
	if len(s.Lists()) != 7 {
		t.Fatalf("lists = %d", len(s.Lists()))
	}
	if len(s.RankedLists()) != 6 {
		t.Fatalf("ranked lists = %d", len(s.RankedLists()))
	}
	if s.Pipeline.NumDays() != 7 {
		t.Fatalf("pipeline days = %d", s.Pipeline.NumDays())
	}
	for _, p := range s.Lists() {
		if p.Raw(0).Len() == 0 {
			t.Fatalf("%s empty", p.Name())
		}
	}
}

func TestMustRunPanics(t *testing.T) {
	s := NewStudy(Config{Seed: 1, NumSites: 100, NumClients: 10, Days: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic before Run")
		}
	}()
	s.Lists()
}

func TestCFDomainsMatchWorld(t *testing.T) {
	s := getStudy(t)
	probed := s.Artifacts().CFDomains()
	truth := s.World.CloudflareSet()
	if len(probed) != len(truth) {
		t.Fatalf("probe found %d, world has %d", len(probed), len(truth))
	}
	for d := range probed {
		if _, ok := truth[d]; !ok {
			t.Fatalf("%s probed CF but is not", d)
		}
	}
}

func TestJaccardTopK(t *testing.T) {
	a := rank.MustNew([]string{"a", "b", "c", "d"})
	b := rank.MustNew([]string{"b", "a", "x", "y"})
	if jj := JaccardTopK(a, b, 2); jj != 1 {
		t.Errorf("top2 jaccard = %v", jj)
	}
	if jj := JaccardTopK(a, b, 4); math.Abs(jj-2.0/6.0) > 1e-12 {
		t.Errorf("top4 jaccard = %v", jj)
	}
}

func TestSpearmanTopK(t *testing.T) {
	a := rank.MustNew([]string{"a", "b", "c", "d", "e"})
	same := rank.MustNew([]string{"a", "b", "c", "d", "e"})
	rs, n, err := SpearmanTopK(a, same, 5)
	if err != nil || n != 5 || math.Abs(rs-1) > 1e-12 {
		t.Errorf("identical lists: rs=%v n=%d err=%v", rs, n, err)
	}
	rev := rank.MustNew([]string{"e", "d", "c", "b", "a"})
	rs, _, err = SpearmanTopK(a, rev, 5)
	if err != nil || math.Abs(rs+1) > 1e-12 {
		t.Errorf("reversed lists: rs=%v err=%v", rs, err)
	}
}

func TestEvalListVsMetricPerfectList(t *testing.T) {
	// A list identical to the CF metric must score Jaccard 1, Spearman 1.
	cf := rank.MustNew([]string{"a.com", "b.com", "c.com", "d.com"})
	cfSet := idSet("a.com", "b.com", "c.com", "d.com")
	res := EvalListVsMetric(cf, cfSet, cf, 4, false)
	if res.N != 4 || res.Jaccard != 1 || !res.SpearmanOK || math.Abs(res.Spearman-1) > 1e-12 {
		t.Errorf("res = %+v", res)
	}
}

func TestEvalListVsMetricFiltersNonCF(t *testing.T) {
	cf := rank.MustNew([]string{"a.com", "b.com"})
	cfSet := idSet("a.com", "b.com")
	list := rank.MustNew([]string{"x.com", "a.com", "y.com", "b.com"})
	res := EvalListVsMetric(list, cfSet, cf, 4, false)
	if res.N != 2 {
		t.Fatalf("N = %d, want 2 (non-CF filtered)", res.N)
	}
	if res.Jaccard != 1 {
		t.Errorf("jaccard = %v", res.Jaccard)
	}
}

func TestEvalListVsMetricBucketed(t *testing.T) {
	cf := rank.MustNew([]string{"a.com", "b.com"})
	cfSet := idSet("a.com", "b.com")
	res := EvalListVsMetric(cf, cfSet, cf, 2, true)
	if res.SpearmanOK {
		t.Error("bucketed list must not get a Spearman value")
	}
	if res.Jaccard != 1 {
		t.Error("bucketed list still gets Jaccard")
	}
}

func TestEvalListVsMetricEmpty(t *testing.T) {
	cf := rank.MustNew([]string{"a.com"})
	list := rank.MustNew([]string{"x.com"})
	res := EvalListVsMetric(list, idSet("a.com"), cf, 1, false)
	if res.N != 0 || res.Jaccard != 0 || res.SpearmanOK {
		t.Errorf("res = %+v", res)
	}
}

func TestMeanListVsMetric(t *testing.T) {
	daily := []ListVsMetric{
		{N: 10, Jaccard: 0.2, Spearman: 0.5, SpearmanOK: true},
		{N: 20, Jaccard: 0.4, Spearman: 0.7, SpearmanOK: true},
	}
	m := MeanListVsMetric(daily)
	if m.N != 15 || math.Abs(m.Jaccard-0.3) > 1e-12 || math.Abs(m.Spearman-0.6) > 1e-12 {
		t.Errorf("mean = %+v", m)
	}
	if got := MeanListVsMetric(nil); got.N != 0 {
		t.Error("empty mean")
	}
}

func TestMeanListVsMetricRoundsN(t *testing.T) {
	// The mean intersection size rounds to the nearest integer rather than
	// truncating: 10,11 averages to 10.5 and reports 11, while 10,10,11
	// averages to 10.33 and reports 10.
	up := []ListVsMetric{{N: 10}, {N: 11}}
	if got := MeanListVsMetric(up).N; got != 11 {
		t.Errorf("mean N of 10,11 = %d, want 11 (round half up)", got)
	}
	down := []ListVsMetric{{N: 10}, {N: 10}, {N: 11}}
	if got := MeanListVsMetric(down).N; got != 10 {
		t.Errorf("mean N of 10,10,11 = %d, want 10", got)
	}
}

func TestAgreedBuckets(t *testing.T) {
	bk := rank.Bucketer{Magnitudes: [4]int{2, 4, 8, 16}}
	m1 := rank.MustNew([]string{"a", "b", "c", "d", "e", "f"})
	m3 := rank.MustNew([]string{"b", "a", "e", "c", "d", "f"})
	agreed := AgreedBuckets(m1, m3, bk)
	// a: m1 rank1 (bucket0), m3 rank2 (bucket0) -> agreed bucket0.
	if b, ok := agreed[idOf("a")]; !ok || b != rank.Bucket1K {
		t.Errorf("a: %v %v", b, ok)
	}
	// e: m1 rank5 (bucket2), m3 rank3 (bucket1) -> disagree.
	if _, ok := agreed[idOf("e")]; ok {
		t.Error("e should disagree")
	}
}

func TestComputeMovementAndOverrank(t *testing.T) {
	bk := rank.Bucketer{Magnitudes: [4]int{2, 4, 8, 16}}
	agreed := map[names.ID]rank.Bucket{
		idOf("a"): rank.Bucket1K,  // CF says head
		idOf("b"): rank.Bucket10K, // CF says 2nd bucket
		idOf("c"): rank.Bucket1M,  // CF says 4th bucket
	}
	// List ranks: a at 1 (bucket0: correct), c at 2 (bucket0: overranked
	// by 3), b missing (underranked to beyond).
	list := rank.MustNew([]string{"a", "c"})
	mv := ComputeMovement(agreed, list, bk)
	if mv.Matrix[rank.Bucket1K][rank.Bucket1K] != 1 {
		t.Error("a flow")
	}
	if mv.Matrix[rank.Bucket1M][rank.Bucket1K] != 1 {
		t.Error("c flow")
	}
	if mv.Matrix[rank.Bucket10K][rank.BucketBeyond] != 1 {
		t.Error("b flow")
	}

	st := ComputeOverrank(agreed, list, bk, 0)
	if st.N != 2 {
		t.Fatalf("N = %d", st.N)
	}
	if math.Abs(st.OverrankedPct-50) > 1e-9 || math.Abs(st.Overranked2Pct-50) > 1e-9 {
		t.Errorf("overrank = %+v", st)
	}
}

func TestCategoryBiasRecoversPlantedBias(t *testing.T) {
	s := getStudy(t)
	day := s.Cfg.Days - 1
	cfTop := s.Pipeline.MetricRanking(day, cfmetrics.MAllRequests)
	list, _ := s.Alexa.Normalized(day, s.PSL)
	odds, err := CategoryBias(s.World, cfTop, list, s.Bucketer.Magnitudes[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(odds) != world.NumCategories {
		t.Fatalf("rows = %d", len(odds))
	}
	byCat := map[world.Category]CategoryOdds{}
	for _, o := range odds {
		byCat[o.Category] = o
		if o.OddsRatio < 0 || math.IsNaN(o.OddsRatio) {
			t.Fatalf("bad OR for %v: %v", o.Category, o.OddsRatio)
		}
	}
	adult := byCat[world.Adult]
	if adult.Included+adult.Excluded > 5 && adult.OddsRatio >= 1 {
		t.Errorf("Alexa adult OR = %.2f, want < 1 (private-browsing bias)", adult.OddsRatio)
	}
}

func TestCompareListToChromeCell(t *testing.T) {
	list := rank.MustNew([]string{"a", "b", "c", "x"})
	cell := rank.MustNew([]string{"a", "b", "c"})
	res := CompareListToChromeCell(list, cell, 4)
	if res.Jaccard != 1 || !res.SpearmanOK || math.Abs(res.Spearman-1) > 1e-12 {
		t.Errorf("res = %+v", res)
	}
	empty := CompareListToChromeCell(rank.MustNew([]string{"q"}), cell, 1)
	if empty.Jaccard != 0 || empty.SpearmanOK {
		t.Errorf("empty = %+v", empty)
	}
}

// TestStudyEndToEndDeterminism: two studies with identical configs must
// produce byte-identical lists — the repo-level reproducibility guarantee.
func TestStudyEndToEndDeterminism(t *testing.T) {
	build := func() *Study {
		s := NewStudy(Config{Seed: 404, NumSites: 800, NumClients: 200, Days: 3})
		s.Run()
		return s
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	for i, la := range a.Lists() {
		lb := b.Lists()[i]
		ra, rb := la.Raw(2), lb.Raw(2)
		if ra.Len() != rb.Len() {
			t.Fatalf("%s: lengths differ (%d vs %d)", la.Name(), ra.Len(), rb.Len())
		}
		for j := 1; j <= ra.Len(); j++ {
			if ra.At(j) != rb.At(j) {
				t.Fatalf("%s diverges at rank %d: %q vs %q", la.Name(), j, ra.At(j), rb.At(j))
			}
		}
	}
	for d := 0; d < 3; d++ {
		for _, m := range cfmetrics.AllMetrics() {
			la := a.Pipeline.DayList(d, m.Combo())
			lb := b.Pipeline.DayList(d, m.Combo())
			if len(la) != len(lb) {
				t.Fatalf("metric %v day %d lengths differ", m, d)
			}
			for j := range la {
				if la[j] != lb[j] {
					t.Fatalf("metric %v day %d diverges at %d", m, d, j)
				}
			}
		}
	}
}
