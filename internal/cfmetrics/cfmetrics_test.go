package cfmetrics

import (
	"testing"

	"toplists/internal/stats"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

func runPipeline(t testing.TB, combos []Combo, days int) (*world.World, *Pipeline) {
	t.Helper()
	w := world.Generate(world.Config{Seed: 21, NumSites: 2000})
	e := traffic.NewEngine(w, traffic.Config{Seed: 22, NumClients: 500, Days: days})
	p := NewPipeline(w, combos)
	e.AddSink(p)
	e.Run()
	return w, p
}

func TestComboEnumeration(t *testing.T) {
	combos := AllCombos()
	if len(combos) != 21 {
		t.Fatalf("len(AllCombos) = %d", len(combos))
	}
	seen := map[Combo]bool{}
	for _, c := range combos {
		if seen[c] {
			t.Fatalf("duplicate combo %v", c)
		}
		seen[c] = true
		if c.String() == "" {
			t.Fatal("empty combo name")
		}
	}
	if len(AllMetrics()) != 7 || len(MetricCombos()) != 7 {
		t.Fatal("canonical metric count")
	}
	mseen := map[Combo]bool{}
	for _, m := range AllMetrics() {
		c := m.Combo()
		if mseen[c] {
			t.Fatalf("metric combo %v duplicated", c)
		}
		mseen[c] = true
		if m.String() == "" {
			t.Fatal("empty metric name")
		}
	}
}

func TestRequestBased(t *testing.T) {
	wantTrue := []Metric{MAllRequests, MTLSHandshakes, MRootRequests, MTopBrowserRequests}
	wantFalse := []Metric{MUniqueIP, MUniqueIPRoot, MUniqueIPBrowsers}
	for _, m := range wantTrue {
		if m.Combo().Agg != AggCount {
			t.Errorf("%v should be request-based", m)
		}
	}
	for _, m := range wantFalse {
		if m.Combo().Agg == AggCount {
			t.Errorf("%v should not be request-based", m)
		}
	}
}

func TestPipelineOnlySeesCloudflare(t *testing.T) {
	w, p := runPipeline(t, MetricCombos(), 2)
	for d := 0; d < p.NumDays(); d++ {
		for _, m := range AllMetrics() {
			for _, id := range p.DayList(d, m.Combo()) {
				if !w.Site(id).Cloudflare() {
					t.Fatalf("day %d metric %v ranked non-CF site %d", d, m, id)
				}
			}
		}
	}
}

func TestPipelineProducesDailyLists(t *testing.T) {
	_, p := runPipeline(t, MetricCombos(), 3)
	if p.NumDays() != 3 {
		t.Fatalf("NumDays = %d", p.NumDays())
	}
	for _, m := range AllMetrics() {
		ids := p.DayList(0, m.Combo())
		if len(ids) == 0 {
			t.Fatalf("metric %v produced empty list", m)
		}
		seen := map[int32]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("metric %v duplicate site", m)
			}
			seen[id] = true
		}
	}
}

func TestRootLoadsBoundRequests(t *testing.T) {
	// Section 3.4: root loads and all requests bookend page loads, so the
	// all-requests score must dominate root loads for every site. Compare
	// list membership head: the top list by requests should rank more
	// total volume than root loads.
	_, p := runPipeline(t, []Combo{
		{FilterAll, AggCount}, {FilterRoot, AggCount},
	}, 1)
	all := p.DayList(0, Combo{FilterAll, AggCount})
	root := p.DayList(0, Combo{FilterRoot, AggCount})
	if len(root) > len(all) {
		t.Fatalf("more sites with root loads (%d) than with requests (%d)", len(root), len(all))
	}
}

func TestMetricsCorrelatedButDistinct(t *testing.T) {
	w, p := runPipeline(t, MetricCombos(), 1)
	_ = w
	all := p.MetricRanking(0, MAllRequests)
	root := p.MetricRanking(0, MRootRequests)
	// They must overlap substantially but not be identical (Figure 1).
	jj := stats.JaccardSlices(topN(all.Names(), 200), topN(root.Names(), 200))
	if jj < 0.1 {
		t.Errorf("all vs root Jaccard = %.3f, too low", jj)
	}
	if jj > 0.99 {
		t.Errorf("all vs root Jaccard = %.3f, suspiciously identical", jj)
	}
}

func topN(names []string, n int) []string {
	if n > len(names) {
		n = len(names)
	}
	return names[:n]
}

func TestDayRankingMatchesDayList(t *testing.T) {
	w, p := runPipeline(t, MetricCombos(), 1)
	ids := p.DayList(0, MAllRequests.Combo())
	r := p.MetricRanking(0, MAllRequests)
	if r.Len() != len(ids) {
		t.Fatal("length mismatch")
	}
	for i, id := range ids {
		if r.At(i+1) != w.Site(id).Domain {
			t.Fatalf("rank %d: %q != %q", i+1, r.At(i+1), w.Site(id).Domain)
		}
	}
}

func TestUntrackedComboPanics(t *testing.T) {
	_, p := runPipeline(t, []Combo{{FilterAll, AggCount}}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for untracked combo")
		}
	}()
	p.DayList(0, Combo{FilterTLS, AggCount})
}

func TestUniqueIPLessThanRequests(t *testing.T) {
	w, p := runPipeline(t, []Combo{
		{FilterAll, AggCount}, {FilterAll, AggUniqueIP},
	}, 1)
	_ = w
	counts := p.DayList(0, Combo{FilterAll, AggCount})
	ips := p.DayList(0, Combo{FilterAll, AggUniqueIP})
	// Both lists should rank the same universe of sites (every request has
	// an IP), just in different orders.
	if len(counts) != len(ips) {
		t.Fatalf("site coverage differs: %d vs %d", len(counts), len(ips))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	_, p1 := runPipeline(t, MetricCombos(), 2)
	_, p2 := runPipeline(t, MetricCombos(), 2)
	for d := 0; d < 2; d++ {
		for _, m := range AllMetrics() {
			a := p1.DayList(d, m.Combo())
			b := p2.DayList(d, m.Combo())
			if len(a) != len(b) {
				t.Fatalf("day %d metric %v lengths differ", d, m)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("day %d metric %v diverges at %d", d, m, i)
				}
			}
		}
	}
}

func BenchmarkPipelineDay(b *testing.B) {
	w := world.Generate(world.Config{Seed: 1, NumSites: 5000})
	e := traffic.NewEngine(w, traffic.Config{Seed: 2, NumClients: 800, Days: 28})
	p := NewPipeline(w, MetricCombos())
	e.AddSink(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Day() == e.Cfg.Days {
			b.StopTimer()
			e = traffic.NewEngine(w, traffic.Config{Seed: 2, NumClients: 800, Days: 28})
			e.AddSink(p)
			b.StartTimer()
		}
		e.RunDay(e.Day())
	}
}
