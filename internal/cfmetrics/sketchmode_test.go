package cfmetrics

import (
	"testing"

	"toplists/internal/sketch"
	"toplists/internal/stats"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// runSketchPipeline mirrors runPipeline with sketch aggregation enabled in
// both the engine and the pipeline.
func runSketchPipeline(t testing.TB, combos []Combo, days int) *Pipeline {
	t.Helper()
	w := world.Generate(world.Config{Seed: 21, NumSites: 2000})
	e := traffic.NewEngine(w, traffic.Config{Seed: 22, NumClients: 500, Days: days, Sketch: sketch.Config{Enabled: true}})
	p := NewPipeline(w, combos)
	p.SetSketch()
	e.AddSink(p)
	e.Run()
	return p
}

// TestSketchCountMetricsExactUnderCapacity: with the universe smaller than
// the space-saving capacity nothing ever evicts, the space-saving count is
// the true count, and min(count, count-min estimate) is exact — so every
// count-aggregation day list must be byte-identical to the exact pipeline,
// tiebreaks included.
func TestSketchCountMetricsExactUnderCapacity(t *testing.T) {
	const days = 3
	_, exact := runPipeline(t, MetricCombos(), days)
	sk := runSketchPipeline(t, MetricCombos(), days)

	for _, m := range AllMetrics() {
		if m.Combo().Agg != AggCount {
			continue
		}
		for d := 0; d < days; d++ {
			a, b := exact.DayList(d, m.Combo()), sk.DayList(d, m.Combo())
			if len(a) != len(b) {
				t.Fatalf("%v day %d: exact %d sites, sketch %d", m, d, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v day %d rank %d: exact site %d, sketch site %d",
						m, d, i+1, a[i], b[i])
				}
			}
		}
	}
}

// TestSketchUniqueMetricsAgree: unique-visitor metrics go through per-key
// HLLs, so sketch lists are approximate — but at this scale the estimates
// sit in the near-exact linear-counting range and the published heads must
// agree almost everywhere with the exact oracle.
func TestSketchUniqueMetricsAgree(t *testing.T) {
	const days = 3
	_, exact := runPipeline(t, MetricCombos(), days)
	sk := runSketchPipeline(t, MetricCombos(), days)

	for _, m := range AllMetrics() {
		if m.Combo().Agg == AggCount {
			continue
		}
		for d := 0; d < days; d++ {
			a, b := exact.DayList(d, m.Combo()), sk.DayList(d, m.Combo())
			k := 200
			if k > len(a) {
				k = len(a)
			}
			if k > len(b) {
				k = len(b)
			}
			if j := stats.JaccardSlices(a[:k], b[:k]); j < 0.97 {
				t.Errorf("%v day %d: top-%d Jaccard %.3f < 0.97", m, d, k, j)
			}
		}
	}
}

// TestSketchShardHotPathZeroAllocs pins the per-event cost of the sketch
// aggregation path: once a shard state has seen every site, folding further
// page loads allocates nothing.
func TestSketchShardHotPathZeroAllocs(t *testing.T) {
	w := world.Generate(world.Config{Seed: 21, NumSites: 2000})
	p := NewPipeline(w, MetricCombos())
	p.SetSketch()
	sh := p.NewShardState()

	cl := &traffic.Client{ID: 7, UA: 0x9e3779b97f4a7c15}
	pl := &traffic.PageLoad{
		Client: cl, Root: true, Subresources: 9,
		HTMLRequests: 3, RefererRequests: 1, TLSConns: 2,
	}
	numSites := int32(w.NumSites())
	for s := int32(0); s < numSites; s++ {
		pl.Site = s
		pl.IP = uint32(40 + s%997)
		sh.OnPageLoad(pl)
	}

	var i uint64
	allocs := testing.AllocsPerRun(4096, func() {
		i++
		pl.Site = int32(i % uint64(numSites))
		pl.IP = uint32(1000 + i%257)
		sh.OnPageLoad(pl)
	})
	if allocs != 0 {
		t.Fatalf("sketch shard OnPageLoad allocates %.1f objects per event", allocs)
	}
}
