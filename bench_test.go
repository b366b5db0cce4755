package toplists

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per artifact) and reports the headline shape
// numbers as benchmark metrics, so `go test -bench=. -benchmem` doubles as
// the reproduction run. Absolute wall-clock is dominated by the simulation;
// the reported custom metrics are what EXPERIMENTS.md records against the
// paper's values.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"toplists/internal/core"
	"toplists/internal/experiments"
	"toplists/internal/world"
)

var (
	benchOnce  sync.Once
	benchStudy *core.Study
)

// benchScale is the shared study used by the artifact benchmarks: big
// enough for every shape to be visible, small enough to build in seconds.
func getBenchStudy(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy = core.NewStudy(core.Config{
			Seed:           2022,
			NumSites:       20000,
			NumClients:     3000,
			Days:           14,
			TrackAllCombos: true,
			EvalMagIdx:     1,
		})
		benchStudy.Run()
	})
	return benchStudy
}

func BenchmarkStudyBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewStudy(core.Config{
			Seed: uint64(i), NumSites: 2000, NumClients: 400, Days: 3,
		})
		s.Run()
		s.Close()
	}
}

// BenchmarkStudyBuildWorkers sweeps the engine worker count over a larger
// study so the speedup of the sharded simulation (engine.RunDay fans client
// shards out across goroutines, then merges their sink states in client
// order) is visible on multi-core machines. Output is identical at every width; only
// wall-clock changes.
func BenchmarkStudyBuildWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewStudy(core.Config{
					Seed: uint64(i), NumSites: 5000, NumClients: 1500, Days: 5,
					Workers: workers,
				})
				s.Run()
				s.Close()
			}
		})
	}
}

func BenchmarkFig1IntraCloudflare(b *testing.B) {
	s := getBenchStudy(b)
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig1(s)
		lo, hi = r.OffDiagonalRange()
	}
	b.ReportMetric(lo, "jj-band-lo")
	b.ReportMetric(hi, "jj-band-hi")
}

func BenchmarkFig2ListsVsCloudflare(b *testing.B) {
	s := getBenchStudy(b)
	var r *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig2(s)
	}
	b.ReportMetric(r.MeanJaccard("CrUX"), "jj-crux")
	b.ReportMetric(r.MeanJaccard("Umbrella"), "jj-umbrella")
	b.ReportMetric(r.MeanJaccard("Alexa"), "jj-alexa")
	b.ReportMetric(r.MeanJaccard("Secrank"), "jj-secrank")
	b.ReportMetric(r.MinMetricAgreement(), "metric-agreement")
}

func BenchmarkFig3Temporal(b *testing.B) {
	s := getBenchStudy(b)
	var r *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig3(s)
	}
	wd, we, _, _ := r.WeekdayWeekendSplit("Umbrella")
	b.ReportMetric(wd-we, "umbrella-weekday-minus-weekend-jj")
	b.ReportMetric(r.LateMonthImprovement("Alexa"), "alexa-late-month-jj-delta")
}

func BenchmarkFig4Platform(b *testing.B) {
	s := getBenchStudy(b)
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig4(s)
	}
	var mean float64
	for _, l := range r.Lists {
		mean += r.DesktopAdvantage(l)
	}
	b.ReportMetric(mean/float64(len(r.Lists)), "mean-desktop-advantage")
}

func BenchmarkFig5Movement(b *testing.B) {
	s := getBenchStudy(b)
	var r *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig5(s)
	}
	b.ReportMetric(r.OverrankFor("Alexa", 1).OverrankedPct, "alexa-overranked-pct")
	b.ReportMetric(r.OverrankFor("Alexa", 1).Overranked2Pct, "alexa-2mag-pct")
	b.ReportMetric(r.OverrankFor("CrUX", 1).OverrankedPct, "crux-overranked-pct")
}

func BenchmarkFig6IntraChrome(b *testing.B) {
	s := getBenchStudy(b)
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig6(s)
		lo, hi = r.OffDiagonalRange()
	}
	b.ReportMetric(lo, "jj-band-lo")
	b.ReportMetric(hi, "jj-band-hi")
}

func BenchmarkFig7Country(b *testing.B) {
	s := getBenchStudy(b)
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig7(s)
	}
	b.ReportMetric(r.JaccardFor("Secrank", world.CN), "secrank-cn-jj")
	b.ReportMetric(r.JaccardFor("Umbrella", world.US), "umbrella-us-jj")
	b.ReportMetric(r.JaccardFor("Alexa", world.JP), "alexa-jp-jj")
}

func BenchmarkFig8AllCombos(b *testing.B) {
	s := getBenchStudy(b)
	var r *experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunFig8(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Spearman[0][6], "all-vs-200-spearman")
	b.ReportMetric(r.Jaccard[0][6], "all-vs-200-jaccard")
}

// BenchmarkTable1Coverage times a cold Table 1: each iteration starts
// from an empty artifact store, so the probe table holds no verdicts and
// every listed host is probed.
func BenchmarkTable1Coverage(b *testing.B) {
	s := getBenchStudy(b)
	var r *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.ResetArtifacts()
		b.StartTimer()
		var err error
		r, err = experiments.RunTable1(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Coverage("CrUX", 3), "crux-coverage-pct")
	b.ReportMetric(r.Coverage("Alexa", 3), "alexa-coverage-pct")
	b.ReportMetric(r.Coverage("Umbrella", 3), "umbrella-coverage-pct")
	b.ReportMetric(r.Coverage("Secrank", 3), "secrank-coverage-pct")
}

func BenchmarkTable2PSL(b *testing.B) {
	s := getBenchStudy(b)
	var r *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunTable2(s)
	}
	b.ReportMetric(r.Deviation("Umbrella", 3), "umbrella-deviation-pct")
	b.ReportMetric(r.Deviation("CrUX", 3), "crux-deviation-pct")
	b.ReportMetric(r.Deviation("Tranco", 3), "tranco-deviation-pct")
}

func BenchmarkTable3Categories(b *testing.B) {
	s := getBenchStudy(b)
	var r *experiments.Table3Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunTable3(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	if o, ok := r.OddsFor("Alexa", world.Adult); ok {
		b.ReportMetric(o.OddsRatio, "alexa-adult-or")
	}
	if o, ok := r.OddsFor("CrUX", world.Adult); ok {
		b.ReportMetric(o.OddsRatio, "crux-adult-or")
	}
	if o, ok := r.OddsFor("Majestic", world.Government); ok {
		b.ReportMetric(o.OddsRatio, "majestic-gov-or")
	}
}

// renderAllOnce evaluates every paper experiment on a pool of the given
// width and renders each artifact to io.Discard, mirroring Study.RenderAll.
func renderAllOnce(b *testing.B, s *core.Study, workers int) {
	b.Helper()
	for _, oc := range experiments.RunConcurrent(context.Background(), s, experiments.All(), workers) {
		if oc.Err != nil {
			b.Fatal(oc.Err)
		}
		if err := oc.Result.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderAll measures the full artifact rendering path end to end:
// serial (workers=1) against the parallel pool (workers=0), each from a cold
// artifact store (every normalized list, metric ranking, and the Cloudflare
// probe recomputed) and from a warm one (everything already memoized, so the
// residual cost is the per-experiment comparison and rendering work).
func BenchmarkRenderAll(b *testing.B) {
	s := getBenchStudy(b)
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.ResetArtifacts()
				b.StartTimer()
				renderAllOnce(b, s, mode.workers)
			}
		})
		b.Run(mode.name+"/warm", func(b *testing.B) {
			s.ResetArtifacts()
			renderAllOnce(b, s, mode.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				renderAllOnce(b, s, mode.workers)
			}
		})
	}
}
