package chrome

import (
	"bytes"
	"strings"
	"testing"

	"toplists/internal/rank"
	"toplists/internal/sketch"
	"toplists/internal/stats"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

func runTelemetry(t testing.TB) (*world.World, *Telemetry) {
	t.Helper()
	w := world.Generate(world.Config{Seed: 31, NumSites: 1500})
	e := traffic.NewEngine(w, traffic.Config{Seed: 32, NumClients: 1200, Days: 7})
	tel := NewTelemetry(w)
	e.AddSink(tel)
	e.Run()
	return w, tel
}

func TestTelemetryOnlyChromeSync(t *testing.T) {
	w := world.Generate(world.Config{Seed: 33, NumSites: 500})
	tel := NewTelemetry(w)
	site := firstPublicSite(w)
	noSync := &traffic.Client{ID: 1, Browser: traffic.Firefox}
	observe(tel, &traffic.PageLoad{Site: site, Client: noSync, Completed: true})
	sync := &traffic.Client{ID: 2, Browser: traffic.Chrome, ChromeSync: true}
	observe(tel, &traffic.PageLoad{Site: site, Client: sync, Private: true, Completed: true})
	if r := tel.Ranking(world.US, world.Windows, InitiatedPageLoads); r.Len() != 0 {
		t.Fatal("non-sync or private loads were recorded")
	}
	observe(tel, &traffic.PageLoad{Site: site, Client: sync, Completed: true, DwellSec: 9})
	if r := tel.Ranking(world.US, world.Windows, InitiatedPageLoads); r.Len() != 1 {
		t.Fatal("sync load not recorded")
	}
	if r := tel.Ranking(world.US, world.Android, InitiatedPageLoads); r.Len() != 0 {
		t.Fatal("recorded under wrong platform")
	}
}

// observe folds one page load into the collector through a shard state,
// as the engine's day barrier does.
func observe(tel *Telemetry, pl *traffic.PageLoad) {
	st := tel.NewShardState()
	st.OnPageLoad(pl)
	tel.MergeShard(st)
}

func firstPublicSite(w *world.World) int32 {
	for i := 0; i < w.NumSites(); i++ {
		if !w.Site(int32(i)).NonPublic {
			return int32(i)
		}
	}
	panic("no public site")
}

func TestNonPublicExcluded(t *testing.T) {
	w, tel := runTelemetry(t)
	for _, c := range world.AllCountries() {
		for _, p := range world.AllPlatforms() {
			for _, m := range AllTelemetryMetrics() {
				r := tel.Ranking(c, p, m)
				for _, name := range r.Names() {
					id, _ := w.ByDomain(name)
					if w.Site(id).NonPublic {
						t.Fatalf("non-public domain %s in telemetry", name)
					}
				}
			}
		}
	}
}

func TestInitiatedDominatesCompleted(t *testing.T) {
	_, tel := runTelemetry(t)
	ini := tel.Ranking(world.US, world.Windows, InitiatedPageLoads)
	com := tel.Ranking(world.US, world.Windows, CompletedPageLoads)
	if com.Len() > ini.Len() {
		t.Fatalf("completed sites %d > initiated sites %d", com.Len(), ini.Len())
	}
	if ini.Len() == 0 {
		t.Fatal("no US/Windows telemetry at this scale")
	}
}

// TestIntraChromeConsistency verifies the Figure 6 property: the three
// Chrome metrics agree with each other more strongly than typical
// cross-vantage comparisons (Jaccard 0.73-0.86 in the paper).
func TestIntraChromeConsistency(t *testing.T) {
	_, tel := runTelemetry(t)
	ini := tel.Ranking(world.US, world.Windows, InitiatedPageLoads)
	com := tel.Ranking(world.US, world.Windows, CompletedPageLoads)
	n := 300
	jj := stats.JaccardSlices(ini.Names()[:min(n, ini.Len())], com.Names()[:min(n, com.Len())])
	if jj < 0.6 {
		t.Errorf("initiated vs completed Jaccard = %.3f, want high", jj)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDeriveCrux(t *testing.T) {
	w, tel := runTelemetry(t)
	bk := rank.ScaledMagnitudes(w.NumSites())
	crux := tel.DeriveCrux(2, bk)
	if crux.Len() == 0 {
		t.Fatal("empty CrUX list")
	}
	if crux.OriginRanking().Len() != crux.Len() {
		t.Fatal("ranking length mismatch")
	}
	prev := rank.Bucket(0)
	for i, e := range crux.Entries {
		if !strings.HasPrefix(e.Origin, "https://") && !strings.HasPrefix(e.Origin, "http://") {
			t.Fatalf("entry %d is not an origin: %q", i, e.Origin)
		}
		if e.Bucket < prev {
			t.Fatalf("bucket order violated at %d", i)
		}
		prev = e.Bucket
		if want := bk.BucketOf(i + 1); e.Bucket != want {
			t.Fatalf("entry %d bucket %v, want %v", i, e.Bucket, want)
		}
	}
}

func TestCruxThresholdFilters(t *testing.T) {
	_, tel := runTelemetry(t)
	bk := rank.PaperBucketer
	loose := tel.DeriveCrux(1, bk)
	strict := tel.DeriveCrux(8, bk)
	if strict.Len() >= loose.Len() {
		t.Fatalf("threshold did not filter: strict %d >= loose %d", strict.Len(), loose.Len())
	}
}

func TestCruxMultipleOriginsPerSite(t *testing.T) {
	w, tel := runTelemetry(t)
	_ = w
	crux := tel.DeriveCrux(1, rank.PaperBucketer)
	hosts := map[string]int{}
	multi := false
	for _, e := range crux.Entries {
		host := strings.TrimPrefix(strings.TrimPrefix(e.Origin, "https://"), "http://")
		base := host
		if i := strings.Index(host, "."); i >= 0 && (strings.HasPrefix(host, "www.") || strings.Count(host, ".") > 1) {
			base = host[strings.Index(host, ".")+1:]
		}
		hosts[base]++
		if hosts[base] > 1 {
			multi = true
		}
	}
	if !multi {
		t.Error("expected at least one site with multiple origins (www + apex)")
	}
}

func TestMetricStrings(t *testing.T) {
	for _, m := range AllTelemetryMetrics() {
		if m.String() == "" {
			t.Fatal("empty metric name")
		}
	}
}

func TestTelemetryMatchesAcrossWorkers(t *testing.T) {
	run := func(workers int, sketchOn bool) []byte {
		w := world.Generate(world.Config{Seed: 35, NumSites: 1500})
		tel := NewTelemetry(w)
		if sketchOn {
			tel.SetSketch()
		}
		e := traffic.NewEngine(w, traffic.Config{Seed: 36, NumClients: 400, Days: 3,
			Workers: workers, Sketch: sketch.Config{Enabled: sketchOn}})
		e.AddSink(tel)
		e.Run()
		var buf bytes.Buffer
		if err := tel.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, sketchOn := range []bool{false, true} {
		if !bytes.Equal(run(1, sketchOn), run(3, sketchOn)) {
			t.Errorf("sketch=%v: snapshot differs between 1 and 3 workers", sketchOn)
		}
	}
}
