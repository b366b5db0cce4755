package cfmetrics

import (
	"bytes"
	"errors"
	"testing"

	"toplists/internal/snapshot"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

func multiEdgeWorld(t testing.TB, vantages, backends int) *world.World {
	t.Helper()
	return world.Generate(world.Config{
		Seed:     21,
		NumSites: 2000,
		Backends: backends,
		Vantages: world.DefaultVantages(vantages),
	})
}

func runPipelineSet(t testing.TB, vantages, backends, days int) (*world.World, *PipelineSet) {
	t.Helper()
	w := multiEdgeWorld(t, vantages, backends)
	ps := NewPipelineSet(w, AllCombos(), MetricCombos())
	e := traffic.NewEngine(w, traffic.Config{Seed: 22, NumClients: 500, Days: days})
	e.AddSink(ps.Primary())
	for _, p := range ps.Extras() {
		e.AddSink(p)
	}
	e.Run()
	return w, ps
}

func TestPipelineSetShape(t *testing.T) {
	w := multiEdgeWorld(t, 3, 2)
	ps := NewPipelineSet(w, AllCombos(), MetricCombos())
	if len(ps.pipes) != 3 || len(ps.pipes[0]) != 2 {
		t.Fatalf("grid is %dx%d, want 3x2", len(ps.pipes), len(ps.pipes[0]))
	}
	if got := len(ps.Extras()); got != 5 {
		t.Fatalf("extras = %d, want 5", got)
	}
	if ps.Primary() != ps.pipes[0][0] {
		t.Fatal("primary is not grid (0,0)")
	}
	if ps.Primary().Backend() != world.BackendCdnflare {
		t.Fatalf("primary backend = %v", ps.Primary().Backend())
	}
	if ps.Primary().Vantage().Name != "global" {
		t.Fatalf("primary vantage = %q", ps.Primary().Vantage().Name)
	}
	vi, bi, ok := ps.Index("eu-central", "edgecast")
	if !ok {
		t.Fatal("Index(eu-central, edgecast) not found")
	}
	if p := ps.pipes[vi][bi]; p.Vantage().Name != "eu-central" || p.Backend() != world.BackendEdgecast {
		t.Fatalf("Index(eu-central, edgecast) = (%d, %d): %s/%v", vi, bi, p.Vantage().Name, p.Backend())
	}
	if _, _, ok := ps.Index("nope", "edgecast"); ok {
		t.Fatal("Index accepted unknown vantage")
	}
	if _, _, ok := ps.Index("global", "akamai"); ok {
		t.Fatal("Index accepted undeployed backend")
	}
}

// TestPipelineSetPrimaryMatchesSingleEdge pins the refactor's core
// promise: the grid's primary pipeline produces exactly the lists the
// original single-edge pipeline did, even when extras run alongside it.
func TestPipelineSetPrimaryMatchesSingleEdge(t *testing.T) {
	const days = 2
	_, single := runPipeline(t, AllCombos(), days)
	_, ps := runPipelineSet(t, 3, 2, days)
	multi := ps.Primary()
	if single.NumDays() != multi.NumDays() {
		t.Fatalf("days: %d vs %d", single.NumDays(), multi.NumDays())
	}
	for d := 0; d < days; d++ {
		for _, c := range AllCombos() {
			a, b := single.DayList(d, c), multi.DayList(d, c)
			if len(a) != len(b) {
				t.Fatalf("day %d combo %v: %d vs %d sites", d, c, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("day %d combo %v rank %d: site %d vs %d", d, c, i, a[i], b[i])
				}
			}
		}
	}
}

// TestPipelineSetVantagesDiverge checks non-transparent vantages actually
// lose events: a regional vantage's all-requests day total must be below
// the transparent global vantage's.
func TestPipelineSetVantagesDiverge(t *testing.T) {
	_, ps := runPipelineSet(t, 3, 2, 1)
	c := MAllRequests.Combo()
	global := ps.Primary()
	for vi := 1; vi < len(ps.pipes); vi++ {
		regional := ps.pipes[vi][0]
		if v := regional.Vantage(); v.Transparent() {
			t.Fatalf("vantage %q should not be transparent", regional.Vantage().Name)
		}
		g, r := len(global.DayList(0, c)), len(regional.DayList(0, c))
		if r == 0 {
			t.Fatalf("vantage %q saw nothing", regional.Vantage().Name)
		}
		if r > g {
			t.Fatalf("vantage %q ranked %d sites, global ranked %d", regional.Vantage().Name, r, g)
		}
	}
}

func setSnap(t *testing.T, ps *PipelineSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ps.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPipelineSetSnapshotRoundTrip(t *testing.T) {
	w, ps := runPipelineSet(t, 3, 2, 2)
	snap := setSnap(t, ps)

	ps2 := NewPipelineSet(w, AllCombos(), MetricCombos())
	if err := ps2.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, setSnap(t, ps2)) {
		t.Fatal("restored set re-serializes differently")
	}
	for i, p := range ps.Extras() {
		q := ps2.Extras()[i]
		if p.NumDays() != q.NumDays() {
			t.Fatalf("extra %d days: %d vs %d", i, p.NumDays(), q.NumDays())
		}
		for d := 0; d < p.NumDays(); d++ {
			for _, c := range MetricCombos() {
				a, b := p.DayList(d, c), q.DayList(d, c)
				if len(a) != len(b) {
					t.Fatalf("extra %d day %d combo %v: %d vs %d", i, d, c, len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("extra %d day %d combo %v rank %d differs", i, d, c, j)
					}
				}
			}
		}
	}
}

func TestPipelineSetRestoreRejectsDamage(t *testing.T) {
	w, ps := runPipelineSet(t, 3, 2, 1)
	snap := setSnap(t, ps)

	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 1, len(snap) / 2, len(snap) - 1} {
			ps2 := NewPipelineSet(w, AllCombos(), MetricCombos())
			if err := ps2.Restore(bytes.NewReader(snap[:n])); err == nil {
				t.Fatalf("restore accepted %d/%d bytes", n, len(snap))
			}
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte{}, snap...)
		bad[0] = pipelineSetSnapVersion + 1
		ps2 := NewPipelineSet(w, AllCombos(), MetricCombos())
		if err := ps2.Restore(bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("version skew error = %v, want ErrVersion", err)
		}
	})
	t.Run("shape-mismatch", func(t *testing.T) {
		w2 := multiEdgeWorld(t, 2, 2)
		ps2 := NewPipelineSet(w2, AllCombos(), MetricCombos())
		if err := ps2.Restore(bytes.NewReader(snap)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("shape mismatch error = %v, want ErrCorrupt", err)
		}
	})
}

func TestMetricKeys(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range AllMetrics() {
		k := m.Key()
		if k == "" || seen[k] {
			t.Fatalf("metric %v key %q empty or duplicated", m, k)
		}
		seen[k] = true
		got, ok := MetricByKey(k)
		if !ok || got != m {
			t.Fatalf("MetricByKey(%q) = %v, %v", k, got, ok)
		}
	}
	if _, ok := MetricByKey("bogus"); ok {
		t.Fatal("MetricByKey accepted unknown key")
	}
}
