package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Error("re-registering a counter returned a different instance")
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Max(3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge after Max(3) = %d, want 7", got)
	}
	g.Max(11)
	if got := g.Value(); got != 11 {
		t.Errorf("gauge after Max(11) = %d, want 11", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	r.Gauge("g").Set(3)
	r.GaugeFunc("gf", func() int64 { return 1 })
	r.Histogram("h").Observe(time.Second)
	sp := r.Span("p")
	sp.End()
	var m *CacheMetrics
	m.Hit()
	m.Miss()
	m.Wait()
	m.ObserveBuildSpan(time.Now(), time.Second)
	var l *Logger
	l.Infof("dropped")
	rep := r.Snapshot()
	if rep.Schema != Schema {
		t.Errorf("nil snapshot schema = %q", rep.Schema)
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, time.Second, -time.Second} {
		h.Observe(d)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	rep := r.Snapshot()
	ds, ok := rep.Durations["h"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if ds.MinNS != -int64(time.Second) {
		t.Errorf("min = %d, want %d", ds.MinNS, -int64(time.Second))
	}
	if ds.MaxNS != int64(time.Second) {
		t.Errorf("max = %d, want %d", ds.MaxNS, int64(time.Second))
	}
	if ds.P99NS < int64(time.Second)/2 {
		t.Errorf("p99 = %d, implausibly below the max bucket", ds.P99NS)
	}
	if ds.P50NS <= 0 || ds.P50NS > int64(2*time.Millisecond) {
		t.Errorf("p50 = %d, want within a bucket of 1ms", ds.P50NS)
	}
}

func TestBucketIndexProperties(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5 * time.Hour, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestSpanRecordsPhase(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("phase.x")
	time.Sleep(time.Millisecond)
	sp.End()
	rep := r.Snapshot()
	ps, ok := rep.Phases["phase.x"]
	if !ok || ps.Count != 1 {
		t.Fatalf("phase stats = %+v, ok=%v", ps, ok)
	}
	if time.Duration(ps.TotalNS) < time.Millisecond/2 {
		t.Errorf("phase total = %v, want >= ~1ms", time.Duration(ps.TotalNS))
	}
}

// TestDeterministicSubset: volatile metrics stay out of the deterministic
// bytes; two registries with the same deterministic activity but different
// volatile activity produce identical Deterministic output.
func TestDeterministicSubset(t *testing.T) {
	build := func(waits int64, dur time.Duration) []byte {
		r := NewRegistry()
		r.Counter("events").Add(100)
		r.Gauge("size").Set(42)
		r.Counter("pool.waits", Volatile).Add(waits)
		r.Gauge("pool.width", Volatile).Set(waits)
		r.Histogram("phase").Observe(dur)
		b, err := r.Snapshot().Deterministic()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := build(3, time.Millisecond)
	b := build(9, time.Hour)
	if !bytes.Equal(a, b) {
		t.Errorf("deterministic bytes differ:\n%s\nvs\n%s", a, b)
	}
	var sub struct {
		Schema   string           `json:"schema"`
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(a, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Schema != Schema || sub.Counters["events"] != 100 || sub.Gauges["size"] != 42 {
		t.Errorf("deterministic subset content wrong: %+v", sub)
	}
	if _, ok := sub.Counters["pool.waits"]; ok {
		t.Error("volatile counter leaked into the deterministic subset")
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := int64(1)
	r.GaugeFunc("live", func() int64 { return n })
	n = 17
	if got := r.Snapshot().Gauges["live"]; got != 17 {
		t.Errorf("gauge func = %d, want 17 (must be read at snapshot time)", got)
	}
}

func TestSummaryAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.events.pageload").Add(12345)
	r.Gauge("names.interned").Set(99)
	r.Counter("cache.waits", Volatile).Add(2)
	r.Histogram("engine.day").Observe(3 * time.Millisecond)
	r.Span("phase.simulate").End()
	rep := r.Snapshot()
	rep.Meta = map[string]string{"seed": "7"}

	var sum strings.Builder
	if err := rep.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run phases", "engine.events.pageload", "12345", "names.interned", "volatile", "engine.day"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Schema != Schema || back.Meta["seed"] != "7" || back.Counters["engine.events.pageload"] != 12345 {
		t.Errorf("round-tripped report wrong: %+v", back)
	}
}

// TestHotPathZeroAllocs is the zero-overhead guard of the obs primitives:
// the operations that sit on simulation and probe hot paths — counter
// increments, gauge stores, histogram observations, and span start/stop on
// a cached phase — must allocate nothing.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.counter")
	g := r.Gauge("hot.gauge")
	h := r.Histogram("hot.hist")
	p := r.Phase("hot.phase")
	checks := []struct {
		name string
		fn   func()
	}{
		{"counter.add", func() { c.Add(3) }},
		{"gauge.set", func() { g.Set(9) }},
		{"gauge.max", func() { g.Max(12) }},
		{"hist.observe", func() { h.Observe(5 * time.Microsecond) }},
		{"phase.span", func() { p.Start().End() }},
		{"registry.span", func() { r.Span("hot.phase").End() }},
	}
	for _, ck := range checks {
		if allocs := testing.AllocsPerRun(200, ck.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", ck.name, allocs)
		}
	}
	// Nil variants must be free too: uninstrumented components pay only a
	// branch.
	var nc *Counter
	var nh *Histogram
	if allocs := testing.AllocsPerRun(200, func() { nc.Inc(); nh.Observe(1) }); allocs != 0 {
		t.Errorf("nil primitives allocate: %.1f allocs/op", allocs)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines —
// registration, increments, observations, spans, and snapshots all racing —
// and then checks the totals. Run under -race this is the registry's
// thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.count").Inc()
				r.Counter("shared.volatile", Volatile).Inc()
				r.Gauge("shared.gauge").Max(int64(i))
				r.Histogram("shared.hist").Observe(time.Duration(i) * time.Microsecond)
				sp := r.Span("shared.phase")
				sp.End()
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	rep := r.Snapshot()
	if got := rep.Counters["shared.count"]; got != workers*iters {
		t.Errorf("shared.count = %d, want %d", got, workers*iters)
	}
	if got := rep.Volatile["shared.volatile"]; got != workers*iters {
		t.Errorf("shared.volatile = %d, want %d", got, workers*iters)
	}
	if got := rep.Durations["shared.hist"].Count; got != workers*iters {
		t.Errorf("hist count = %d, want %d", got, workers*iters)
	}
	if got := rep.Phases["shared.phase"].Count; got != workers*iters {
		t.Errorf("phase count = %d, want %d", got, workers*iters)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Errorf("e1")
	l.Infof("i1")
	l.Debugf("d1")
	got := buf.String()
	if !strings.Contains(got, "e1") || !strings.Contains(got, "i1") {
		t.Errorf("error/info dropped at LevelInfo: %q", got)
	}
	if strings.Contains(got, "d1") {
		t.Errorf("debug leaked at LevelInfo: %q", got)
	}
	if !l.Enabled(LevelInfo) || l.Enabled(LevelDebug) {
		t.Error("Enabled thresholds wrong")
	}
	buf.Reset()
	q := NewLogger(&buf, LevelError)
	q.Infof("hidden")
	q.Errorf("shown")
	if got := buf.String(); got != "shown\n" {
		t.Errorf("quiet logger wrote %q, want only the error", got)
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("probe.attempts").Add(3)
	d, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "probe.attempts") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if code, _ := get("/debug/vars"); code != http.StatusOK {
		t.Errorf("/debug/vars: code %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
}
