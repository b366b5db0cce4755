package traffic

import (
	"testing"

	"toplists/internal/obs"
	"toplists/internal/world"
)

func testSetup(t testing.TB, seed uint64, clients, days int) (*world.World, *Engine) {
	t.Helper()
	w := world.Generate(world.Config{Seed: seed, NumSites: 1500})
	e := NewEngine(w, Config{Seed: seed + 1, NumClients: clients, Days: days})
	return w, e
}

// recorder captures aggregate statistics about the event stream.
type recorder struct {
	BaseSink
	pageLoads    int
	botBatches   int
	dnsQueries   int
	infraQueries int
	days         []bool // weekend flags per day
	ended        int

	bySite     map[int32]int
	byDay      []int
	private    int
	atWork     int
	reqTotal   int
	botReqs    int
	violations []string
}

func newRecorder(days int) *recorder {
	return &recorder{bySite: make(map[int32]int), byDay: make([]int, days)}
}

func (r *recorder) BeginDay(d int, weekend bool) { r.days = append(r.days, weekend) }
func (r *recorder) EndDay(d int)                 { r.ended++ }

func (r *recorder) OnPageLoad(pl *PageLoad) {
	r.pageLoads++
	r.bySite[pl.Site]++
	r.byDay[pl.Day]++
	r.reqTotal += pl.Requests()
	if pl.Private {
		r.private++
	}
	if pl.AtWork {
		r.atWork++
	}
	if pl.Subresources < 0 || pl.Non200 > pl.Requests() ||
		pl.HTMLRequests > pl.Requests() || pl.RefererRequests > pl.Requests() {
		r.violations = append(r.violations, "request accounting")
	}
	if pl.TLSConns > pl.Requests() {
		r.violations = append(r.violations, "more TLS conns than requests")
	}
	if pl.Second < 0 || pl.Second >= 86400 {
		r.violations = append(r.violations, "bad second")
	}
}

func (r *recorder) OnBotBatch(bb *BotBatch) {
	r.botBatches++
	r.botReqs += bb.Requests
	if bb.Requests <= 0 || len(bb.IPs) == 0 {
		r.violations = append(r.violations, "empty bot batch")
	}
	if bb.RootRequests > bb.Requests || bb.Non200 > bb.Requests {
		r.violations = append(r.violations, "bot accounting")
	}
}

func (r *recorder) OnDNSQuery(q *DNSQuery) {
	r.dnsQueries++
	if q.Infra >= 0 {
		r.infraQueries++
		if q.Site != -1 {
			r.violations = append(r.violations, "query with both site and infra")
		}
	}
}

func TestEngineBasicRun(t *testing.T) {
	_, e := testSetup(t, 1, 300, 7)
	r := newRecorder(7)
	e.AddSink(r)
	e.Run()

	if len(r.violations) > 0 {
		t.Fatalf("violations: %v (x%d)", r.violations[0], len(r.violations))
	}
	if r.ended != 7 || len(r.days) != 7 {
		t.Fatalf("day hooks: begin %d end %d", len(r.days), r.ended)
	}
	// ~300 clients * ~14 loads * 7 days.
	if r.pageLoads < 10000 || r.pageLoads > 60000 {
		t.Fatalf("page loads = %d, outside plausible range", r.pageLoads)
	}
	if r.botBatches == 0 || r.dnsQueries == 0 || r.infraQueries == 0 {
		t.Fatal("missing event kinds")
	}
	if r.private == 0 {
		t.Fatal("no private-mode loads at all")
	}
	if r.atWork == 0 {
		t.Fatal("no enterprise at-work loads")
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() (int, int, int) {
		_, e := testSetup(t, 9, 200, 3)
		r := newRecorder(3)
		e.AddSink(r)
		e.Run()
		return r.pageLoads, r.dnsQueries, r.botReqs
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

func TestWeekendPattern(t *testing.T) {
	// Start weekday 1 (Tuesday): days 4,5 of week one are Sat/Sun.
	_, e := testSetup(t, 3, 200, 7)
	r := newRecorder(7)
	e.AddSink(r)
	e.Run()
	wantWeekend := []bool{false, false, false, false, true, true, false}
	for d, w := range wantWeekend {
		if r.days[d] != w {
			t.Errorf("day %d weekend = %v, want %v", d, r.days[d], w)
		}
	}
}

func TestPopularSitesGetMoreTraffic(t *testing.T) {
	w, e := testSetup(t, 5, 400, 5)
	r := newRecorder(5)
	e.AddSink(r)
	e.Run()
	head, tail := 0, 0
	for site, n := range r.bySite {
		if int(site) < w.NumSites()/10 {
			head += n
		} else if int(site) > w.NumSites()/2 {
			tail += n
		}
	}
	if head < 5*tail {
		t.Errorf("head traffic %d not >> tail traffic %d", head, tail)
	}
}

func TestEnterpriseWeekendRouting(t *testing.T) {
	_, e := testSetup(t, 7, 400, 7)
	ws := &workSink{}
	e.AddSink(ws)
	e.Run()
	if ws.workWeekend != 0 {
		t.Errorf("AtWork loads on weekend: %d", ws.workWeekend)
	}
	if ws.workWeekday == 0 {
		t.Error("no AtWork loads on weekdays")
	}
	if ws.officeIPHome != 0 {
		t.Errorf("%d at-work loads from home IP", ws.officeIPHome)
	}
}

type workSink struct {
	BaseSink
	workWeekend  int
	workWeekday  int
	officeIPHome int
}

func (s *workSink) OnPageLoad(pl *PageLoad) {
	if pl.AtWork {
		if pl.Weekend {
			s.workWeekend++
		} else {
			s.workWeekday++
		}
		if pl.IP != pl.Client.OfficeIP {
			s.officeIPHome++
		}
	}
}

func TestDNSCacheSuppressesQueries(t *testing.T) {
	// DNS queries after client caching must be far fewer than page loads
	// for heavy repeat visitors, but nonzero.
	_, e := testSetup(t, 11, 300, 3)
	r := newRecorder(3)
	e.AddSink(r)
	e.Run()
	siteQueries := r.dnsQueries - r.infraQueries
	if siteQueries <= 0 {
		t.Fatal("no site DNS queries")
	}
	if siteQueries >= r.pageLoads {
		t.Errorf("queries %d >= page loads %d; cache not effective", siteQueries, r.pageLoads)
	}
}

func TestPanelComposition(t *testing.T) {
	w := world.Generate(world.Config{Seed: 2, NumSites: 800})
	e := NewEngine(w, Config{Seed: 3, NumClients: 5000, Days: 1})
	var panel0, panelLate, enterprisePanel, mobilePanel int
	for i := range e.Clients {
		c := &e.Clients[i]
		if c.PanelJoinDay == 0 {
			panel0++
		} else if c.PanelJoinDay > 0 {
			panelLate++
		}
		if c.PanelJoinDay >= 0 {
			if c.Enterprise {
				enterprisePanel++
			}
			if c.Platform == world.Android {
				mobilePanel++
			}
		}
	}
	if panel0 == 0 || panelLate == 0 {
		t.Fatalf("panel cohorts: day0=%d late=%d", panel0, panelLate)
	}
	if enterprisePanel != 0 || mobilePanel != 0 {
		t.Errorf("panel must be home desktop only: enterprise=%d mobile=%d",
			enterprisePanel, mobilePanel)
	}
	c := Client{PanelJoinDay: 20}
	if c.OnPanel(19) || !c.OnPanel(20) || !c.OnPanel(25) {
		t.Error("OnPanel window wrong")
	}
	never := Client{PanelJoinDay: -1}
	if never.OnPanel(5) {
		t.Error("PanelJoinDay=-1 must never be on panel")
	}
}

func TestClientPopulationShape(t *testing.T) {
	w := world.Generate(world.Config{Seed: 4, NumSites: 800})
	e := NewEngine(w, Config{Seed: 5, NumClients: 8000, Days: 1})
	var android, chromeSync, enterprise int
	countryCounts := make(map[world.Country]int)
	for i := range e.Clients {
		c := &e.Clients[i]
		countryCounts[c.Country]++
		if c.Platform == world.Android {
			android++
		}
		if c.ChromeSync {
			chromeSync++
			if c.Browser != Chrome {
				t.Fatal("non-Chrome client with ChromeSync")
			}
		}
		if c.Enterprise {
			enterprise++
			if c.OfficeIP == 0 {
				t.Fatal("enterprise client without office IP")
			}
		}
		if c.DailyRate < 1 {
			t.Fatal("client with zero rate")
		}
	}
	n := float64(len(e.Clients))
	if f := float64(android) / n; f < 0.45 || f < 0.3 {
		if f < 0.3 {
			t.Errorf("android share %.2f too low", f)
		}
	}
	if chromeSync == 0 || enterprise == 0 {
		t.Error("missing client classes")
	}
	// Every country should be represented at this population size.
	for _, c := range world.AllCountries() {
		if countryCounts[c] == 0 {
			t.Errorf("no clients in %v", c)
		}
	}
}

func TestBotShareByCategory(t *testing.T) {
	w, e := testSetup(t, 13, 400, 3)
	human := make(map[world.Category]int)
	bots := make(map[world.Category]int)
	cs := &catSink{w: w, human: human, bots: bots}
	e.AddSink(cs)
	e.Run()
	if bots[world.Abuse] == 0 {
		t.Skip("no abuse traffic at this scale")
	}
	abuseRatio := float64(bots[world.Abuse]) / float64(bots[world.Abuse]+human[world.Abuse])
	newsRatio := float64(bots[world.News]) / float64(bots[world.News]+human[world.News]+1)
	if abuseRatio <= newsRatio {
		t.Errorf("abuse bot ratio %.2f not > news %.2f", abuseRatio, newsRatio)
	}
}

type catSink struct {
	BaseSink
	w     *world.World
	human map[world.Category]int
	bots  map[world.Category]int
}

func (s *catSink) OnPageLoad(pl *PageLoad) {
	s.human[s.w.Site(pl.Site).Category] += pl.Requests()
}

func (s *catSink) OnBotBatch(bb *BotBatch) {
	s.bots[s.w.Site(bb.Site).Category] += bb.Requests
}

func BenchmarkEngineDay(b *testing.B)       { benchEngineDay(b, false) }
func BenchmarkEngineDayTraced(b *testing.B) { benchEngineDay(b, true) }

// benchEngineDay measures one simulated day; with traced set, a live
// Tracer is attached through the registry, so the pair pins the cost of
// run-timeline tracing on the engine's hottest path (the budget is <=2%;
// history in EXPERIMENTS.md, "Retired one-off records").
func benchEngineDay(b *testing.B, traced bool) {
	w := world.Generate(world.Config{Seed: 1, NumSites: 5000})
	reg := obs.NewRegistry()
	if traced {
		reg.SetTracer(obs.NewTracer(0))
	}
	fresh := func() *Engine {
		e := NewEngine(w, Config{Seed: 2, NumClients: 1000, Days: 28})
		e.AddSink(&BaseSink{})
		e.SetObs(reg)
		return e
	}
	e := fresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Day() == e.Cfg.Days {
			// Days advance in order exactly once; refresh the engine
			// off-clock to measure another month.
			b.StopTimer()
			e = fresh()
			b.StartTimer()
		}
		e.RunDay(e.Day())
	}
}
