package providers

import (
	"bytes"
	"io"
	"testing"

	"toplists/internal/psl"
	"toplists/internal/sketch"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// feedDay runs one day through a sharded sink as the engine does: the
// day's events fold into a shard state, which the barrier merges before
// EndDay.
func feedDay(s traffic.ShardedSink, day int, loads []traffic.PageLoad, queries []traffic.DNSQuery) {
	s.BeginDay(day, false)
	st := s.NewShardState()
	for i := range loads {
		st.OnPageLoad(&loads[i])
	}
	for i := range queries {
		st.OnDNSQuery(&queries[i])
	}
	s.MergeShard(st)
	s.EndDay(day)
}

// findSiteOfCategory returns a site ID of the given category.
func findSiteOfCategory(w *world.World, cat world.Category) (int32, bool) {
	for i := 0; i < w.NumSites(); i++ {
		if w.Site(int32(i)).Category == cat {
			return int32(i), true
		}
	}
	return 0, false
}

func TestUmbrellaFamilyFilterDropsAdultQueries(t *testing.T) {
	w := world.Generate(world.Config{Seed: 81, NumSites: 2000})
	u := NewUmbrella(w, psl.Default())
	adult, ok := findSiteOfCategory(w, world.Adult)
	if !ok {
		t.Skip("no adult site at this scale")
	}
	news, ok := findSiteOfCategory(w, world.News)
	if !ok {
		t.Skip("no news site at this scale")
	}

	filtered := &traffic.Client{ID: 1, HomeOpenDNS: true, FamilyFilter: true}
	open := &traffic.Client{ID: 2, HomeOpenDNS: true}

	feedDay(u, 0, nil, []traffic.DNSQuery{
		{Day: 0, Client: filtered, IP: 10, Site: adult, Infra: -1},
		{Day: 0, Client: filtered, IP: 10, Site: news, Infra: -1},
		{Day: 0, Client: open, IP: 20, Site: adult, Infra: -1},
	})

	raw := u.Raw(0)
	adultName := w.Site(adult).Hostname(0)
	newsName := w.Site(news).Hostname(0)
	if !raw.Contains(newsName) {
		t.Errorf("news query from filtered home missing")
	}
	if !raw.Contains(adultName) {
		t.Errorf("adult query from unfiltered home missing")
	}
	// The filtered household contributed no adult signal: the adult name
	// must have exactly one crediting IP (the unfiltered one), so its
	// quantized score equals a single-IP name's.
	if r1, _ := raw.RankOf(adultName); r1 == 0 {
		t.Error("adult name absent entirely")
	}
}

func TestUmbrellaIgnoresPlainHomeClients(t *testing.T) {
	w := world.Generate(world.Config{Seed: 82, NumSites: 500})
	u := NewUmbrella(w, psl.Default())
	plain := &traffic.Client{ID: 3} // neither enterprise-at-work nor OpenDNS
	feedDay(u, 0, nil, []traffic.DNSQuery{{Day: 0, Client: plain, IP: 30, Site: 0, Infra: -1}})
	if u.Raw(0).Len() != 0 {
		t.Fatal("plain home client's queries counted")
	}
}

func TestAlexaPanelVisibilityThinsAdult(t *testing.T) {
	w := world.Generate(world.Config{Seed: 83, NumSites: 2000})
	adult, ok := findSiteOfCategory(w, world.Adult)
	if !ok {
		t.Skip("no adult site")
	}
	news, ok := findSiteOfCategory(w, world.News)
	if !ok {
		t.Skip("no news site")
	}

	a := NewAlexa(w)
	panelist := &traffic.Client{ID: 5, PanelJoinDay: 0, Platform: world.Windows}
	const loads = 400
	var pls []traffic.PageLoad
	for i := 0; i < loads; i++ {
		pls = append(pls,
			traffic.PageLoad{Day: 0, Site: adult, Client: panelist, Second: int32(i)},
			traffic.PageLoad{Day: 0, Site: news, Client: panelist, Second: int32(i)})
	}
	feedDay(a, 0, pls, nil)
	pv := a.days[0].pageviews
	if pv[news] != loads {
		t.Fatalf("news pageviews = %v, want %d", pv[news], loads)
	}
	// Adult visibility is 0.12: expect roughly 12% of loads recorded.
	if pv[adult] > loads/4 || pv[adult] == 0 {
		t.Errorf("adult pageviews = %v of %d; thinning looks wrong", pv[adult], loads)
	}
}

func TestAlexaIgnoresNonPanelAndPrivate(t *testing.T) {
	w := world.Generate(world.Config{Seed: 84, NumSites: 300})
	a := NewAlexa(w)
	noPanel := &traffic.Client{ID: 1, PanelJoinDay: -1}
	joined := &traffic.Client{ID: 2, PanelJoinDay: 0}
	late := &traffic.Client{ID: 3, PanelJoinDay: 5}
	feedDay(a, 0, []traffic.PageLoad{
		{Day: 0, Site: 0, Client: noPanel},
		{Day: 0, Site: 0, Client: joined, Private: true},
		{Day: 0, Site: 0, Client: late}, // joins day 5, this is day 0
	}, nil)
	if a.Raw(0).Len() != 0 {
		t.Fatal("ineligible loads were counted")
	}
}

func TestAlexaTrailingWindow(t *testing.T) {
	w := world.Generate(world.Config{Seed: 85, NumSites: 300})
	a := NewAlexa(w)
	panelist := &traffic.Client{ID: 9, PanelJoinDay: 0}
	// Day 0: heavy traffic to site 5; later days: nothing. The trailing
	// window keeps site 5 ranked on later days.
	for d := 0; d < 4; d++ {
		var pls []traffic.PageLoad
		if d == 0 {
			for i := 0; i < 10; i++ {
				pls = append(pls, traffic.PageLoad{Day: 0, Site: 5, Client: panelist, Second: int32(i)})
			}
		}
		feedDay(a, d, pls, nil)
	}
	if !a.Raw(3).Contains(w.Site(5).Domain) {
		t.Error("window-averaged rank lost the site")
	}
}

func TestSecrankWindowSmoothing(t *testing.T) {
	w := world.Generate(world.Config{Seed: 86, NumSites: 300})
	s := NewSecrank(w, psl.Default())
	s.Window = 3
	cn := &traffic.Client{ID: 1, Country: world.CN}
	for d := 0; d < 5; d++ {
		var qs []traffic.DNSQuery
		if d == 0 {
			qs = append(qs, traffic.DNSQuery{Day: 0, Client: cn, IP: 1, Site: 7, Infra: -1})
		}
		feedDay(s, d, nil, qs)
	}
	name := w.Site(7).Domain
	if !s.Raw(1).Contains(name) || !s.Raw(2).Contains(name) {
		t.Error("site dropped inside the smoothing window")
	}
	if s.Raw(4).Contains(name) {
		t.Error("site survived beyond the smoothing window")
	}
}

func TestSecrankIgnoresNonCN(t *testing.T) {
	w := world.Generate(world.Config{Seed: 87, NumSites: 300})
	s := NewSecrank(w, psl.Default())
	us := &traffic.Client{ID: 1, Country: world.US}
	feedDay(s, 0, nil, []traffic.DNSQuery{{Day: 0, Client: us, IP: 1, Site: 0, Infra: -1}})
	if s.Raw(0).Len() != 0 {
		t.Fatal("non-CN query counted")
	}
}

func TestSecrankDiversityWeighting(t *testing.T) {
	w := world.Generate(world.Config{Seed: 88, NumSites: 300})
	s := NewSecrank(w, psl.Default())
	s.Window = 1
	// A diverse IP (queries two domains) and a single-purpose IP each
	// query site 3 once; a third domain gets only the diverse IP's vote.
	diverse := &traffic.Client{ID: 1, Country: world.CN}
	single := &traffic.Client{ID: 2, Country: world.CN}
	feedDay(s, 0, nil, []traffic.DNSQuery{
		{Day: 0, Client: diverse, IP: 1, Site: 3, Infra: -1},
		{Day: 0, Client: diverse, IP: 1, Site: 4, Infra: -1},
		{Day: 0, Client: single, IP: 2, Site: 3, Infra: -1},
	})
	r := s.Raw(0)
	r3, _ := r.RankOf(w.Site(3).Domain)
	r4, _ := r.RankOf(w.Site(4).Domain)
	if r3 == 0 || r4 == 0 {
		t.Fatal("expected both domains ranked")
	}
	if r3 >= r4 {
		t.Errorf("site with two voters ranked %d, not above single-voter site %d", r3, r4)
	}
}

// TestShardedProvidersMatchAcrossWorkers runs the panel and resolver
// providers over engines of 1 and 4 workers, in exact and sketch mode, and
// requires byte-identical checkpoint payloads: exact merges are order-free
// and sketch merges run in canonical shard order, so the worker count must
// never show. The 4-worker runs also give the race detector concurrent
// shard states to watch.
func TestShardedProvidersMatchAcrossWorkers(t *testing.T) {
	run := func(workers int, sketchOn bool) [][]byte {
		w := world.Generate(world.Config{Seed: 89, NumSites: 1500})
		l := psl.Default()
		a, u, s := NewAlexa(w), NewUmbrella(w, l), NewSecrank(w, l)
		if sketchOn {
			u.SetSketch()
			s.SetSketch()
		}
		e := traffic.NewEngine(w, traffic.Config{Seed: 90, NumClients: 400, Days: 3,
			Workers: workers, Sketch: sketch.Config{Enabled: sketchOn}})
		e.AddSink(a)
		e.AddSink(u)
		e.AddSink(s)
		e.Run()
		var out [][]byte
		for _, snap := range []func(io.Writer) error{a.Snapshot, u.Snapshot, s.Snapshot} {
			var buf bytes.Buffer
			if err := snap(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
		return out
	}
	for _, sketchOn := range []bool{false, true} {
		want, got := run(1, sketchOn), run(4, sketchOn)
		for i, name := range []string{"Alexa", "Umbrella", "Secrank"} {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("sketch=%v: %s snapshot differs between 1 and 4 workers", sketchOn, name)
			}
		}
	}
}
