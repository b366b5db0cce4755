package cfmetrics

import (
	"testing"

	"toplists/internal/traffic"
	"toplists/internal/world"
)

func TestFilterContributionTable(t *testing.T) {
	browser := &traffic.Client{Browser: traffic.Chrome}
	niche := &traffic.Client{Browser: traffic.Other}
	pl := &traffic.PageLoad{
		Client:          browser,
		Root:            true,
		Subresources:    10, // 11 requests total
		HTMLRequests:    2,
		RefererRequests: 10,
		Non200:          1,
		TLSConns:        3,
	}
	cases := []struct {
		filter Filter
		want   int
	}{
		{FilterAll, 11},
		{FilterHTML, 2},
		{Filter200, 10},
		{FilterReferer, 10},
		{FilterTopBrowsers, 11},
		{FilterTLS, 3},
		{FilterRoot, 1},
	}
	for _, c := range cases {
		if got := filterContribution(c.filter, pl); got != c.want {
			t.Errorf("%v: %d, want %d", c.filter, got, c.want)
		}
	}

	// Niche browsers fail the top-5 filter; deep links fail the root filter.
	pl.Client = niche
	if got := filterContribution(FilterTopBrowsers, pl); got != 0 {
		t.Errorf("niche browser contributed %d", got)
	}
	pl.Root = false
	if got := filterContribution(FilterRoot, pl); got != 0 {
		t.Errorf("deep link contributed %d root loads", got)
	}
}

func TestBotContributionTable(t *testing.T) {
	bb := &traffic.BotBatch{
		Requests:        100,
		RootRequests:    30,
		HTMLRequests:    45,
		RefererRequests: 8,
		Non200:          18,
		TLSConns:        65,
	}
	cases := []struct {
		filter Filter
		want   int
	}{
		{FilterAll, 100},
		{FilterHTML, 45},
		{Filter200, 82},
		{FilterReferer, 8},
		{FilterTopBrowsers, 0}, // bots are never top-5 browsers
		{FilterTLS, 65},
		{FilterRoot, 30},
	}
	for _, c := range cases {
		if got := botContribution(c.filter, bb); got != c.want {
			t.Errorf("%v: %d, want %d", c.filter, got, c.want)
		}
	}
}

func TestFilterAndAggStrings(t *testing.T) {
	for f := Filter(0); f < NumFilters; f++ {
		if f.String() == "" {
			t.Errorf("filter %d unnamed", f)
		}
	}
	for a := Agg(0); a < NumAggs; a++ {
		if a.String() == "" {
			t.Errorf("agg %d unnamed", a)
		}
	}
	if c := (Combo{FilterTLS, AggUniqueIP}); c.String() != "tls-handshakes/unique-ip" {
		t.Errorf("combo string = %q", c.String())
	}
}

func TestPipelineTracks(t *testing.T) {
	w := world.Generate(world.Config{Seed: 1, NumSites: 50})
	p := NewPipeline(w, []Combo{{FilterAll, AggCount}})
	if !p.Tracks(Combo{FilterAll, AggCount}) {
		t.Error("tracked combo reported untracked")
	}
	if p.Tracks(Combo{FilterTLS, AggCount}) {
		t.Error("untracked combo reported tracked")
	}
}
