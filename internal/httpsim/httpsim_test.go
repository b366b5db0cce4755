package httpsim

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"toplists/internal/world"
)

func testNetwork(t testing.TB) (*world.World, *Network) {
	t.Helper()
	w := world.Generate(world.Config{Seed: 51, NumSites: 400})
	n := NewNetwork()
	n.AddWorld(w)
	n.Start()
	t.Cleanup(n.Close)
	return w, n
}

func findSite(w *world.World, cloudflare bool) *world.Site {
	for i := 0; i < w.NumSites(); i++ {
		s := w.Site(int32(i))
		if s.Cloudflare() == cloudflare {
			return s
		}
	}
	return nil
}

func TestEdgeAddsCfRay(t *testing.T) {
	w, n := testNetwork(t)
	client := n.Client()

	cf := findSite(w, true)
	if cf == nil {
		t.Skip("no cloudflare site at this scale")
	}
	resp, err := client.Get("https://" + cf.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Cf-Ray") == "" {
		t.Error("missing cf-ray on cloudflare site")
	}
	if got := resp.Header.Get("Server"); got != "cloudflare" {
		t.Errorf("Server = %q", got)
	}
	if !strings.Contains(string(body), cf.Domain) {
		t.Errorf("body does not mention host: %q", body)
	}
}

func TestOriginHasNoCfRay(t *testing.T) {
	w, n := testNetwork(t)
	client := n.Client()
	direct := findSite(w, false)
	resp, err := client.Get("https://" + direct.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Cf-Ray") != "" {
		t.Error("cf-ray present on non-cloudflare site")
	}
}

func TestSubdomainHostsServed(t *testing.T) {
	w, n := testNetwork(t)
	client := n.Client()
	var s *world.Site
	for i := 0; i < w.NumSites(); i++ {
		if len(w.Site(int32(i)).Subdomains) > 1 {
			s = w.Site(int32(i))
			break
		}
	}
	if s == nil {
		t.Skip("no subdomains at this scale")
	}
	url := "https://" + s.Hostname(1) + "/"
	if !s.HTTPS {
		url = "http://" + s.Hostname(1) + "/"
	}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestUnknownHostFailsLikeNXDomain(t *testing.T) {
	_, n := testNetwork(t)
	client := n.Client()
	_, err := client.Get("https://no-such-site.invalid/")
	if err == nil {
		t.Fatal("expected dial error")
	}
	if !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("err = %v, want ErrNoSuchHost", err)
	}
}

func TestInfraNamesNotServed(t *testing.T) {
	w, n := testNetwork(t)
	client := n.Client()
	_, err := client.Get("http://" + w.Infra[0].FQDN + "/")
	if !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("infra names must not be websites; err = %v", err)
	}
}

func TestNotFoundPath(t *testing.T) {
	w, n := testNetwork(t)
	client := n.Client()
	s := w.Site(0)
	resp, err := client.Get("https://" + s.Domain + "/definitely/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestProberClassifiesCorrectly(t *testing.T) {
	w, n := testNetwork(t)
	p := NewProber(n.Client())

	hosts := make([]string, 0, 100)
	want := make(map[string]bool)
	for i := 0; i < 100 && i < w.NumSites(); i++ {
		s := w.Site(int32(i))
		hosts = append(hosts, s.Domain)
		want[s.Domain] = s.Cloudflare()
	}
	hosts = append(hosts, "unreachable.invalid")

	results := p.ProbeAll(context.Background(), hosts)
	if len(results) != len(hosts) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Host == "unreachable.invalid" {
			if r.Reachable || r.Cloudflare {
				t.Errorf("unreachable host classified as %+v", r)
			}
			continue
		}
		if !r.Reachable {
			t.Errorf("%s unreachable", r.Host)
			continue
		}
		if r.Cloudflare != want[r.Host] {
			t.Errorf("%s cloudflare = %v, want %v", r.Host, r.Cloudflare, want[r.Host])
		}
	}
}

func TestCloudflareSetMatchesWorld(t *testing.T) {
	w, n := testNetwork(t)
	p := NewProber(n.Client())
	hosts := make([]string, 0, w.NumSites())
	for i := 0; i < w.NumSites(); i++ {
		hosts = append(hosts, w.Site(int32(i)).Domain)
	}
	got := p.CloudflareSet(context.Background(), hosts)
	wantSet := w.CloudflareSet()
	if len(got) != len(wantSet) {
		t.Fatalf("probe found %d CF sites, world has %d", len(got), len(wantSet))
	}
	for h := range got {
		if _, ok := wantSet[h]; !ok {
			t.Fatalf("%s probed CF but is not", h)
		}
	}
}

func TestProberContextCancel(t *testing.T) {
	_, n := testNetwork(t)
	p := NewProber(n.Client())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hosts := []string{"a.invalid", "b.invalid", "c.invalid"}
	results := p.ProbeAll(ctx, hosts)
	for _, r := range results {
		if r.Cloudflare {
			t.Error("cancelled probe reported cloudflare")
		}
	}
}

func TestConcurrentProbing(t *testing.T) {
	w, n := testNetwork(t)
	p := NewProber(n.Client())
	p.Concurrency = 16
	hosts := make([]string, 0, 2*w.NumSites())
	for round := 0; round < 2; round++ {
		for i := 0; i < w.NumSites(); i++ {
			hosts = append(hosts, w.Site(int32(i)).Domain)
		}
	}
	start := time.Now()
	results := p.ProbeAll(context.Background(), hosts)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("probe too slow: %v", elapsed)
	}
	reachable := 0
	for _, r := range results {
		if r.Reachable {
			reachable++
		}
	}
	if reachable != len(hosts) {
		t.Fatalf("reachable = %d of %d", reachable, len(hosts))
	}
}

func TestCfRayUniquePerResponse(t *testing.T) {
	w, n := testNetwork(t)
	client := n.Client()
	cf := findSite(w, true)
	if cf == nil {
		t.Skip("no cloudflare site")
	}
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		resp, err := client.Head("https://" + cf.Domain + "/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ray := resp.Header.Get("Cf-Ray")
		if ray == "" || seen[ray] {
			t.Fatalf("ray %q empty or repeated", ray)
		}
		seen[ray] = true
	}
}

func BenchmarkProbe(b *testing.B) {
	w := world.Generate(world.Config{Seed: 52, NumSites: 500})
	n := NewNetwork()
	n.AddWorld(w)
	n.Start()
	defer n.Close()
	p := NewProber(n.Client())
	hosts := make([]string, 0, w.NumSites())
	for i := 0; i < w.NumSites(); i++ {
		hosts = append(hosts, w.Site(int32(i)).Domain)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ProbeAll(context.Background(), hosts)
	}
}
