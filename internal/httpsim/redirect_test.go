package httpsim

import (
	"context"
	"net/http"
	"testing"

	"toplists/internal/world"
)

// findWWWCanonical returns a site whose www hostname outweighs its apex.
func findWWWCanonical(w *world.World) *world.Site {
	for i := 0; i < w.NumSites(); i++ {
		s := w.Site(int32(i))
		for sub, label := range s.Subdomains {
			if label == "www" && s.SubWeights[sub] > s.SubWeights[0] {
				return s
			}
		}
	}
	return nil
}

func TestWWWCanonicalRedirect(t *testing.T) {
	w, n := testNetwork(t)
	s := findWWWCanonical(w)
	if s == nil {
		t.Skip("no www-canonical site at this scale")
	}
	client := n.Client()
	// Default client follows the redirect; the final URL is the www host.
	resp, err := client.Get("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Request.URL.Host; got != "www."+s.Domain {
		t.Errorf("final host = %q, want %q", got, "www."+s.Domain)
	}

	// A non-following client sees the 301 itself.
	raw := n.Client()
	raw.CheckRedirect = func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}
	resp, err = raw.Get("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMovedPermanently {
		t.Fatalf("status = %d, want 301", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		t.Error("no Location header")
	}
	// Cloudflare-served sites stamp cf-ray on the redirect itself too.
	if s.Cloudflare() && resp.Header.Get("Cf-Ray") == "" {
		t.Error("redirect response missing cf-ray on CF site")
	}
}

func TestProberHandlesRedirects(t *testing.T) {
	w, n := testNetwork(t)
	s := findWWWCanonical(w)
	if s == nil {
		t.Skip("no www-canonical site at this scale")
	}
	p := NewProber(n.Client())
	results := p.ProbeAll(context.Background(), []string{s.Domain})
	if !results[0].Reachable {
		t.Fatal("redirecting site unreachable")
	}
	if results[0].Cloudflare != s.Cloudflare() {
		t.Errorf("cloudflare = %v through redirect, want %v",
			results[0].Cloudflare, s.Cloudflare())
	}
}

func TestDeepPathsStill404OnCanonicalSites(t *testing.T) {
	w, n := testNetwork(t)
	s := findWWWCanonical(w)
	if s == nil {
		t.Skip("no www-canonical site at this scale")
	}
	resp, err := n.Client().Get("https://" + s.Domain + "/missing/page")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 (redirect only covers the root)", resp.StatusCode)
	}
}
