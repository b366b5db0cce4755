package world

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"toplists/internal/psl"
)

func testWorld(t testing.TB) *World {
	t.Helper()
	return Generate(Config{Seed: 1, NumSites: 3000})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 7, NumSites: 500})
	b := Generate(Config{Seed: 7, NumSites: 500})
	if !reflect.DeepEqual(a.TrueRank().Names(), b.TrueRank().Names()) {
		t.Fatal("same seed produced different worlds")
	}
	c := Generate(Config{Seed: 8, NumSites: 500})
	if reflect.DeepEqual(a.TrueRank().Names(), c.TrueRank().Names()) {
		t.Fatal("different seeds produced identical worlds")
	}
}

func TestIDsAreTrueRanks(t *testing.T) {
	w := testWorld(t)
	for i := 0; i < w.NumSites(); i++ {
		s := w.Site(int32(i))
		if int(s.ID) != i {
			t.Fatalf("site %d has ID %d", i, s.ID)
		}
		if i > 0 && s.Weight > w.Site(int32(i-1)).Weight {
			t.Fatalf("weights not sorted at %d", i)
		}
		rk, ok := w.TrueRank().RankOf(s.Domain)
		if !ok || rk != i+1 {
			t.Fatalf("TrueRank mismatch for %s: %d, %v", s.Domain, rk, ok)
		}
	}
}

func TestDomainsUniqueAndValidRegistrable(t *testing.T) {
	w := testWorld(t)
	l := psl.Default()
	seen := map[string]bool{}
	for i := range w.Sites {
		d := w.Sites[i].Domain
		if seen[d] {
			t.Fatalf("duplicate domain %s", d)
		}
		seen[d] = true
		etld1, ok := l.RegisteredDomain(d)
		if !ok || etld1 != d {
			t.Fatalf("domain %s is not its own registrable domain (-> %s, %v)", d, etld1, ok)
		}
		id, ok := w.ByDomain(d)
		if !ok || id != int32(i) {
			t.Fatalf("ByDomain(%s) = %d, %v", d, id, ok)
		}
	}
}

func TestTopTenNotCloudflare(t *testing.T) {
	w := testWorld(t)
	for i := 0; i < 10; i++ {
		if w.Site(int32(i)).Cloudflare() {
			t.Errorf("top-10 site %d is on Cloudflare", i)
		}
	}
}

func TestCloudflareShareReasonable(t *testing.T) {
	w := testWorld(t)
	cf := len(w.CloudflareSet())
	frac := float64(cf) / float64(w.NumSites())
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("cloudflare share = %.3f, want within [0.10, 0.45]", frac)
	}
}

func TestCountrySharesNormalized(t *testing.T) {
	w := testWorld(t)
	for i := range w.Sites {
		var sum float64
		for _, cs := range w.Sites[i].CountryShare {
			if cs < 0 {
				t.Fatalf("site %d negative country share", i)
			}
			sum += float64(cs)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("site %d country shares sum to %v", i, sum)
		}
	}
}

func TestHomeCountryDominatesForInsularSites(t *testing.T) {
	w := testWorld(t)
	// Japanese sites must on average give Japan the plurality of their
	// audience — the mechanism behind Figure 7's "all lists poor on JP".
	var jpHomeShare, jpSites float64
	for i := range w.Sites {
		s := &w.Sites[i]
		if s.Home == JP {
			jpHomeShare += float64(s.CountryShare[JP])
			jpSites++
		}
	}
	if jpSites == 0 {
		t.Skip("no JP sites at this scale")
	}
	if avg := jpHomeShare / jpSites; avg < 0.6 {
		t.Errorf("JP sites average home share %.2f, want > 0.6", avg)
	}
}

func TestChinaRarelyCloudflare(t *testing.T) {
	w := testWorld(t)
	var cnCF, cn int
	for i := range w.Sites {
		if w.Sites[i].Home == CN {
			cn++
			if w.Sites[i].Cloudflare() {
				cnCF++
			}
		}
	}
	if cn == 0 {
		t.Skip("no CN sites at this scale")
	}
	if frac := float64(cnCF) / float64(cn); frac > 0.05 {
		t.Errorf("CN cloudflare share = %.3f, want < 0.05", frac)
	}
}

func TestAttributeRanges(t *testing.T) {
	w := testWorld(t)
	for i := range w.Sites {
		s := &w.Sites[i]
		checks := []struct {
			name   string
			v      float64
			lo, hi float64
		}{
			{"MobileShare", float64(s.MobileShare), 0.05, 0.95},
			{"PrivateShare", float64(s.PrivateShare), 0, 0.95},
			{"BotShare", float64(s.BotShare), 0.01, 0.95},
			{"SubresMean", float64(s.SubresMean), 1, 400},
			{"EntryShare", float64(s.EntryShare), 0.05, 0.98},
			{"CompletionProb", float64(s.CompletionProb), 0.5, 0.99},
		}
		for _, c := range checks {
			if c.v < c.lo-1e-6 || c.v > c.hi+1e-6 {
				t.Fatalf("site %d %s = %v out of [%v, %v]", i, c.name, c.v, c.lo, c.hi)
			}
		}
		if s.DNSTTL <= 0 {
			t.Fatalf("site %d TTL %d", i, s.DNSTTL)
		}
	}
}

func TestSubdomains(t *testing.T) {
	w := testWorld(t)
	for i := range w.Sites {
		s := &w.Sites[i]
		if len(s.Subdomains) == 0 || s.Subdomains[0] != "" {
			t.Fatalf("site %d: first subdomain must be apex", i)
		}
		if len(s.Subdomains) != len(s.SubWeights) {
			t.Fatalf("site %d: label/weight mismatch", i)
		}
		var sum float32
		for _, wt := range s.SubWeights {
			sum += wt
		}
		if math.Abs(float64(sum)-1) > 1e-4 {
			t.Fatalf("site %d: subdomain weights sum %v", i, sum)
		}
		if s.Hostname(0) != s.Domain {
			t.Fatalf("apex hostname = %q", s.Hostname(0))
		}
		if len(s.Subdomains) > 1 && s.Subdomains[1] == "www" {
			if s.Hostname(1) != "www."+s.Domain {
				t.Fatalf("www hostname = %q", s.Hostname(1))
			}
		}
	}
}

func TestAdultPrivateBrowsing(t *testing.T) {
	w := testWorld(t)
	var adult, other float64
	var na, no int
	for i := range w.Sites {
		s := &w.Sites[i]
		if s.Category == Adult {
			adult += float64(s.PrivateShare)
			na++
		} else {
			other += float64(s.PrivateShare)
			no++
		}
	}
	if na == 0 {
		t.Skip("no adult sites at this scale")
	}
	if adult/float64(na) < 3*(other/float64(no)) {
		t.Errorf("adult private share %.3f not >> other %.3f",
			adult/float64(na), other/float64(no))
	}
}

func TestCategoryTierSkew(t *testing.T) {
	w := Generate(Config{Seed: 3, NumSites: 20000})
	headParked, tailParked := 0, 0
	headN, tailN := 0, 0
	for i := range w.Sites {
		s := &w.Sites[i]
		if int(s.ID) < 2000 {
			headN++
			if s.Category == Parked {
				headParked++
			}
		} else if int(s.ID) >= 10000 {
			tailN++
			if s.Category == Parked {
				tailParked++
			}
		}
	}
	headFrac := float64(headParked) / float64(headN)
	tailFrac := float64(tailParked) / float64(tailN)
	if headFrac >= tailFrac {
		t.Errorf("parked head fraction %.4f >= tail fraction %.4f", headFrac, tailFrac)
	}
}

func TestSiteWeights(t *testing.T) {
	w := testWorld(t)
	for _, c := range AllCountries() {
		for _, p := range AllPlatforms() {
			ws := w.SiteWeights(c, p)
			if len(ws) != w.NumSites() {
				t.Fatal("length")
			}
			var sum float64
			for _, v := range ws {
				if v < 0 {
					t.Fatalf("negative weight in %v/%v", c, p)
				}
				sum += v
			}
			if sum <= 0 {
				t.Fatalf("zero total weight for %v/%v", c, p)
			}
		}
	}
}

func TestInfraNames(t *testing.T) {
	w := testWorld(t)
	if len(w.Infra) < 20 {
		t.Fatalf("infra count %d", len(w.Infra))
	}
	seen := map[string]bool{}
	for _, inf := range w.Infra {
		if seen[inf.FQDN] {
			t.Fatalf("duplicate infra name %s", inf.FQDN)
		}
		seen[inf.FQDN] = true
		if inf.QueryWeight <= 0 {
			t.Fatalf("bad infra %+v", inf)
		}
		if _, clash := w.ByDomain(inf.FQDN); clash {
			t.Fatalf("infra name %s collides with a site", inf.FQDN)
		}
	}
}

// TestOrigin: sites' web origins (the scheme CrUX keys them by) must come
// in both schemes.
func TestOrigin(t *testing.T) {
	w := testWorld(t)
	httpsSeen, httpSeen := false, false
	for i := range w.Sites {
		if w.Sites[i].HTTPS {
			httpsSeen = true
		} else {
			httpSeen = true
		}
	}
	if !httpsSeen || !httpSeen {
		t.Error("expected a mix of http and https sites")
	}
}

func TestCountryTableSane(t *testing.T) {
	var clientSum, siteSum float64
	for _, ci := range Countries() {
		clientSum += ci.ClientShare
		siteSum += ci.SiteShare
		if len(ci.TLDs) != len(ci.TLDWts) || len(ci.TLDs) == 0 {
			t.Errorf("%s TLD table malformed", ci.Code)
		}
		if ci.MobileShare <= 0 || ci.MobileShare >= 1 {
			t.Errorf("%s mobile share %v", ci.Code, ci.MobileShare)
		}
	}
	if math.Abs(clientSum-1) > 0.02 {
		t.Errorf("client shares sum to %v", clientSum)
	}
	if math.Abs(siteSum-1) > 0.02 {
		t.Errorf("site shares sum to %v", siteSum)
	}
}

func TestDescribe(t *testing.T) {
	w := testWorld(t)
	if w.Describe() == "" {
		t.Error("empty describe")
	}
}

func BenchmarkGenerate10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: uint64(i), NumSites: 10000})
	}
}

func TestSectorTLDs(t *testing.T) {
	w := Generate(Config{Seed: 12, NumSites: 20000})
	sector := map[Country]string{
		US: "gov", GB: "gov.uk", CN: "gov.cn", BR: "gov.br", JP: "go.jp",
	}
	checked := 0
	for i := range w.Sites {
		s := &w.Sites[i]
		if s.Category != Government {
			continue
		}
		want, ok := sector[s.Home]
		if !ok {
			continue
		}
		checked++
		if !strings.HasSuffix(s.Domain, "."+want) {
			t.Fatalf("gov site %s homed in %v does not use %s", s.Domain, s.Home, want)
		}
	}
	if checked == 0 {
		t.Skip("no government sites in mapped countries at this scale")
	}
}

func TestLocalTLDsMatchHomeCountry(t *testing.T) {
	w := Generate(Config{Seed: 13, NumSites: 8000})
	// Spot check: sites under .cn / .com.cn must be homed in China.
	for i := range w.Sites {
		s := &w.Sites[i]
		if strings.HasSuffix(s.Domain, ".com.cn") || strings.HasSuffix(s.Domain, ".net.cn") {
			if s.Home != CN {
				t.Fatalf("site %s under a Chinese TLD homed in %v", s.Domain, s.Home)
			}
		}
		if strings.HasSuffix(s.Domain, ".co.jp") || strings.HasSuffix(s.Domain, ".ne.jp") {
			if s.Home != JP {
				t.Fatalf("site %s under a Japanese TLD homed in %v", s.Domain, s.Home)
			}
		}
	}
}
