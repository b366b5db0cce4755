// Package world generates the synthetic web universe the study measures.
//
// A World is the ground truth that the paper did not have: a population of
// websites with known true popularity, category, country affinity, platform
// skew, and serving infrastructure. Top-list providers and the Cloudflare
// pipeline each observe the world through their own (biased) vantage point;
// the evaluation then measures how well each reconstructed list matches
// server-side truth, exactly as the paper does against Cloudflare logs.
package world

import (
	"fmt"
	"math"

	"toplists/internal/names"
	"toplists/internal/rank"
	"toplists/internal/simrand"
)

// Config parameterizes world generation.
type Config struct {
	// Seed drives all randomness; equal configs produce identical worlds.
	Seed uint64
	// NumSites is the number of websites in the universe.
	NumSites int
	// Backends is how many CDN edge backends are deployed (1..NumBackends,
	// default 1). The first backend is always cdnflare; a world with one
	// backend is the original single-edge model, byte-identical to worlds
	// generated before competitor backends existed.
	Backends int
	// Vantages is the set of measurement vantage points (default: the
	// single transparent global vantage). Vantage 0 must be the primary
	// (transparent) vantage for the default pipeline to stay byte-identical.
	Vantages []Vantage
	// Ablate disables selected mechanisms for ablation studies.
	Ablate Ablations
}

// The generative model of the universe. Each is the one value the study
// runs with, so none is a Config field.
const (
	// zipfS is the popularity Zipf exponent.
	zipfS float64 = 1.05
	// popNoise is the log-sigma of multiplicative popularity noise, which
	// makes true rank differ from generation order.
	popNoise float64 = 0.4
	// httpsShare is the fraction of sites served over HTTPS.
	httpsShare float64 = 0.93
	// nonPublicShare is the fraction of sites not linked from the public
	// web (robots-excluded); Chrome telemetry omits them.
	nonPublicShare float64 = 0.03
	// multiCDNShare is the fraction of Cloudflare sites also using another
	// CDN ("rare" per Section 4.5).
	multiCDNShare float64 = 0.01
	// cfBase is the base Cloudflare adoption probability before category,
	// country, and tier multipliers.
	cfBase float64 = 0.30
	// extraCDNBase is the base adoption probability of each competitor
	// backend, skewed per backend by category, country, and tier. Only
	// consulted when Backends > 1.
	extraCDNBase float64 = 0.12
)

// Validate reports the first invalid configuration field as an explicit
// error. Zero values are valid (they take defaults); out-of-range values
// are rejected rather than silently clamped.
func (c Config) Validate() error {
	if c.NumSites < 0 {
		return fmt.Errorf("world: NumSites %d negative", c.NumSites)
	}
	if c.Backends < 0 || c.Backends > NumBackends {
		return fmt.Errorf("world: Backends %d outside [0, %d]", c.Backends, NumBackends)
	}
	seen := make(map[string]bool, len(c.Vantages))
	for i := range c.Vantages {
		v := &c.Vantages[i]
		if err := v.Validate(); err != nil {
			return err
		}
		if seen[v.Name] {
			return fmt.Errorf("world: duplicate vantage name %q", v.Name)
		}
		seen[v.Name] = true
	}
	if len(c.Vantages) > 0 && !c.Vantages[0].Transparent() {
		return fmt.Errorf("world: vantage 0 (%q) must be transparent (full reach); regional vantages follow it", c.Vantages[0].Name)
	}
	return nil
}

// Ablations switches individual world mechanisms off so their effect on
// the study's findings can be measured in isolation.
type Ablations struct {
	// NoPrivateBrowsing zeroes every site's private-mode share: extension
	// panels and Chrome telemetry then see all human browsing.
	NoPrivateBrowsing bool
	// NoOpenness removes the cross-border consumption asymmetry (Great
	// Firewall, language barriers): clients everywhere browse foreign
	// sites in proportion to global popularity.
	NoOpenness bool
	// NoWeightBoost removes per-category traffic multipliers: a site's
	// traffic depends only on its Zipf rank.
	NoWeightBoost bool
}

// withDefaults fills zero fields with defaults.
func (c Config) withDefaults() Config {
	if c.NumSites <= 0 {
		c.NumSites = 10_000
	}
	if c.Backends <= 0 {
		c.Backends = 1
	}
	if len(c.Vantages) == 0 {
		c.Vantages = DefaultVantages(1)
	}
	return c
}

// Site is one website of the universe. Fields are ground truth; no observer
// sees them directly.
type Site struct {
	// ID equals the site's 0-based true global popularity rank.
	ID     int32
	Domain string
	HTTPS  bool

	Category Category
	Home     Country

	// Weight is the site's true global popularity weight (unnormalized
	// expected page-load share).
	Weight float64
	// CountryShare is the distribution of the site's audience over
	// countries (sums to 1).
	CountryShare [NumCountries]float32

	// CDN is the backend the site's traffic is served through
	// (BackendNone = origin only). AltCDN names the secondary backend of a
	// multi-CDN site; it may name a backend beyond the world's deployed
	// count — "also on some other CDN" — in which case only the primary
	// serves an observable edge.
	CDN       Backend
	AltCDN    Backend
	NonPublic bool

	// Behavioural parameters, drawn around category means.
	// Stickiness drives within-day revisits (page loads per visitor).
	Stickiness     float32
	MobileShare    float32
	PrivateShare   float32
	BotShare       float32
	SubresMean     float32
	EntryShare     float32
	CompletionProb float32
	DwellMu        float32
	DwellSigma     float32

	// DNSTTL is the TTL (seconds) on the site's DNS records, which drives
	// resolver-side query suppression.
	DNSTTL int32

	// Subdomains lists the site's hostname labels beyond the registrable
	// domain; index 0 is always "" (the apex). SubWeights gives the share
	// of web traffic using each hostname.
	Subdomains []string
	SubWeights []float32
}

// Cloudflare reports whether the site's primary backend is the
// Cloudflare-style edge — the population the paper's cf-ray filter targets.
func (s *Site) Cloudflare() bool { return s.CDN == BackendCdnflare }

// OnBackend reports whether the site serves any traffic through backend b
// (as primary or secondary).
func (s *Site) OnBackend(b Backend) bool {
	return b != BackendNone && (s.CDN == b || s.AltCDN == b)
}

// Hostname returns the FQDN for subdomain index i.
func (s *Site) Hostname(i int) string {
	if s.Subdomains[i] == "" {
		return s.Domain
	}
	return s.Subdomains[i] + "." + s.Domain
}

// InfraName is a non-website FQDN with heavy DNS query volume: OS telemetry
// endpoints, NTP pools, software-update and push services. They are what
// makes DNS-derived rankings (Umbrella) diverge from website popularity.
type InfraName struct {
	FQDN string
	// QueryWeight is the relative per-device DNS query rate.
	QueryWeight float64
}

// World is the generated universe.
type World struct {
	Cfg   Config
	Sites []Site
	Infra []InfraName

	byDomain map[string]int32
	trueRank *rank.Ranking

	// tab is the study's name interner. Site domains are interned first,
	// in true-rank order, establishing the invariant that a site's domain
	// has interner ID equal to the site ID; every observer and every
	// derived ranking of the study shares this table.
	tab *names.Table
}

// Generate builds a world from the config. Generation is deterministic in
// Config (including Seed). Generate panics on a config Config.Validate
// rejects; zero fields are valid and take defaults.
func Generate(cfg Config) *World {
	// Out-of-range values are programmer errors at this layer: callers
	// holding user input validate with Config.Validate first and report
	// the error themselves; Generate refuses to silently clamp.
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	root := simrand.New(cfg.Seed).Derive("world")
	w := &World{
		Cfg:      cfg,
		Sites:    make([]Site, cfg.NumSites),
		byDomain: make(map[string]int32, cfg.NumSites),
	}

	catAlias := buildCategoryTierAliases()
	siteShare := make([]float64, NumCountries)
	for i, ci := range countryInfos {
		siteShare[i] = ci.SiteShare
	}
	homeAlias := simrand.NewAlias(siteShare)

	nameGen := newNameGen(root.Derive("names"))
	gen := root.Derive("sites")
	n := cfg.NumSites
	for i := 0; i < n; i++ {
		src := gen.At(i)
		s := &w.Sites[i]
		tier := tierOf(i, n)
		s.Category = Category(catAlias[tier].Draw(src))
		s.Home = Country(homeAlias.Draw(src))
		ci := s.Home.Info()
		cat := s.Category.Info()

		s.Domain = nameGen.generate(src, s.Category, s.Home)
		s.HTTPS = src.Bernoulli(httpsShare)
		boost := cat.WeightBoost
		if cfg.Ablate.NoWeightBoost {
			boost = 1
		}
		s.Weight = math.Pow(float64(i+1), -zipfS) * src.LogNormal(0, popNoise) * boost

		headness := 1 / (1 + float64(i)/(0.01*float64(n)+1))
		g := (1 - ci.Localness) * (0.45 + 0.55*headness) * src.LogNormal(0, 0.25)
		g = clamp(g, 0.02, 0.95)
		var sum float64
		for c := 0; c < NumCountries; c++ {
			wc := g * countryInfos[c].ClientShare
			if Country(c) == s.Home {
				wc += 1 - g
			}
			s.CountryShare[c] = float32(wc)
			sum += wc
		}
		for c := 0; c < NumCountries; c++ {
			s.CountryShare[c] = float32(float64(s.CountryShare[c]) / sum)
		}

		// The two adoption draws below predate the multi-backend model and
		// must stay in this exact order on the per-site stream: every later
		// field of the site is drawn from the same stream, so inserting,
		// removing, or reordering draws here would shift the whole universe.
		// Competitor-backend assignment draws from a separate derived stream
		// after sorting (below) for the same reason.
		pCF := cfBase * cat.CFBoost * ci.CFAdoption * tierCFFactor(tier)
		if src.Bernoulli(clamp(pCF, 0, 0.95)) {
			s.CDN = BackendCdnflare
			if src.Bernoulli(multiCDNShare) {
				s.AltCDN = BackendEdgecast
			}
		}
		pNonPub := nonPublicShare
		if tier == tierHead {
			pNonPub *= 0.15
		}
		s.NonPublic = src.Bernoulli(pNonPub)

		s.Stickiness = float32(clamp(cat.Stickiness*src.LogNormal(0, 0.8), 0.05, 40))
		s.MobileShare = float32(clamp(cat.MobileShare+0.10*src.NormFloat64(), 0.05, 0.95))
		s.PrivateShare = float32(clamp(cat.PrivateShare*src.LogNormal(0, 0.25), 0, 0.95))
		if cfg.Ablate.NoPrivateBrowsing {
			s.PrivateShare = 0
		}
		s.BotShare = float32(clamp(cat.BotShare*src.LogNormal(0, 0.3), 0.01, 0.95))
		s.SubresMean = float32(clamp(cat.SubresMean*src.LogNormal(0, 0.9), 1, 400))
		s.EntryShare = float32(clamp(cat.EntryShare+0.18*src.NormFloat64(), 0.05, 0.98))
		s.CompletionProb = float32(clamp(cat.CompletionProb+0.04*src.NormFloat64(), 0.5, 0.99))
		s.DwellMu = float32(cat.DwellMu + 0.3*src.NormFloat64())
		s.DwellSigma = float32(0.8 + 0.3*src.Float64())
		s.DNSTTL = drawTTL(src)
		s.Subdomains, s.SubWeights = drawSubdomains(src, headness)
	}

	// Sort by true weight descending; re-assign IDs so ID == true rank - 1.
	// Interning the domains in this order pins interner ID == site ID.
	sortSitesByWeight(w.Sites)
	w.tab = names.NewTable()
	idsInOrder := make([]names.ID, n)
	for i := range w.Sites {
		w.Sites[i].ID = int32(i)
		w.byDomain[w.Sites[i].Domain] = int32(i)
		idsInOrder[i] = w.tab.Intern(w.Sites[i].Domain)
	}
	w.trueRank = rank.MustFromIDs(w.tab, idsInOrder)

	// None of the global top ten sites use Cloudflare (Section 4.5).
	for i := 0; i < 10 && i < n; i++ {
		if w.Sites[i].CDN == BackendCdnflare {
			w.Sites[i].CDN = BackendNone
			w.Sites[i].AltCDN = BackendNone
		}
	}

	// Competitor backends, when deployed, are assigned from their own
	// derived stream keyed by final (true-rank) site index, so a
	// single-backend world never consumes these draws and stays
	// byte-identical to worlds generated before competitors existed.
	if cfg.Backends > 1 {
		deployed := DeployedBackends(cfg.Backends)
		extra := root.Derive("cdn-extra")
		for i := range w.Sites {
			s := &w.Sites[i]
			src := extra.At(i)
			if s.CDN == BackendCdnflare {
				// Multi-CDN sites pair with a competitor; with three or more
				// backends deployed the pairing splits between them.
				if s.AltCDN != BackendNone && cfg.Backends > 2 && src.Bernoulli(0.5) {
					s.AltCDN = BackendAkamai
				}
				continue
			}
			cat := s.Category.Info()
			ci := s.Home.Info()
			tf := tierCFFactor(tierOf(i, n))
			for _, b := range deployed[1:] {
				p := extraCDNBase * b.categoryBoost(cat) * b.countryBoost(ci) * tf
				if src.Bernoulli(clamp(p, 0, 0.95)) {
					s.CDN = b
					break
				}
			}
		}
	}

	// Infrastructure names (OS telemetry, NTP, update servers) dominate DNS
	// vantage points; their count scales with the universe.
	w.Infra = generateInfra(root.Derive("infra"), max(20, n/50))
	return w
}

type tier uint8

const (
	tierHead tier = iota
	tierTorso
	tierTail
	numTiers
)

func tierOf(i, n int) tier {
	switch {
	case i < n/100+1:
		return tierHead
	case i < n/10+1:
		return tierTorso
	default:
		return tierTail
	}
}

func tierCFFactor(t tier) float64 {
	switch t {
	case tierHead:
		return 1.0
	case tierTorso:
		return 1.1
	default:
		return 0.8
	}
}

func buildCategoryTierAliases() [numTiers]*simrand.Alias {
	var out [numTiers]*simrand.Alias
	for t := tier(0); t < numTiers; t++ {
		weights := make([]float64, NumCategories)
		for c := 0; c < NumCategories; c++ {
			info := categoryInfos[c]
			switch t {
			case tierHead:
				weights[c] = info.ShareHead
			case tierTorso:
				weights[c] = info.ShareTorso
			default:
				weights[c] = info.ShareTail
			}
		}
		out[t] = simrand.NewAlias(weights)
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

var ttlChoices = []int32{60, 300, 900, 3600, 21600}
var ttlWeights = []float64{0.25, 0.35, 0.15, 0.15, 0.10}

func drawTTL(src *simrand.Source) int32 {
	r := src.Float64()
	acc := 0.0
	for i, w := range ttlWeights {
		acc += w
		if r < acc {
			return ttlChoices[i]
		}
	}
	return ttlChoices[len(ttlChoices)-1]
}

var subdomainPool = []string{
	"api", "cdn", "static", "img", "m", "blog", "shop", "news", "mail",
	"login", "app", "assets", "media", "dev", "docs",
}

func drawSubdomains(src *simrand.Source, headness float64) ([]string, []float32) {
	// How a site's traffic splits across hostnames varies wildly between
	// sites: some serve everything from the apex, others spread over www
	// and a constellation of subdomains. This heterogeneity is what makes
	// FQDN- and origin-keyed lists (Umbrella, CrUX) hard to normalize
	// fairly (Section 4.2) and scrambles Umbrella's per-name ranks.
	labels := []string{""}
	weights := []float32{float32(0.08 + 0.84*src.Float64())}
	if src.Bernoulli(0.85) {
		labels = append(labels, "www")
		weights = append(weights, float32(0.05+0.6*src.Float64()))
	}
	extra := src.Poisson(0.7 + 2.5*headness)
	if extra > len(subdomainPool) {
		extra = len(subdomainPool)
	}
	perm := src.Perm(len(subdomainPool))
	for j := 0; j < extra; j++ {
		labels = append(labels, subdomainPool[perm[j]])
		weights = append(weights, float32(0.02+0.3*src.Float64()))
	}
	// Normalize weights to sum to 1.
	var sum float32
	for _, w := range weights {
		sum += w
	}
	for i := range weights {
		weights[i] /= sum
	}
	return labels, weights
}

// sortSitesByWeight sorts descending by Weight with a deterministic
// domain-name tiebreak.
func sortSitesByWeight(sites []Site) {
	// sort.Slice on a []Site of this size copies a lot; it is still the
	// clearest option and runs once per world.
	sortSlice(sites, func(a, b *Site) bool {
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		return a.Domain < b.Domain
	})
}

// NumSites returns the number of sites.
func (w *World) NumSites() int { return len(w.Sites) }

// Site returns the site with the given ID (equal to its true-rank index).
func (w *World) Site(id int32) *Site { return &w.Sites[id] }

// ByDomain returns the site ID for a registrable domain.
func (w *World) ByDomain(name string) (int32, bool) {
	id, ok := w.byDomain[name]
	return id, ok
}

// TrueRank returns the ground-truth global popularity ranking by domain.
func (w *World) TrueRank() *rank.Ranking { return w.trueRank }

// Interner returns the study-wide name table. Site domains occupy IDs
// 0..NumSites-1 in true-rank order; apexes, FQDNs, and origins interned by
// observers follow.
func (w *World) Interner() *names.Table { return w.tab }

// DomainID returns the interner ID of a site's registrable domain, which
// by construction equals the site ID.
func (w *World) DomainID(site int32) names.ID { return names.ID(site) }

// SiteOfID returns the site whose domain has interner ID id, if id is a
// site domain (IDs at and beyond NumSites belong to other interned names).
func (w *World) SiteOfID(id names.ID) (int32, bool) {
	if int(id) >= len(w.Sites) {
		return 0, false
	}
	return int32(id), true
}

// CloudflareSet returns the set of Cloudflare-served registrable domains.
func (w *World) CloudflareSet() map[string]struct{} {
	s := make(map[string]struct{})
	for i := range w.Sites {
		if w.Sites[i].Cloudflare() {
			s[w.Sites[i].Domain] = struct{}{}
		}
	}
	return s
}

// Backends returns the world's deployed edge backends in deployment order.
func (w *World) Backends() []Backend {
	return DeployedBackends(w.Cfg.Backends)
}

// Deployed reports whether backend b serves an observable edge in this
// world.
func (w *World) Deployed(b Backend) bool {
	return b >= BackendCdnflare && int(b-BackendCdnflare) < w.Cfg.Backends
}

// ServingBackend returns the backend whose edge actually fronts the site:
// its primary CDN when that backend is deployed, BackendNone otherwise.
func (w *World) ServingBackend(s *Site) Backend {
	if w.Deployed(s.CDN) {
		return s.CDN
	}
	return BackendNone
}

// Vantages returns the world's measurement vantage points. Vantage 0 is
// always the transparent primary.
func (w *World) Vantages() []Vantage { return w.Cfg.Vantages }

// SiteWeights returns per-site selection weights for browsing clients in
// the given country and platform: the site's true weight, scaled by its
// audience share in the country, the country's openness to foreign sites
// (near zero for China), and the site's platform skew.
func (w *World) SiteWeights(c Country, p Platform) []float64 {
	open := countryInfos[c].Openness
	if w.Cfg.Ablate.NoOpenness {
		open = 1
	}
	// Behind a restrictive network, what leaks through is not proportional
	// to global popularity: foreign consumption is both suppressed and
	// scrambled. The scramble is a mean-one log-normal whose spread grows
	// as openness falls, keyed deterministically by (country, site).
	sigma := 1.6 * (1 - open)
	mu := -sigma * sigma / 2
	out := make([]float64, len(w.Sites))
	for i := range w.Sites {
		s := &w.Sites[i]
		pf := float64(s.MobileShare)
		if p == Windows {
			pf = 1 - pf
		}
		wt := s.Weight * float64(s.CountryShare[c]) * 2 * pf
		if s.Home != c {
			wt *= open
			if sigma > 0 {
				noise := simrand.New(w.Cfg.Seed).Derive("foreign-scramble").
					At(int(c)<<24 | i)
				wt *= noise.LogNormal(mu, sigma)
			}
		}
		out[i] = wt
	}
	return out
}

// PanelDistortion returns per-site multipliers describing how the Alexa
// extension panel's demographic skews the site mix it observes: a category
// affinity (webmaster/SEO-adjacent categories over-represented) times a
// stable per-site log-normal. Panel-demographic clients draw their fresh
// visits from the base weights times this distortion.
func (w *World) PanelDistortion() []float64 {
	src := simrand.New(w.Cfg.Seed).Derive("panel-distortion")
	out := make([]float64, len(w.Sites))
	for i := range w.Sites {
		s := &w.Sites[i]
		d := src.At(i)
		out[i] = s.Category.Info().PanelAffinity * d.LogNormal(0, 0.35)
		// A small fraction of sites install Alexa Certify code and are
		// measured (and boosted) directly [4]; these are the grossly
		// over-ranked entries behind the two-magnitude inflation of
		// Section 5.3.
		if d.Bernoulli(0.02) {
			out[i] *= 80
		}
	}
	return out
}

// WorkDistortion returns per-site multipliers for workday browsing on
// corporate networks: the category's work affinity times a stable per-site
// log-normal. Enterprise clients draw their at-work visits from the base
// weights times this distortion.
func (w *World) WorkDistortion() []float64 {
	src := simrand.New(w.Cfg.Seed).Derive("work-distortion")
	out := make([]float64, len(w.Sites))
	for i := range w.Sites {
		s := &w.Sites[i]
		out[i] = s.Category.Info().WorkAffinity * src.At(i).LogNormal(0, 0.8)
	}
	return out
}

// Describe returns a one-line summary for logs and CLI output.
func (w *World) Describe() string {
	cf := 0
	for i := range w.Sites {
		if w.Sites[i].Cloudflare() {
			cf++
		}
	}
	return fmt.Sprintf("world: %d sites (%.1f%% cloudflare), %d infra names, seed %d",
		len(w.Sites), 100*float64(cf)/float64(len(w.Sites)), len(w.Infra), w.Cfg.Seed)
}
