package world

import "fmt"

// Backend identifies a CDN edge backend a site may be served through. The
// zero value means the site is origin-only. Cdnflare is the Cloudflare-style
// backend of the paper; the edgecast-like and akamai-like backends model
// competitors with distinct header signatures and a coverage skew of their
// own (by category, country, and popularity tier), so CDN-visible metrics
// can be studied under controllable coverage bias.
type Backend uint8

// The backends. BackendNone is "no CDN" (origin-served), and the remaining
// values are the deployable edge backends in deployment order: a world with
// Config.Backends = n serves through the first n of them.
const (
	BackendNone     Backend = iota
	BackendCdnflare         // the Cloudflare-style edge of the paper
	BackendEdgecast         // an Edgecast-like competitor
	BackendAkamai           // an Akamai-like competitor
	// NumBackends is the count of deployable edge backends.
	NumBackends = 3
)

// String implements fmt.Stringer. The names double as stable API slugs.
func (b Backend) String() string {
	switch b {
	case BackendCdnflare:
		return "cdnflare"
	case BackendEdgecast:
		return "edgecast"
	case BackendAkamai:
		return "akamai"
	default:
		return "none"
	}
}

// RayHeader is the backend's per-request trace header, the signature the
// prober classifies on. Cdnflare's is exactly the cf-ray header the paper's
// filtering step keys on.
func (b Backend) RayHeader() string {
	switch b {
	case BackendCdnflare:
		return "Cf-Ray"
	case BackendEdgecast:
		return "X-Ec-Ray"
	case BackendAkamai:
		return "X-Ak-Ray"
	default:
		return ""
	}
}

// Banner is the Server response header the backend's edge stamps.
func (b Backend) Banner() string {
	switch b {
	case BackendCdnflare:
		return "cloudflare"
	case BackendEdgecast:
		return "ECAcc (sim)"
	case BackendAkamai:
		return "AkamaiGHost"
	default:
		return ""
	}
}

// DeployedBackends returns the first n deployable backends in deployment
// order (cdnflare first). n is clamped to [1, NumBackends].
func DeployedBackends(n int) []Backend {
	if n < 1 {
		n = 1
	}
	if n > NumBackends {
		n = NumBackends
	}
	out := make([]Backend, n)
	for i := range out {
		out[i] = BackendCdnflare + Backend(i)
	}
	return out
}

// categoryBoost scales a competitor backend's adoption probability by site
// category: the edgecast-like backend follows the same commercial segments
// Cloudflare over-serves, while the akamai-like backend over-indexes on
// heavy-traffic categories (video, news, shopping — the classic enterprise
// CDN book of business).
func (b Backend) categoryBoost(cat CategoryInfo) float64 {
	switch b {
	case BackendEdgecast:
		return 0.6 + 0.4*cat.CFBoost
	case BackendAkamai:
		return 0.4 + 0.5*cat.WeightBoost
	default:
		return 1
	}
}

// countryBoost scales a competitor backend's adoption probability by the
// site's home country: edgecast-like follows open Western markets where
// Cloudflare is also strong, akamai-like follows enterprise density (and so
// keeps meaningful coverage in Japan, where Cloudflare adoption is weak).
func (b Backend) countryBoost(ci CountryInfo) float64 {
	switch b {
	case BackendEdgecast:
		return 0.3 + 2.5*ci.CFAdoption*ci.Openness
	case BackendAkamai:
		return 0.4 + 4*ci.EnterpriseShare
	default:
		return 1
	}
}

// Vantage is one measurement vantage point: a country it observes from and
// a per-client-country reachability profile. A pipeline measuring from the
// vantage sees a page load from a client in country c with probability
// Reach[c] (decided by a deterministic content-keyed hash, so visibility is
// independent of worker scheduling); LatencyMS is the modeled RTT bias used
// for reporting.
type Vantage struct {
	Name    string
	Country Country
	Reach   [NumCountries]float64
	// LatencyMS[c] is the modeled round-trip latency from clients in
	// country c to this vantage, in milliseconds.
	LatencyMS [NumCountries]float64
}

// Transparent reports whether the vantage sees every client country fully
// (Reach all 1) — the single global vantage of the original model.
func (v *Vantage) Transparent() bool {
	for _, r := range v.Reach {
		if r < 1 {
			return false
		}
	}
	return true
}

// GlobalVantage is the transparent vantage the original single-edge model
// measured from: it observes every client everywhere with no loss.
func GlobalVantage() Vantage {
	v := Vantage{Name: "global", Country: US}
	for c := range v.Reach {
		v.Reach[c] = 1
		v.LatencyMS[c] = 25
	}
	return v
}

// vantagePlacements is the fixed order additional vantages are placed in:
// a deliberate geographic spread (Americas, Europe, Asia, Africa) rather
// than a pure client-share ordering, so small vantage counts already span
// dissimilar reachability profiles.
var vantagePlacements = [11]struct {
	name    string
	country Country
}{
	{"us-east", US},
	{"eu-central", DE},
	{"ap-south", IN},
	{"ap-northeast", JP},
	{"sa-east", BR},
	{"cn-north", CN},
	{"eu-west", GB},
	{"ap-southeast", ID},
	{"af-west", NG},
	{"me-north", EG},
	{"af-south", ZA},
}

// MaxVantages is the largest vantage count DefaultVantages can place.
const MaxVantages = 1 + len(vantagePlacements)

// regionalVantage builds a placed vantage: full reach of its own country,
// and cross-border reach shaped by both ends' network openness. A vantage
// in a closed country (cn-north) barely sees foreign clients, and clients
// in closed countries barely reach foreign vantages — the single-vantage
// blind spots the multi-vantage analysis measures.
func regionalVantage(name string, home Country) Vantage {
	v := Vantage{Name: name, Country: home}
	hi := home.Info()
	for c := 0; c < NumCountries; c++ {
		if Country(c) == home {
			v.Reach[c] = 1
			v.LatencyMS[c] = 15
			continue
		}
		ci := countryInfos[c]
		r := 0.2 + 0.65*ci.Openness*hi.Openness
		if r > 0.92 {
			r = 0.92
		}
		v.Reach[c] = r
		v.LatencyMS[c] = 40 + 220*(1-r)
	}
	return v
}

// DefaultVantages returns the vantage set for a study with n vantages.
// n <= 1 yields the single transparent global vantage (the original
// model, byte-identical by construction); larger n keeps the global
// vantage first and adds regional vantages in placement order.
func DefaultVantages(n int) []Vantage {
	if n < 1 {
		n = 1
	}
	if n > MaxVantages {
		n = MaxVantages
	}
	out := make([]Vantage, 0, n)
	out = append(out, GlobalVantage())
	for i := 0; len(out) < n; i++ {
		p := vantagePlacements[i]
		out = append(out, regionalVantage(p.name, p.country))
	}
	return out
}

// Validate checks a vantage's fields, reporting the first problem.
func (v *Vantage) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("world: vantage has empty name")
	}
	if int(v.Country) >= NumCountries {
		return fmt.Errorf("world: vantage %q: country %d out of range", v.Name, v.Country)
	}
	for c, r := range v.Reach {
		if r < 0 || r > 1 {
			return fmt.Errorf("world: vantage %q: reach[%s] = %v outside [0, 1]", v.Name, Country(c), r)
		}
	}
	for c, l := range v.LatencyMS {
		if l < 0 {
			return fmt.Errorf("world: vantage %q: latency[%s] = %v negative", v.Name, Country(c), l)
		}
	}
	return nil
}
