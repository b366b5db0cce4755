package world

import (
	"strconv"
	"strings"

	"toplists/internal/simrand"
)

// nameGen mints unique, plausible registrable domain names. Names are
// syllable-based pseudo-words under a TLD chosen from the site's home
// country (or a sector suffix for government/education sites), so that PSL
// handling is exercised on realistic multi-label suffixes.
type nameGen struct {
	src  *simrand.Source
	used map[string]struct{}
}

func newNameGen(src *simrand.Source) *nameGen {
	return &nameGen{src: src, used: make(map[string]struct{})}
}

var (
	onsets  = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "ch", "sh", "st", "tr", "pl", "br"}
	vowels  = []string{"a", "e", "i", "o", "u", "ai", "ea", "io", "ou"}
	codas   = []string{"", "", "", "n", "r", "s", "x", "l", "m", "k"}
	affixes = []string{"", "", "", "hub", "zone", "base", "ly", "ify", "spot", "lab", "den", "go", "now", "web"}
)

// sectorTLD returns a sector-specific suffix for categories that use one in
// the given country, or "" if the site should use an ordinary TLD.
func sectorTLD(cat Category, home Country) string {
	switch cat {
	case Government:
		switch home {
		case US:
			return "gov"
		case GB:
			return "gov.uk"
		case CN:
			return "gov.cn"
		case BR:
			return "gov.br"
		case IN:
			return "gov.in"
		case JP:
			return "go.jp"
		case ID:
			return "go.id"
		case NG:
			return "gov.ng"
		case EG:
			return "gov.eg"
		case ZA:
			return "gov.za"
		default:
			return ""
		}
	case Education:
		switch home {
		case US:
			return "edu"
		case GB:
			return "ac.uk"
		case CN:
			return "edu.cn"
		case BR:
			return "edu.br"
		case JP:
			return "ac.jp"
		case ID:
			return "ac.id"
		case NG:
			return "edu.ng"
		case EG:
			return "edu.eg"
		case ZA:
			return "ac.za"
		default:
			return ""
		}
	}
	return ""
}

func (g *nameGen) generate(siteSrc *simrand.Source, cat Category, home Country) string {
	tld := sectorTLD(cat, home)
	if tld == "" {
		ci := home.Info()
		tld = pick(siteSrc, ci.TLDs, ci.TLDWts)
	}
	for attempt := 0; ; attempt++ {
		var b strings.Builder
		syllables := 2 + siteSrc.Intn(2)
		for i := 0; i < syllables; i++ {
			b.WriteString(onsets[siteSrc.Intn(len(onsets))])
			b.WriteString(vowels[siteSrc.Intn(len(vowels))])
			if i == syllables-1 {
				b.WriteString(codas[siteSrc.Intn(len(codas))])
			}
		}
		b.WriteString(affixes[siteSrc.Intn(len(affixes))])
		if attempt > 2 {
			// Very unlikely at realistic scales; guarantee termination.
			b.WriteString(strconv.Itoa(siteSrc.Intn(100000)))
		}
		name := b.String() + "." + tld
		if _, dup := g.used[name]; dup {
			continue
		}
		g.used[name] = struct{}{}
		return name
	}
}

func pick(src *simrand.Source, items []string, weights []float64) string {
	var total float64
	for _, w := range weights {
		total += w
	}
	r := src.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r < acc {
			return items[i]
		}
	}
	return items[len(items)-1]
}

// generateInfra mints the non-website infrastructure FQDNs. Their DNS query
// weights are heavy-tailed and large: every device on a network resolves
// them many times a day, which is why they crowd the head of DNS-derived
// rankings.
func generateInfra(src *simrand.Source, n int) []InfraName {
	vendors := []string{"osvendor", "phonemaker", "adnet", "pushsvc", "antivirusco", "smarttvco", "routerco", "cloudapi"}
	kinds := []string{"telemetry", "update", "time", "push", "beacon", "api", "cfg", "metrics", "events", "ocsp"}
	out := make([]InfraName, n)
	for i := 0; i < n; i++ {
		s := src.At(i)
		vendor := vendors[s.Intn(len(vendors))]
		kind := kinds[s.Intn(len(kinds))]
		fqdn := kind + strconv.Itoa(i) + "." + vendor + ".com"
		// Weight ~ Zipf by index with noise; the heaviest infra names out-query
		// any website by a wide margin.
		w := 40.0 / float64(i+1)
		out[i] = InfraName{
			FQDN:        fqdn,
			QueryWeight: w * s.LogNormal(0, 0.5),
		}
	}
	return out
}
