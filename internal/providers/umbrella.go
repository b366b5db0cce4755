package providers

import (
	"math"

	"toplists/internal/names"
	"toplists/internal/psl"
	"toplists/internal/rank"
	"toplists/internal/sketch"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// Umbrella reconstructs the Cisco Umbrella 1 Million: "the number of unique
// client IPs visiting each domain, relative to the sum of all requests to
// all domains" [33], computed from queries arriving at the corporate
// Umbrella resolver.
//
// Three properties of the real list fall out of the vantage:
//
//   - Entries are FQDNs, not websites; heavily-queried infrastructure names
//     (telemetry, NTP, updates) crowd the head.
//   - Bare public suffixes rank at the very top (".com is ranked #1"),
//     modeled by crediting each query's suffix chain.
//   - Ties deep in the list break alphabetically, the behaviour prior work
//     observed [25] and the paper blames for Umbrella's poor Spearman
//     correlations (Section 5.2).
type Umbrella struct {
	traffic.BaseSink
	w   *world.World
	psl *psl.List
	tab *names.Table

	// hostID memoizes the interned FQDN per (site, subdomain) or infra
	// name, so the month's query stream builds each hostname string once.
	hostID map[hostKey]names.ID
	// suffixID memoizes per FQDN the interned public suffix to credit;
	// the FQDN's own ID marks "no separate suffix" (empty, or the name is
	// itself a suffix).
	suffixID map[names.ID]names.ID

	// ips[id] is the set of client IPs that queried the name today. Plain
	// map sets: enterprise office IPs are few and heavily shared.
	ips map[names.ID]map[uint32]struct{}

	// Sketch mode (see sketchmode.go): bounded per-shard summaries replace
	// the ips sets, merged into dayTKD at the barrier.
	sketched bool
	dayTKD   *sketch.TopKDistinct
	nameOf   map[uint64]string
	shardMem int
	memPeak  int

	lists []*rank.Ranking
}

// hostKey identifies a queried FQDN: (site << 8) | subdomain index for
// website hostnames, -1-infra for infrastructure names.
type hostKey int64

// NewUmbrella returns an Umbrella provider observing the corporate resolver.
func NewUmbrella(w *world.World, l *psl.List) *Umbrella {
	return &Umbrella{
		w:        w,
		psl:      l,
		tab:      w.Interner(),
		hostID:   make(map[hostKey]names.ID),
		suffixID: make(map[names.ID]names.ID),
	}
}

// Name implements List.
func (u *Umbrella) Name() string { return "Umbrella" }

// Bucketed implements List.
func (u *Umbrella) Bucketed() bool { return false }

// BeginDay implements traffic.Sink.
func (u *Umbrella) BeginDay(day int, weekend bool) {
	if u.sketched {
		return
	}
	u.ips = make(map[names.ID]map[uint32]struct{})
}

// OnDNSQuery implements traffic.Sink.
func (u *Umbrella) OnDNSQuery(q *traffic.DNSQuery) {
	if !q.AtWork && !q.Client.HomeOpenDNS {
		// Umbrella's vantage is corporate egress plus the minority of home
		// networks pointed at OpenDNS.
		return
	}
	var key hostKey
	if q.Site >= 0 {
		if !q.AtWork && q.Client.FamilyFilter && familyFiltered[u.w.Site(q.Site).Category] {
			// The household's filtering policy answers with a block page;
			// blocked resolutions do not feed the popularity ranking.
			return
		}
		key = hostKey(q.Site)<<8 | hostKey(q.SubIdx)
	} else {
		key = -1 - hostKey(q.Infra)
	}
	id := u.fqdnID(key, q)
	u.credit(id, q.IP)
	// Umbrella counts the names clients actually query: the signal for one
	// website splits across its hostnames rather than aggregating by
	// registrable domain — a big part of why the list ranks websites
	// poorly even when it includes them (Section 5.2). Resolution of the
	// suffix chain (TLD servers) is also observed, which is how bare
	// suffixes like "com" top the list.
	if sid := u.suffixOf(id); sid != id {
		u.credit(sid, q.IP)
	}
}

// fqdnID returns the interned FQDN for a query, building the hostname
// string only on the first query of each (site, subdomain) or infra name.
func (u *Umbrella) fqdnID(key hostKey, q *traffic.DNSQuery) names.ID {
	if id, ok := u.hostID[key]; ok {
		return id
	}
	var fqdn string
	if q.Site >= 0 {
		fqdn = u.w.Site(q.Site).Hostname(int(q.SubIdx))
	} else {
		fqdn = u.w.Infra[q.Infra].FQDN
	}
	id := u.tab.Intern(fqdn)
	u.hostID[key] = id
	return id
}

// suffixOf returns the interned public suffix to credit for fqdn id, or id
// itself when no separate suffix should be credited.
func (u *Umbrella) suffixOf(id names.ID) names.ID {
	if sid, ok := u.suffixID[id]; ok {
		return sid
	}
	fqdn := u.tab.Lookup(id)
	sid := id
	if suffix, _ := u.psl.PublicSuffix(fqdn); suffix != "" && suffix != fqdn {
		sid = u.tab.Intern(suffix)
	}
	u.suffixID[id] = sid
	return sid
}

// familyFiltered lists the categories OpenDNS home filtering blocks.
var familyFiltered = func() [world.NumCategories]bool {
	var v [world.NumCategories]bool
	v[world.Adult] = true
	v[world.Gambling] = true
	v[world.Abuse] = true
	return v
}()

func (u *Umbrella) credit(id names.ID, ip uint32) {
	s, ok := u.ips[id]
	if !ok {
		s = make(map[uint32]struct{}, 4)
		u.ips[id] = s
	}
	s[ip] = struct{}{}
}

// EndDay implements traffic.Sink.
func (u *Umbrella) EndDay(day int) {
	if u.sketched {
		u.endDaySketch(day)
		return
	}
	scored := make([]rank.ScoredID, 0, len(u.ips))
	for id, set := range u.ips {
		scored = append(scored, rank.ScoredID{ID: id, Score: quantize(len(set))})
	}
	// Alphabetical tie-break: the signature Umbrella artifact.
	u.lists = append(u.lists, rank.FromScoredIDs(u.tab, scored, rank.TieLexicographic))
}

// quantize coarsens a unique-IP count to the resolution the published list
// evidently has: prior work observed "long strings of alphabetically sorted
// domains" [25], which means the underlying popularity score ties across
// large count ranges. A log2 grid reproduces those runs.
func quantize(count int) float64 {
	return math.Floor(math.Log2(float64(count)))
}

// NumDays returns how many days have been published.
func (u *Umbrella) NumDays() int { return len(u.lists) }

// Raw implements List.
func (u *Umbrella) Raw(day int) *rank.Ranking { return u.lists[day] }

// Normalized implements List.
func (u *Umbrella) Normalized(day int, l *psl.List) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalized(u.Raw(day), l)
}

// NormalizedIn implements the memoized normalization fast path.
func (u *Umbrella) NormalizedIn(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalizedIn(u.Raw(day), nz)
}
