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

// Secrank reconstructs the researcher-built Secrank list [34]: a
// voting-based ranking computed from the query stream of a major recursive
// resolver in China. Per the published description, each client IP "votes"
// for domains based on request volume and frequency of access, with IPs
// weighted by the domain diversity and total volume of their requests —
// heavy, diverse resolvers-behind-an-IP count more than single-purpose
// devices.
//
// The vantage is the bias: only Chinese clients are observed, which is why
// the paper finds Secrank matching China best, everywhere else terribly,
// and overlapping Cloudflare (rarely used by Chinese sites) least of all
// lists (Sections 5.1, 6.3).
type Secrank struct {
	traffic.BaseSink
	w   *world.World
	psl *psl.List
	tab *names.Table

	// infraApex memoizes per infra name the interned registrable domain a
	// query votes for, or noVote when the name has none.
	infraApex []names.ID

	// perIP accumulates today's per-IP query profile: domain -> count.
	perIP map[uint32]map[names.ID]int

	// Sketch mode (see sketchmode.go): bounded per-IP profile summaries
	// replace the perIP maps, merged into dayProfiles at the barrier.
	sketched    bool
	dayProfiles map[uint32]*sketch.SpaceSaving
	profilePool []*sketch.SpaceSaving
	shardMem    int
	memPeak     int

	// dayVotes holds each frozen day's aggregated votes.
	dayVotes []map[names.ID]float64

	// Window is the trailing number of days averaged per published list;
	// the Secrank design goal is temporal stability (default 7).
	Window int

	lists []*rank.Ranking
}

// noVote marks an infra name without a registrable domain (a bare public
// suffix); queries for it cast no vote. No real ID can collide with it
// before the interner holds 2^32-1 names.
const noVote = names.ID(0xffffffff)

// NewSecrank returns a Secrank provider observing the Chinese resolver.
func NewSecrank(w *world.World, l *psl.List) *Secrank {
	s := &Secrank{w: w, psl: l, tab: w.Interner(), Window: 7}
	s.infraApex = make([]names.ID, len(w.Infra))
	for i, inf := range w.Infra {
		s.infraApex[i] = noVote
		if etld1, ok := l.RegisteredDomain(inf.FQDN); ok {
			s.infraApex[i] = s.tab.Intern(etld1)
		}
	}
	return s
}

// Name implements List.
func (s *Secrank) Name() string { return "Secrank" }

// Bucketed implements List.
func (s *Secrank) Bucketed() bool { return false }

// BeginDay implements traffic.Sink.
func (s *Secrank) BeginDay(day int, weekend bool) {
	if s.sketched {
		return
	}
	s.perIP = make(map[uint32]map[names.ID]int)
}

// OnDNSQuery implements traffic.Sink.
func (s *Secrank) OnDNSQuery(q *traffic.DNSQuery) {
	if q.Client.Country != world.CN {
		return // the resolver serves Chinese clients
	}
	var id names.ID
	if q.Site >= 0 {
		// Votes are for registrable domains.
		id = s.w.DomainID(q.Site)
	} else {
		id = s.infraApex[q.Infra]
		if id == noVote {
			return
		}
	}
	prof, ok := s.perIP[q.IP]
	if !ok {
		prof = make(map[names.ID]int, 8)
		s.perIP[q.IP] = prof
	}
	prof[id]++
}

// EndDay implements traffic.Sink: run the per-IP voting round.
func (s *Secrank) EndDay(day int) {
	if s.sketched {
		s.endDaySketch(day)
		return
	}
	votes := make(map[names.ID]float64)
	for _, prof := range s.perIP {
		var total int
		for _, c := range prof {
			total += c
		}
		if total == 0 {
			continue
		}
		// IP weight grows with domain diversity and (sub-linearly) volume.
		weight := math.Log2(1+float64(len(prof))) * math.Log2(2+float64(total))
		for id, c := range prof {
			votes[id] += weight * float64(c) / float64(total)
		}
	}
	s.publishDay(votes)
}

// publishDay appends the day's votes and publishes the trailing-window
// average — shared by the exact and sketch voting rounds.
func (s *Secrank) publishDay(votes map[names.ID]float64) {
	s.dayVotes = append(s.dayVotes, votes)

	window := s.Window
	if window > len(s.dayVotes) {
		window = len(s.dayVotes)
	}
	agg := make(map[names.ID]float64)
	for _, dv := range s.dayVotes[len(s.dayVotes)-window:] {
		for id, v := range dv {
			agg[id] += v
		}
	}
	scored := make([]rank.ScoredID, 0, len(agg))
	for id, v := range agg {
		scored = append(scored, rank.ScoredID{ID: id, Score: v / float64(window)})
	}
	s.lists = append(s.lists, rank.FromScoredIDs(s.tab, scored, rank.TieHashed))
}

// NumDays returns how many days have been published.
func (s *Secrank) NumDays() int { return len(s.lists) }

// Raw implements List.
func (s *Secrank) Raw(day int) *rank.Ranking { return s.lists[day] }

// Normalized implements List.
func (s *Secrank) Normalized(day int, l *psl.List) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalized(s.Raw(day), l)
}

// NormalizedIn implements the memoized normalization fast path.
func (s *Secrank) NormalizedIn(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalizedIn(s.Raw(day), nz)
}
