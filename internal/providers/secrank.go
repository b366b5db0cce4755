package providers

import (
	"math"
	"slices"

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

	// Day state, merged from the shard states: each client IP's query
	// profile as a space-saving summary of per-domain counts (see
	// newProfile). shardMem and memPeak are the sketch footprint gauge.
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
	s := &Secrank{w: w, psl: l, tab: w.Interner(), Window: 7,
		dayProfiles: make(map[uint32]*sketch.SpaceSaving)}
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

// SetSketch switches the provider to sketch-backed aggregation. Must be
// called before the simulation starts.
func (s *Secrank) SetSketch() { s.sketched = true }

// newProfile returns an empty per-IP profile. In sketch mode its capacity
// is bounded, so profiles beyond it are truncated; in exact mode it is
// larger than any profile can grow, so the summary never evicts and its
// counts, and their merges, are exact.
func (s *Secrank) newProfile() *sketch.SpaceSaving {
	if s.sketched {
		return sketch.NewShardProfile()
	}
	return sketch.NewSpaceSaving(math.MaxInt32)
}

// popProfile reuses a pooled profile, or returns a new one.
func (s *Secrank) popProfile(pool *[]*sketch.SpaceSaving) *sketch.SpaceSaving {
	if n := len(*pool); n > 0 {
		p := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return p
	}
	return s.newProfile()
}

// secrankShard accumulates one logical shard's per-IP domain profiles.
// Keys are registrable-domain IDs, which are run-stable: site domains are
// interned deterministically at world generation and infra apexes at
// provider construction.
type secrankShard struct {
	s        *Secrank
	profiles map[uint32]*sketch.SpaceSaving
	pool     []*sketch.SpaceSaving
}

// NewShardState implements traffic.ShardedSink.
func (s *Secrank) NewShardState() traffic.ShardState {
	return &secrankShard{s: s, profiles: make(map[uint32]*sketch.SpaceSaving)}
}

// OnPageLoad implements traffic.ShardState; the resolver sees queries only.
func (ss *secrankShard) OnPageLoad(*traffic.PageLoad) {}

// OnDNSQuery implements traffic.ShardState.
func (ss *secrankShard) OnDNSQuery(q *traffic.DNSQuery) {
	if q.Client.Country != world.CN {
		return // the resolver serves Chinese clients
	}
	var id names.ID
	if q.Site >= 0 {
		// Votes are for registrable domains.
		id = ss.s.w.DomainID(q.Site)
	} else {
		id = ss.s.infraApex[q.Infra]
		if id == noVote {
			return
		}
	}
	prof, ok := ss.profiles[q.IP]
	if !ok {
		prof = ss.s.popProfile(&ss.pool)
		ss.profiles[q.IP] = prof
	}
	prof.Add(uint64(id), 1)
}

// Reset implements traffic.ShardState. Exact profiles may have been
// adopted by the day state, so they are dropped, not reused. Sketch
// profiles are recycled in sorted IP order for the same reason MergeShard
// merges in sorted order: pooled objects carry their capacity history, and
// a deterministic pool order keeps next-day assignments — and therefore
// the footprint gauges — reproducible.
func (ss *secrankShard) Reset() {
	if !ss.s.sketched {
		clear(ss.profiles)
		return
	}
	for _, ip := range sortedIPs(ss.profiles) {
		prof := ss.profiles[ip]
		prof.Reset()
		ss.pool = append(ss.pool, prof)
		delete(ss.profiles, ip)
	}
}

// sortedIPs returns a profile map's IPs in ascending order.
func sortedIPs(m map[uint32]*sketch.SpaceSaving) []uint32 {
	ips := make([]uint32, 0, len(m))
	for ip := range m {
		ips = append(ips, ip)
	}
	slices.Sort(ips)
	return ips
}

// MergeShard implements traffic.ShardedSink: per-IP profiles merge; an IP
// seen by several shards (shared office egress) combines per the
// space-saving merge rule, which sums the counts exactly while nothing
// evicts. In exact mode the day state adopts the shard's profiles — all of
// them by swap when it is empty, else those of IPs new to the day. Sketch
// profiles merge into pooled day profiles in sorted IP order, so pooled
// objects — whose retained capacities differ by growth history — are
// recycled to the same IPs on every run, keeping the footprint gauges a
// pure function of seed and configuration.
func (s *Secrank) MergeShard(st traffic.ShardState) {
	ss := st.(*secrankShard)
	if !s.sketched && len(s.dayProfiles) == 0 {
		s.dayProfiles, ss.profiles = ss.profiles, s.dayProfiles
		return
	}
	for _, ip := range sortedIPs(ss.profiles) {
		prof := ss.profiles[ip]
		day, ok := s.dayProfiles[ip]
		switch {
		case ok:
			day.Merge(prof, nil)
		case !s.sketched:
			s.dayProfiles[ip] = prof
		default:
			day = s.popProfile(&s.profilePool)
			day.Merge(prof, nil)
			s.dayProfiles[ip] = day
		}
		if s.sketched {
			s.shardMem += prof.MemBytes()
		}
	}
}

// EndDay implements traffic.Sink: run the per-IP voting round. IPs vote in
// sorted order so the floating-point vote sums are a pure function of the
// profiles, not of map iteration. In sketch mode profile truncation caps an
// IP's observed diversity at the profile capacity — by design: one more
// way the reconstruction is an approximation of an approximation.
func (s *Secrank) EndDay(day int) {
	votes := make(map[names.ID]float64)
	var entries []sketch.Entry
	var mem int
	for _, ip := range sortedIPs(s.dayProfiles) {
		prof := s.dayProfiles[ip]
		mem += prof.MemBytes()
		total := prof.N()
		if total == 0 {
			continue
		}
		// IP weight grows with domain diversity and (sub-linearly) volume.
		weight := math.Log2(1+float64(prof.Len())) * math.Log2(2+float64(total))
		entries = prof.Entries(entries[:0])
		for _, e := range entries {
			votes[names.ID(e.Key)] += weight * float64(e.Count) / float64(total)
		}
		if s.sketched {
			prof.Reset()
			s.profilePool = append(s.profilePool, prof)
		}
	}
	clear(s.dayProfiles)
	if m := s.shardMem + mem; s.sketched && m > s.memPeak {
		s.memPeak = m
	}
	s.shardMem = 0
	s.publishDay(votes)
}

// SketchMemPeak returns the high-water logical sketch footprint that met at
// a day barrier. Deterministic: a pure function of configuration and seed;
// 0 in exact mode.
func (s *Secrank) SketchMemPeak() int { return s.memPeak }

// publishDay appends the day's votes and publishes the trailing-window
// average.
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

// Archive returns the published days' rankings, clipped to their count.
// EndDay only appends, so the slice stays valid with no lock.
func (s *Secrank) Archive() []*rank.Ranking { return slices.Clip(s.lists) }

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
