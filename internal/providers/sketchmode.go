package providers

import (
	"math"
	"sort"

	"toplists/internal/names"
	"toplists/internal/rank"
	"toplists/internal/sketch"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// Sketch mode for the DNS-fed providers. Each provider implements
// traffic.ShardedSink: one bounded summary per logical traffic shard,
// merged at the day barrier in canonical shard order (see traffic.Config.
// Sketch). SetSketch must be called before the engine asks for shard
// states. The shard states never touch the shared name interner — worker
// goroutines key sketches by a stable hash of the name string (or by
// run-stable IDs) and the serial barrier/EndDay path resolves names to
// interned IDs, so output is byte-identical at every worker count.

// nameHash returns a run-stable 64-bit key for a DNS name: FNV-1a spread
// through the sketch finalizer. Interned IDs are NOT usable as sketch keys
// here — interning order depends on scheduling once shards run
// concurrently — but the hash of the string is a pure function of the name.
func nameHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// --- Umbrella -------------------------------------------------------------

// umbrellaShard accumulates one logical shard's resolver view: a
// space-saving candidate set over name hashes with a per-candidate HLL of
// client IPs. The hostname/suffix memos are per shard (no shared-map races)
// and survive Reset — they are month-stable facts, not day state.
type umbrellaShard struct {
	u   *Umbrella
	tkd *sketch.TopKDistinct

	// hostHash memoizes (site, subdomain)/infra -> name hash; suffixHash
	// memoizes fqdn hash -> credited suffix hash (self when none).
	hostHash   map[hostKey]uint64
	suffixHash map[uint64]uint64
	// nameOf records hash -> name for every key this shard may emit, so
	// the barrier can resolve merged candidates back to strings.
	nameOf map[uint64]string
}

// SetSketch switches the provider to sketch-backed aggregation. Must be
// called before the simulation starts.
func (u *Umbrella) SetSketch() {
	u.sketched = true
	u.dayTKD = sketch.NewShardTopKDistinct()
	u.nameOf = make(map[uint64]string)
}

// NewShardState implements traffic.ShardedSink.
func (u *Umbrella) NewShardState() traffic.ShardState {
	return &umbrellaShard{
		u:          u,
		tkd:        sketch.NewShardTopKDistinct(),
		hostHash:   make(map[hostKey]uint64),
		suffixHash: make(map[uint64]uint64),
		nameOf:     make(map[uint64]string),
	}
}

// OnPageLoad implements traffic.ShardState; the resolver sees queries only.
func (us *umbrellaShard) OnPageLoad(*traffic.PageLoad) {}

// OnDNSQuery implements traffic.ShardState, mirroring the exact path's
// vantage filter and suffix-chain crediting.
func (us *umbrellaShard) OnDNSQuery(q *traffic.DNSQuery) {
	u := us.u
	if !q.AtWork && !q.Client.HomeOpenDNS {
		return
	}
	var key hostKey
	if q.Site >= 0 {
		if !q.AtWork && q.Client.FamilyFilter && familyFiltered[u.w.Site(q.Site).Category] {
			return
		}
		key = hostKey(q.Site)<<8 | hostKey(q.SubIdx)
	} else {
		key = -1 - hostKey(q.Infra)
	}
	h, ok := us.hostHash[key]
	if !ok {
		var fqdn string
		if q.Site >= 0 {
			fqdn = u.w.Site(q.Site).Hostname(int(q.SubIdx))
		} else {
			fqdn = u.w.Infra[q.Infra].FQDN
		}
		h = nameHash(fqdn)
		us.hostHash[key] = h
		us.nameOf[h] = fqdn
		sh := h
		if suffix, _ := u.psl.PublicSuffix(fqdn); suffix != "" && suffix != fqdn {
			sh = nameHash(suffix)
			us.nameOf[sh] = suffix
		}
		us.suffixHash[h] = sh
	}
	ip := uint64(q.IP)
	us.tkd.Add(h, ip)
	if sh := us.suffixHash[h]; sh != h {
		us.tkd.Add(sh, ip)
	}
}

// Reset implements traffic.ShardState: day state clears, memos persist.
func (us *umbrellaShard) Reset() { us.tkd.Reset() }

// MergeShard implements traffic.ShardedSink.
func (u *Umbrella) MergeShard(st traffic.ShardState) {
	us := st.(*umbrellaShard)
	u.shardMem += us.tkd.MemBytes()
	u.dayTKD.Merge(us.tkd)
	for h, s := range us.nameOf {
		if _, ok := u.nameOf[h]; !ok {
			u.nameOf[h] = s
		}
	}
}

// endDaySketch publishes the day's list from the merged candidate set:
// names scored by the quantized HLL unique-IP estimate, resolved to
// interned IDs in canonical candidate order (serial, so interning is safe).
func (u *Umbrella) endDaySketch(day int) {
	entries := u.dayTKD.Entries(nil)
	scored := make([]rank.ScoredID, 0, len(entries))
	for _, e := range entries {
		n := int(math.Round(u.dayTKD.DistinctAt(e.Slot)))
		if n < 1 {
			n = 1
		}
		id := u.tab.Intern(u.nameOf[e.Key])
		scored = append(scored, rank.ScoredID{ID: id, Score: quantize(n)})
	}
	u.lists = append(u.lists, rank.FromScoredIDs(u.tab, scored, rank.TieLexicographic))
	if m := u.shardMem + u.dayTKD.MemBytes(); m > u.memPeak {
		u.memPeak = m
	}
	u.shardMem = 0
	u.dayTKD.Reset()
}

// SketchMemPeak returns the high-water logical sketch footprint that met at
// a day barrier. Deterministic: a pure function of configuration and seed.
func (u *Umbrella) SketchMemPeak() int { return u.memPeak }

// --- Secrank --------------------------------------------------------------

// secrankShard accumulates one logical shard's per-IP domain profiles as
// bounded space-saving summaries. Keys are registrable-domain IDs, which
// are run-stable: site domains are interned deterministically at world
// generation and infra apexes at provider construction.
type secrankShard struct {
	s        *Secrank
	profiles map[uint32]*sketch.SpaceSaving
	pool     []*sketch.SpaceSaving
}

// SetSketch switches the provider to sketch-backed aggregation.
func (s *Secrank) SetSketch() {
	s.sketched = true
	s.dayProfiles = make(map[uint32]*sketch.SpaceSaving)
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
		return
	}
	var id names.ID
	if q.Site >= 0 {
		id = ss.s.w.DomainID(q.Site)
	} else {
		id = ss.s.infraApex[q.Infra]
		if id == noVote {
			return
		}
	}
	prof, ok := ss.profiles[q.IP]
	if !ok {
		prof = ss.alloc()
		ss.profiles[q.IP] = prof
	}
	prof.Add(uint64(id), 1)
}

func (ss *secrankShard) alloc() *sketch.SpaceSaving {
	if n := len(ss.pool); n > 0 {
		p := ss.pool[n-1]
		ss.pool = ss.pool[:n-1]
		return p
	}
	return sketch.NewShardProfile()
}

// Reset implements traffic.ShardState, recycling the profile summaries.
// Recycling happens in sorted IP order for the same reason MergeShard
// merges in sorted order: pooled objects carry their capacity history, and
// a deterministic pool order keeps next-day assignments — and therefore the
// footprint gauges — reproducible.
func (ss *secrankShard) Reset() {
	ips := make([]uint32, 0, len(ss.profiles))
	for ip := range ss.profiles {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(a, b int) bool { return ips[a] < ips[b] })
	for _, ip := range ips {
		prof := ss.profiles[ip]
		prof.Reset()
		ss.pool = append(ss.pool, prof)
		delete(ss.profiles, ip)
	}
}

// MergeShard implements traffic.ShardedSink: per-IP profiles merge; an IP
// seen by several shards (shared office egress) combines per the
// space-saving merge rule. IPs merge in sorted order so pooled profile
// objects — whose retained capacities differ by growth history — are
// recycled to the same IPs on every run, keeping the footprint gauges a
// pure function of seed and configuration.
func (s *Secrank) MergeShard(st traffic.ShardState) {
	ss := st.(*secrankShard)
	ips := make([]uint32, 0, len(ss.profiles))
	for ip := range ss.profiles {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(a, b int) bool { return ips[a] < ips[b] })
	for _, ip := range ips {
		prof := ss.profiles[ip]
		s.shardMem += prof.MemBytes()
		day, ok := s.dayProfiles[ip]
		if !ok {
			day = s.allocProfile()
			s.dayProfiles[ip] = day
		}
		day.Merge(prof, nil)
	}
}

func (s *Secrank) allocProfile() *sketch.SpaceSaving {
	if n := len(s.profilePool); n > 0 {
		p := s.profilePool[n-1]
		s.profilePool = s.profilePool[:n-1]
		return p
	}
	return sketch.NewShardProfile()
}

// endDaySketch runs the voting round over the bounded profiles. IPs vote in
// sorted order so the floating-point vote sums are a pure function of the
// profiles, not of map iteration. Profile truncation caps an IP's observed
// diversity at the profile capacity — by design: one more way the reconstruction is an
// approximation of an approximation.
func (s *Secrank) endDaySketch(day int) {
	ips := make([]uint32, 0, len(s.dayProfiles))
	for ip := range s.dayProfiles {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(a, b int) bool { return ips[a] < ips[b] })

	votes := make(map[names.ID]float64)
	var entries []sketch.Entry
	var mem int
	for _, ip := range ips {
		prof := s.dayProfiles[ip]
		mem += prof.MemBytes()
		total := prof.N()
		if total == 0 {
			continue
		}
		weight := math.Log2(1+float64(prof.Len())) * math.Log2(2+float64(total))
		entries = prof.Entries(entries[:0])
		for _, e := range entries {
			votes[names.ID(e.Key)] += weight * float64(e.Count) / float64(total)
		}
		prof.Reset()
		s.profilePool = append(s.profilePool, prof)
	}
	clear(s.dayProfiles)
	if m := s.shardMem + mem; m > s.memPeak {
		s.memPeak = m
	}
	s.shardMem = 0
	s.publishDay(votes)
}

// SketchMemPeak returns the high-water logical sketch footprint that met at
// a day barrier. Deterministic: a pure function of configuration and seed.
func (s *Secrank) SketchMemPeak() int { return s.memPeak }

// --- Alexa ----------------------------------------------------------------

// alexaShard accumulates one logical shard's panel observations. The
// distinct-visitor sets stay exact even in sketch mode: the panel is a few
// percent of the population, so the sets are bounded by panel volume and an
// exact merge keeps Alexa's sketch-mode output identical to the exact path.
type alexaShard struct {
	a         *Alexa
	pageviews map[int32]float64
	visitors  map[int32]sketch.Distinct
	pool      []sketch.Distinct
}

// NewShardState implements traffic.ShardedSink.
func (a *Alexa) NewShardState() traffic.ShardState {
	return &alexaShard{
		a:         a,
		pageviews: make(map[int32]float64),
		visitors:  make(map[int32]sketch.Distinct),
	}
}

// OnPageLoad implements traffic.ShardState, mirroring the exact path's
// panel filter and sensitivity thinning (both are deterministic in the
// event, not in any shared state).
func (as *alexaShard) OnPageLoad(pl *traffic.PageLoad) {
	if !as.a.observes(pl) {
		return
	}
	as.pageviews[pl.Site]++
	d, ok := as.visitors[pl.Site]
	if !ok {
		if n := len(as.pool); n > 0 {
			d = as.pool[n-1]
			as.pool = as.pool[:n-1]
			d.Reset()
		} else {
			d = sketch.NewExact()
		}
		as.visitors[pl.Site] = d
	}
	d.Add(uint64(pl.Client.ID))
}

// OnDNSQuery implements traffic.ShardState; the panel sees page loads only.
func (as *alexaShard) OnDNSQuery(*traffic.DNSQuery) {}

// Reset implements traffic.ShardState.
func (as *alexaShard) Reset() {
	clear(as.pageviews)
	for site, d := range as.visitors {
		as.pool = append(as.pool, d)
		delete(as.visitors, site)
	}
}

// MergeShard implements traffic.ShardedSink: additive pageview counts and
// exact set unions into the current day's accumulators, which EndDay then
// freezes exactly as on the event-stream path.
func (a *Alexa) MergeShard(st traffic.ShardState) {
	as := st.(*alexaShard)
	for site, v := range as.pageviews {
		a.pageviews[site] += v
	}
	for site, d := range as.visitors {
		day, ok := a.visitors[site]
		if !ok {
			day = sketch.NewExact()
			a.visitors[site] = day
		}
		day.Merge(d)
	}
}
