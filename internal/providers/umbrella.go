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
//
// Umbrella implements traffic.ShardedSink. Shard states never touch the
// shared name interner — worker goroutines key names by nameHash, a pure
// function of the name string — and EndDay, on the engine goroutine,
// interns the day's names in a canonical order, so output is
// byte-identical at every worker count.
type Umbrella struct {
	traffic.BaseSink
	w   *world.World
	psl *psl.List
	tab *names.Table

	// nameOf resolves every name hash a shard has credited back to its
	// name.
	nameOf map[uint64]string

	// Day state, merged from the shard states. Exact mode keeps the set
	// of client IPs per name (plain map sets: enterprise office IPs are
	// few and heavily shared); sketch mode a bounded candidate summary
	// with a per-candidate HLL of client IPs. shardMem and memPeak are the
	// sketch footprint gauge.
	sketched bool
	dayIPs   map[uint64]map[uint32]struct{}
	dayTKD   *sketch.TopKDistinct
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
		w:      w,
		psl:    l,
		tab:    w.Interner(),
		nameOf: make(map[uint64]string),
		dayIPs: make(map[uint64]map[uint32]struct{}),
	}
}

// Name implements List.
func (u *Umbrella) Name() string { return "Umbrella" }

// Bucketed implements List.
func (u *Umbrella) Bucketed() bool { return false }

// SetSketch switches the provider to sketch-backed aggregation. Must be
// called before the simulation starts.
func (u *Umbrella) SetSketch() {
	u.sketched = true
	u.dayTKD = sketch.NewShardTopKDistinct()
}

// nameHash returns a run-stable 64-bit key for a DNS name: FNV-1a spread
// through the sketch finalizer. Interned IDs are NOT usable as shard keys
// — interning order would depend on scheduling once shards run
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

// namedHash is a name and its nameHash.
type namedHash struct {
	h    uint64
	name string
}

// umbrellaShard accumulates one logical shard's resolver view, keyed by
// name hash: exact per-name IP sets, or in sketch mode a space-saving
// candidate set with a per-candidate HLL of client IPs. The hostname and
// suffix memos are per shard (no shared-map races) and survive Reset —
// they are month-stable facts, not day state.
type umbrellaShard struct {
	u   *Umbrella
	ips map[uint64]map[uint32]struct{} // exact mode
	tkd *sketch.TopKDistinct           // sketch mode

	// hostHash memoizes (site, subdomain)/infra -> name hash; suffixHash
	// memoizes fqdn hash -> credited suffix hash (self when none).
	hostHash   map[hostKey]uint64
	suffixHash map[uint64]uint64
	// fresh lists the names this shard hashed since its last merge, for
	// the sink's nameOf.
	fresh []namedHash
}

// NewShardState implements traffic.ShardedSink.
func (u *Umbrella) NewShardState() traffic.ShardState {
	us := &umbrellaShard{
		u:          u,
		hostHash:   make(map[hostKey]uint64),
		suffixHash: make(map[uint64]uint64),
	}
	if u.sketched {
		us.tkd = sketch.NewShardTopKDistinct()
	} else {
		us.ips = make(map[uint64]map[uint32]struct{})
	}
	return us
}

// OnPageLoad implements traffic.ShardState; the resolver sees queries only.
func (us *umbrellaShard) OnPageLoad(*traffic.PageLoad) {}

// OnDNSQuery implements traffic.ShardState.
func (us *umbrellaShard) OnDNSQuery(q *traffic.DNSQuery) {
	u := us.u
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
		us.fresh = append(us.fresh, namedHash{h, fqdn})
		sh := h
		if suffix, _ := u.psl.PublicSuffix(fqdn); suffix != "" && suffix != fqdn {
			sh = nameHash(suffix)
			us.fresh = append(us.fresh, namedHash{sh, suffix})
		}
		us.suffixHash[h] = sh
	}
	us.credit(h, q.IP)
	// Umbrella counts the names clients actually query: the signal for one
	// website splits across its hostnames rather than aggregating by
	// registrable domain — a big part of why the list ranks websites
	// poorly even when it includes them (Section 5.2). Resolution of the
	// suffix chain (TLD servers) is also observed, which is how bare
	// suffixes like "com" top the list.
	if sh := us.suffixHash[h]; sh != h {
		us.credit(sh, q.IP)
	}
}

func (us *umbrellaShard) credit(h uint64, ip uint32) {
	if us.u.sketched {
		us.tkd.Add(h, uint64(ip))
		return
	}
	s, ok := us.ips[h]
	if !ok {
		s = make(map[uint32]struct{}, 4)
		us.ips[h] = s
	}
	s[ip] = struct{}{}
}

// familyFiltered lists the categories OpenDNS home filtering blocks.
var familyFiltered = func() [world.NumCategories]bool {
	var v [world.NumCategories]bool
	v[world.Adult] = true
	v[world.Gambling] = true
	v[world.Abuse] = true
	return v
}()

// Reset implements traffic.ShardState: day state clears, memos persist.
func (us *umbrellaShard) Reset() {
	us.fresh = us.fresh[:0]
	if us.u.sketched {
		us.tkd.Reset()
		return
	}
	clear(us.ips)
}

// MergeShard implements traffic.ShardedSink: IP sets union (an empty day
// state adopts the shard's sets by swap), sketch summaries merge.
func (u *Umbrella) MergeShard(st traffic.ShardState) {
	us := st.(*umbrellaShard)
	for _, n := range us.fresh {
		if _, ok := u.nameOf[n.h]; !ok {
			u.nameOf[n.h] = n.name
		}
	}
	if u.sketched {
		u.shardMem += us.tkd.MemBytes()
		u.dayTKD.Merge(us.tkd)
		return
	}
	if len(u.dayIPs) == 0 {
		u.dayIPs, us.ips = us.ips, u.dayIPs
		return
	}
	// The shard's Reset drops its references without touching the sets,
	// so names new to the day adopt the shard's set.
	for h, set := range us.ips {
		day, ok := u.dayIPs[h]
		if !ok {
			u.dayIPs[h] = set
			continue
		}
		for ip := range set {
			day[ip] = struct{}{}
		}
	}
}

// EndDay implements traffic.Sink: publish the day's list, names scored by
// their quantized unique-IP count — exact, or the candidate's HLL estimate
// in sketch mode. Names are interned here, serially, in canonical order:
// ascending hash in exact mode, candidate order in sketch mode.
func (u *Umbrella) EndDay(day int) {
	var scored []rank.ScoredID
	score := func(h uint64, n int) {
		id := u.tab.Intern(u.nameOf[h])
		scored = append(scored, rank.ScoredID{ID: id, Score: quantize(n)})
	}
	if u.sketched {
		entries := u.dayTKD.Entries(nil)
		scored = make([]rank.ScoredID, 0, len(entries))
		for _, e := range entries {
			score(e.Key, max(int(math.Round(u.dayTKD.DistinctAt(e.Slot))), 1))
		}
		if m := u.shardMem + u.dayTKD.MemBytes(); m > u.memPeak {
			u.memPeak = m
		}
		u.shardMem = 0
		u.dayTKD.Reset()
	} else {
		keys := make([]uint64, 0, len(u.dayIPs))
		for h := range u.dayIPs {
			keys = append(keys, h)
		}
		slices.Sort(keys)
		scored = make([]rank.ScoredID, 0, len(keys))
		for _, h := range keys {
			score(h, len(u.dayIPs[h]))
		}
		clear(u.dayIPs)
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

// SketchMemPeak returns the high-water logical sketch footprint that met at
// a day barrier. Deterministic: a pure function of configuration and seed;
// 0 in exact mode.
func (u *Umbrella) SketchMemPeak() int { return u.memPeak }

// NumDays returns how many days have been published.
func (u *Umbrella) NumDays() int { return len(u.lists) }

// Archive returns the published days' rankings, clipped to their count.
// EndDay only appends, so the slice stays valid with no lock.
func (u *Umbrella) Archive() []*rank.Ranking { return slices.Clip(u.lists) }

// Raw implements List.
func (u *Umbrella) Raw(day int) *rank.Ranking { return u.lists[day] }

// Normalized implements List.
func (u *Umbrella) Normalized(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	return u.Raw(day).NormalizePSLIn(nz)
}
