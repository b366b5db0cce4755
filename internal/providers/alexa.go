package providers

import (
	"math"
	"slices"

	"toplists/internal/psl"
	"toplists/internal/rank"
	"toplists/internal/sketch"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// Alexa reconstructs the Alexa Top Million: popularity inferred from a
// panel of users running partnered browser extensions. Per Alexa's public
// description, the daily rank combines "the average daily visitors and
// pageviews ... over the past 3 months" [3, 6]; the window here is the
// trailing part of the simulated month.
//
// The panel's documented blind spots are inherited from the event stream:
// the extension exists only on desktop, is absent from enterprise machines,
// and sees nothing in private browsing mode — which is how adult and
// gambling sites vanish from the list (Section 6.4, citing [15]).
//
// Alexa implements traffic.ShardedSink; its shard states are exact in both
// modes: the panel is a few percent of the population, so the visitor sets
// are bounded by panel volume and Alexa's sketch-mode output is identical
// to exact mode's.
type Alexa struct {
	traffic.BaseSink
	w *world.World

	// Per-day per-site accumulators for the current day, merged from the
	// shard states.
	pageviews map[int32]float64
	visitors  map[int32]sketch.Distinct

	// days holds the frozen per-day aggregates.
	days []alexaDay

	lists []*rank.Ranking
}

type alexaDay struct {
	pageviews map[int32]float64
	visitors  map[int32]float64
}

// NewAlexa returns an Alexa provider observing panel traffic.
func NewAlexa(w *world.World) *Alexa {
	return &Alexa{w: w, pageviews: make(map[int32]float64), visitors: make(map[int32]sketch.Distinct)}
}

// Name implements List.
func (a *Alexa) Name() string { return "Alexa" }

// Bucketed implements List.
func (a *Alexa) Bucketed() bool { return false }

// panelVisibility is the fraction of a panelist's non-private loads of a
// sensitive category that the extension actually reports. Beyond private
// mode, panel members systematically hide sensitive browsing from an
// extension they know is watching (the behaviour documented in [15] and the
// reason the paper gives for Alexa's 0.27x adult inclusion odds).
var panelVisibility = func() [world.NumCategories]float64 {
	var v [world.NumCategories]float64
	for i := range v {
		v[i] = 1
	}
	v[world.Adult] = 0.12
	v[world.Gambling] = 0.18
	v[world.Abuse] = 0.5
	return v
}()

// observes reports whether the panel extension records this load: panel
// membership, private mode, and sensitivity thinning. All three are pure
// functions of the event, never of shared state, so worker goroutines may
// call it.
func (a *Alexa) observes(pl *traffic.PageLoad) bool {
	if !pl.Client.OnPanel(pl.Day) || pl.Private {
		return false
	}
	// The sensitivity thinning below is the extension-side face of the
	// private-browsing mechanism; the NoPrivateBrowsing ablation disables
	// both together.
	if vis := panelVisibility[a.w.Site(pl.Site).Category]; vis < 1 && !a.w.Cfg.Ablate.NoPrivateBrowsing {
		// Deterministic thinning keyed by the load's identity.
		h := uint64(pl.Client.ID)<<40 ^ uint64(pl.Site)<<16 ^
			uint64(pl.Day)<<8 ^ uint64(pl.Second)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		if float64(h>>11)/(1<<53) >= vis {
			return false
		}
	}
	return true
}

// alexaShard accumulates one logical shard's panel observations.
type alexaShard struct {
	a         *Alexa
	pageviews map[int32]float64
	visitors  map[int32]sketch.Distinct
}

// NewShardState implements traffic.ShardedSink.
func (a *Alexa) NewShardState() traffic.ShardState {
	return &alexaShard{
		a:         a,
		pageviews: make(map[int32]float64),
		visitors:  make(map[int32]sketch.Distinct),
	}
}

// OnPageLoad implements traffic.ShardState.
func (as *alexaShard) OnPageLoad(pl *traffic.PageLoad) {
	if !as.a.observes(pl) {
		return
	}
	as.pageviews[pl.Site]++
	d, ok := as.visitors[pl.Site]
	if !ok {
		d = sketch.NewExact()
		as.visitors[pl.Site] = d
	}
	d.Add(uint64(pl.Client.ID))
}

// OnDNSQuery implements traffic.ShardState; the panel sees page loads only.
func (as *alexaShard) OnDNSQuery(*traffic.DNSQuery) {}

// Reset implements traffic.ShardState. The visitor sets may have been
// adopted by the day, so they are dropped, not reused.
func (as *alexaShard) Reset() {
	clear(as.pageviews)
	clear(as.visitors)
}

// MergeShard implements traffic.ShardedSink: additive integer pageview
// counts and exact set unions into the current day's accumulators. An
// empty day adopts the shard's maps by swap, and a site new to the day
// the shard's set.
func (a *Alexa) MergeShard(st traffic.ShardState) {
	as := st.(*alexaShard)
	if len(a.pageviews) == 0 && len(a.visitors) == 0 {
		a.pageviews, as.pageviews = as.pageviews, a.pageviews
		a.visitors, as.visitors = as.visitors, a.visitors
		return
	}
	for site, v := range as.pageviews {
		a.pageviews[site] += v
	}
	for site, d := range as.visitors {
		if day, ok := a.visitors[site]; ok {
			day.Merge(d)
		} else {
			a.visitors[site] = d
		}
	}
}

// EndDay implements traffic.Sink: freeze the day and publish the ranking.
func (a *Alexa) EndDay(day int) {
	frozen := alexaDay{pageviews: a.pageviews, visitors: make(map[int32]float64, len(a.visitors))}
	for site, d := range a.visitors {
		frozen.visitors[site] = d.Count()
	}
	// The frozen day keeps the pageview map.
	a.pageviews = make(map[int32]float64)
	clear(a.visitors)
	a.days = append(a.days, frozen)
	a.lists = append(a.lists, a.computeList())
}

// computeList ranks sites by the geometric mean of average daily visitors
// and average daily pageviews over the trailing window.
func (a *Alexa) computeList() *rank.Ranking {
	window := len(a.days)
	if window > 90 {
		window = 90
	}
	pv := make(map[int32]float64)
	vis := make(map[int32]float64)
	for _, d := range a.days[len(a.days)-window:] {
		for s, v := range d.pageviews {
			pv[s] += v
		}
		for s, v := range d.visitors {
			vis[s] += v
		}
	}
	scored := make([]rank.ScoredID, 0, len(pv))
	for s, p := range pv {
		score := math.Sqrt((p / float64(window)) * (vis[s] / float64(window)))
		scored = append(scored, rank.ScoredID{ID: a.w.DomainID(s), Score: score})
	}
	return rank.FromScoredIDs(a.w.Interner(), scored, rank.TieHashed)
}

// NumDays returns how many days have been published.
func (a *Alexa) NumDays() int { return len(a.lists) }

// Archive returns the published days' rankings, clipped to their count.
// EndDay only appends, so the slice stays valid with no lock.
func (a *Alexa) Archive() []*rank.Ranking { return slices.Clip(a.lists) }

// Raw implements List.
func (a *Alexa) Raw(day int) *rank.Ranking { return a.lists[day] }

// Normalized implements List.
func (a *Alexa) Normalized(day int, l *psl.List) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalized(a.Raw(day), l)
}

// NormalizedIn implements the memoized normalization fast path.
func (a *Alexa) NormalizedIn(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalizedIn(a.Raw(day), nz)
}
