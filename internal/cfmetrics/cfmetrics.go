// Package cfmetrics implements the server-side popularity metrics of
// Section 3: the Cloudflare log pipeline. It observes the HTTP footprint of
// Cloudflare-served sites only, applies the paper's seven filters and three
// aggregations (21 combinations, Figure 8), and produces daily ranked lists
// per metric. The seven canonical metrics of Figure 1 are the named subset
// used for the top-list evaluation.
package cfmetrics

import (
	"fmt"
	"slices"
	"sort"

	"toplists/internal/names"
	"toplists/internal/rank"
	"toplists/internal/simrand"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// Filter is one of the seven request filters of Section 3.1.
type Filter uint8

// The filters.
const (
	FilterAll         Filter = iota // all HTTP(S) requests
	FilterHTML                      // limited to text/html responses
	Filter200                       // limited to 200 responses
	FilterReferer                   // limited to non-null Referer
	FilterTopBrowsers               // limited to the top 5 browsers
	FilterTLS                       // TLS handshakes
	FilterRoot                      // root page loads (GET /)
	NumFilters        = 7
)

// String implements fmt.Stringer.
func (f Filter) String() string {
	return [...]string{
		"all-requests", "html-requests", "200-requests", "referer-requests",
		"top-browser-requests", "tls-handshakes", "root-loads",
	}[f]
}

// Agg is one of the three aggregations of Section 3.1.
type Agg uint8

// The aggregations.
const (
	AggCount      Agg = iota // raw request count
	AggUniqueIP              // unique client IPs per day
	AggUniqueIPUA            // unique (client IP, user agent) tuples per day
	NumAggs       = 3
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	return [...]string{"count", "unique-ip", "unique-ip-ua"}[a]
}

// Combo is a (filter, aggregation) pair — one of the 21 candidate popularity
// definitions.
type Combo struct {
	Filter Filter
	Agg    Agg
}

// String implements fmt.Stringer.
func (c Combo) String() string { return fmt.Sprintf("%s/%s", c.Filter, c.Agg) }

// AllCombos returns all 21 filter-aggregation combinations, in filter-major
// order (the layout of Figure 8).
func AllCombos() []Combo {
	out := make([]Combo, 0, NumFilters*NumAggs)
	for f := Filter(0); f < NumFilters; f++ {
		for a := Agg(0); a < NumAggs; a++ {
			out = append(out, Combo{f, a})
		}
	}
	return out
}

// Metric names one of the seven canonical Cloudflare metrics selected in
// Section 3.3 (Figure 1).
type Metric uint8

// The canonical metrics, in the order of Figure 1.
const (
	MAllRequests        Metric = iota // (1) all HTTP(S) requests
	MTLSHandshakes                    // (2) TLS handshakes
	MRootRequests                     // (3) HTTP requests for root page
	MTopBrowserRequests               // (4) requests from top 5 browsers
	MUniqueIP                         // (5) unique client IPs
	MUniqueIPRoot                     // (6) unique IPs accessing root page
	MUniqueIPBrowsers                 // (7) unique IPs from top 5 browsers
	NumMetrics          = 7
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	return [...]string{
		"All HTTP Requests", "TLS Handshakes", "Root Page Requests",
		"Top-Browser Requests", "Unique IPs", "Unique IPs (Root)",
		"Unique IPs (Browsers)",
	}[m]
}

// Key is the metric's stable API slug, used by the resident server's
// per-(vantage, backend) ranking routes.
func (m Metric) Key() string {
	return [...]string{
		"all-requests", "tls-handshakes", "root-requests",
		"top-browser-requests", "unique-ips", "unique-ips-root",
		"unique-ips-browsers",
	}[m]
}

// MetricByKey resolves a metric API slug (as produced by Key).
func MetricByKey(key string) (Metric, bool) {
	for _, m := range AllMetrics() {
		if m.Key() == key {
			return m, true
		}
	}
	return 0, false
}

// Combo returns the metric's filter-aggregation pair.
func (m Metric) Combo() Combo {
	switch m {
	case MAllRequests:
		return Combo{FilterAll, AggCount}
	case MTLSHandshakes:
		return Combo{FilterTLS, AggCount}
	case MRootRequests:
		return Combo{FilterRoot, AggCount}
	case MTopBrowserRequests:
		return Combo{FilterTopBrowsers, AggCount}
	case MUniqueIP:
		return Combo{FilterAll, AggUniqueIP}
	case MUniqueIPRoot:
		return Combo{FilterRoot, AggUniqueIP}
	default:
		return Combo{FilterTopBrowsers, AggUniqueIP}
	}
}

// AllMetrics returns the seven canonical metrics in order.
func AllMetrics() []Metric {
	out := make([]Metric, NumMetrics)
	for i := range out {
		out[i] = Metric(i)
	}
	return out
}

// MetricCombos returns the combos of the seven canonical metrics.
func MetricCombos() []Combo {
	out := make([]Combo, NumMetrics)
	for i, m := range AllMetrics() {
		out[i] = m.Combo()
	}
	return out
}

// filterContribution returns how many of a page load's requests pass the
// filter.
func filterContribution(f Filter, pl *traffic.PageLoad) int {
	switch f {
	case FilterAll:
		return pl.Requests()
	case FilterHTML:
		return pl.HTMLRequests
	case Filter200:
		return pl.Requests() - pl.Non200
	case FilterReferer:
		return pl.RefererRequests
	case FilterTopBrowsers:
		if pl.Client.Browser.TopFive() {
			return pl.Requests()
		}
		return 0
	case FilterTLS:
		return pl.TLSConns
	default: // FilterRoot
		if pl.Root {
			return 1
		}
		return 0
	}
}

// botContribution returns how many of a bot batch's requests pass the
// filter. Bots are never top-5 browsers.
func botContribution(f Filter, bb *traffic.BotBatch) int {
	switch f {
	case FilterAll:
		return bb.Requests
	case FilterHTML:
		return bb.HTMLRequests
	case Filter200:
		return bb.Requests - bb.Non200
	case FilterReferer:
		return bb.RefererRequests
	case FilterTopBrowsers:
		return 0
	case FilterTLS:
		return bb.TLSConns
	default: // FilterRoot
		return bb.RootRequests
	}
}

// Pipeline is one edge-log processor: the request stream of one CDN
// backend as observed from one measurement vantage. It implements
// traffic.ShardedSink and accumulates, for each tracked combo, a ranked
// site list per day. The default pipeline — the transparent global vantage watching
// the Cloudflare-style backend — is the paper's Cloudflare log pipeline,
// byte-identical to the pre-multi-vantage implementation.
type Pipeline struct {
	traffic.BaseSink

	w      *world.World
	combos []Combo

	// Edge identity: the backend whose logs these are and the vantage they
	// are observed from. A transparent vantage (full reach everywhere)
	// short-circuits the visibility test, so the default configuration
	// never consults the reach hash.
	vantage     world.Vantage
	backend     world.Backend
	transparent bool
	// reachSeed keys the deterministic per-event visibility decision for
	// non-transparent vantages; derived from (world seed, vantage name).
	reachSeed uint64

	// observes[i] reports whether site i serves traffic through this
	// pipeline's backend (primary or secondary).
	observes []bool

	// Day state (see shard.go): dayState accumulates the barrier's shard
	// merges, botState the day's bot batches. sketched selects bounded
	// summaries over exact per-site state, and a separate bot state merged
	// last at EndDay; in exact mode botState is dayState. shardMem and
	// memPeak are the sketch footprint gauge.
	sketched bool
	dayState *pipelineShard
	botState *pipelineShard
	shardMem int
	memPeak  int
	errBound uint64

	// days[d][comboIdx] is the ranked site-ID list for that day and combo.
	days [][][]int32
}

// NewPipeline builds the primary pipeline — the transparent global vantage
// observing the Cloudflare-style backend, the paper's configuration — for
// the given combos.
func NewPipeline(w *world.World, combos []Combo) *Pipeline {
	return NewEdgePipeline(w, combos, w.Vantages()[0], world.BackendCdnflare)
}

// NewEdgePipeline builds the edge-log pipeline of one (vantage, backend)
// pair: it observes the sites on the backend, filtered by the vantage's
// per-country reach.
func NewEdgePipeline(w *world.World, combos []Combo, v world.Vantage, b world.Backend) *Pipeline {
	p := &Pipeline{
		w:           w,
		combos:      combos,
		vantage:     v,
		backend:     b,
		transparent: v.Transparent(),
		reachSeed:   simrand.New(w.Cfg.Seed).Derive("vantage-reach").Derive(v.Name).Uint64(),
		observes:    make([]bool, w.NumSites()),
	}
	for i := 0; i < w.NumSites(); i++ {
		p.observes[i] = w.Site(int32(i)).OnBackend(b)
	}
	p.dayState = p.newPipelineShard()
	p.botState = p.dayState
	return p
}

// Vantage returns the vantage the pipeline observes from.
func (p *Pipeline) Vantage() world.Vantage { return p.vantage }

// Backend returns the backend whose logs the pipeline processes.
func (p *Pipeline) Backend() world.Backend { return p.backend }

// seesPage decides whether this pipeline's vantage observes a page load.
// The decision is a pure function of the event's content (never of worker
// scheduling): a deterministic hash of (reach seed, client, site, time)
// thresholded against the vantage's reach into the client's country. The
// transparent vantage sees everything.
func (p *Pipeline) seesPage(pl *traffic.PageLoad) bool {
	if p.transparent {
		return true
	}
	r := p.vantage.Reach[pl.Client.Country]
	if r >= 1 {
		return true
	}
	if r <= 0 {
		return false
	}
	h := reachMix(p.reachSeed,
		uint64(uint32(pl.Client.ID))<<32|uint64(uint32(pl.Site)),
		uint64(uint32(pl.Day))<<32|uint64(uint32(pl.Second))<<8|uint64(pl.SubIdx))
	return float64(h>>11)/(1<<53) < r
}

// seesBot decides whether the vantage observes a bot batch. Bots carry no
// client country, so the batch is gated on the site's home country reach,
// keyed by (site, day).
func (p *Pipeline) seesBot(bb *traffic.BotBatch) bool {
	if p.transparent {
		return true
	}
	r := p.vantage.Reach[p.w.Site(bb.Site).Home]
	if r >= 1 {
		return true
	}
	if r <= 0 {
		return false
	}
	h := reachMix(p.reachSeed, uint64(uint32(bb.Site)), uint64(uint32(bb.Day)))
	return float64(h>>11)/(1<<53) < r
}

// reachMix is a 64-bit mix of the visibility key (splitmix64 finalizer
// over the xor-combined words).
func reachMix(seed, a, b uint64) uint64 {
	x := seed ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// botUA is the user-agent hash bucket for non-browser clients.
const botUA = 0xb07b07b07b07b07

func ipua(ip uint32, ua uint64) uint64 {
	x := uint64(ip) ^ ua*0x9e3779b97f4a7c15
	x ^= x >> 29
	return x
}

// rankScored orders the day's scored sites — score descending, with the
// deterministic information-free tiebreak — and returns the site IDs.
func rankScored(scored []scoredSite) []int32 {
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].score != scored[b].score {
			return scored[a].score > scored[b].score
		}
		return mix32(scored[a].site) < mix32(scored[b].site)
	})
	ids := make([]int32, len(scored))
	for j, s := range scored {
		ids[j] = s.site
	}
	return ids
}

type scoredSite struct {
	site  int32
	score float64
}

func mix32(v int32) uint32 {
	x := uint32(v) * 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// NumDays returns how many days have been frozen.
func (p *Pipeline) NumDays() int { return len(p.days) }

// Tracks reports whether the pipeline was configured with the combo.
func (p *Pipeline) Tracks(c Combo) bool {
	for _, have := range p.combos {
		if have == c {
			return true
		}
	}
	return false
}

// comboIndex returns the tracked index of a combo.
func (p *Pipeline) comboIndex(c Combo) int {
	for i, have := range p.combos {
		if have == c {
			return i
		}
	}
	panic(fmt.Sprintf("cfmetrics: combo %v not tracked", c))
}

// DayList returns the ranked site IDs for a day and combo.
func (p *Pipeline) DayList(day int, c Combo) []int32 {
	return p.days[day][p.comboIndex(c)]
}

// DayRanking returns the day's ranked list for a combo as a domain Ranking.
func (p *Pipeline) DayRanking(day int, c Combo) *rank.Ranking {
	return p.Archive().Ranking(day, c)
}

// Archive is a pipeline's frozen days as of one moment. EndDay only
// appends to the pipeline's day list and never rewrites a frozen day, so
// an Archive stays valid, unchanged and lock-free while later days freeze.
type Archive struct {
	p    *Pipeline
	days [][][]int32
}

// Archive returns the days frozen so far, clipped to their count. Call it
// where EndDay cannot run concurrently; the result may then be read from
// any goroutine.
func (p *Pipeline) Archive() Archive { return Archive{p, slices.Clip(p.days)} }

// Ranking returns the day's ranked list for a combo as a domain Ranking.
// The pipeline already ranks dense site IDs, which are interner IDs for the
// sites' domains by the world's construction, so no strings are touched.
func (a Archive) Ranking(day int, c Combo) *rank.Ranking {
	w := a.p.w
	sites := a.days[day][a.p.comboIndex(c)]
	ids := make([]names.ID, len(sites))
	for i, s := range sites {
		ids[i] = w.DomainID(s)
	}
	return rank.MustFromIDs(w.Interner(), ids)
}

// MetricRanking returns the day's ranking for a canonical metric.
func (p *Pipeline) MetricRanking(day int, m Metric) *rank.Ranking {
	return p.DayRanking(day, m.Combo())
}
