// Package traffic simulates the browsing population: who visits which sites,
// from which network vantage, on which platform and browser, day by day over
// the measurement month (February 2022 in the paper).
//
// The engine is the single source of events. Every observer in the study —
// the Cloudflare log pipeline, the Chrome telemetry collector, the Alexa
// extension panel, and the DNS resolvers behind Umbrella and Secrank — is a
// Sink that sees only the slice of events its real-world counterpart could
// see. All list biases emerge from those restricted vantages.
package traffic

import "toplists/internal/world"

// Browser identifies the client's web browser. The first five values are
// the "top 5 most popular browsers" of the paper's filter (1.4); Other
// stands for the long tail of niche browsers.
type Browser uint8

// The simulated browsers.
const (
	Chrome Browser = iota
	Safari
	Firefox
	Edge
	Samsung
	Other
)

// TopFive reports whether the browser is one of the five most popular.
func (b Browser) TopFive() bool { return b < Other }

// String implements fmt.Stringer.
func (b Browser) String() string {
	return [...]string{"Chrome", "Safari", "Firefox", "Edge", "Samsung", "Other"}[b]
}

// PageLoad is one user-initiated page load and its server-side footprint.
type PageLoad struct {
	Day     int
	Weekend bool
	// Second is the time of day, used for DNS cache expiry.
	Second int32

	Site   int32
	SubIdx uint8 // index into the site's Subdomains

	Client *Client
	// IP is the client's egress IP for this page load (enterprise clients
	// egress via their office on workdays and from home otherwise).
	IP uint32
	// AtWork reports whether the load went through the corporate network
	// (and therefore through the Umbrella resolver).
	AtWork bool

	// Private marks a private-browsing-mode load: invisible to
	// extension-based panels and to Chrome history-based telemetry.
	Private bool

	// Root marks a load of the root page (GET /).
	Root bool
	// Subresources is the number of additional HTTP requests the page
	// issued (images, scripts, frames).
	Subresources int
	// HTMLRequests is how many requests carried a text/html response
	// (the main document plus frames).
	HTMLRequests int
	// RefererRequests is how many requests carried a non-empty Referer.
	RefererRequests int
	// Non200 is how many requests returned a non-200 status.
	Non200 int
	// TLSConns is the number of TLS handshakes (0 for plain-HTTP sites).
	TLSConns int

	// Completed reports whether the page reached First Contentful Paint,
	// the event CrUX counts.
	Completed bool
	// DwellSec is the time spent on the page afterwards.
	DwellSec float64
}

// Requests returns the total number of HTTP requests for the load.
func (pl *PageLoad) Requests() int { return 1 + pl.Subresources }

// BotBatch summarizes one day of non-browser (crawler, spam-tool, API)
// traffic against one site. Server-side vantage points see it; client-side
// vantage points do not.
type BotBatch struct {
	Day  int
	Site int32

	Requests     int
	RootRequests int
	HTMLRequests int
	// RefererRequests counts bot requests carrying a Referer (few do).
	RefererRequests int
	Non200          int
	TLSConns        int
	// IPs are the distinct bot source addresses used.
	IPs []uint32
}

// DNSQuery is one query arriving at a recursive resolver (i.e. after the
// client-side cache). Exactly one of Site/Infra is >= 0.
type DNSQuery struct {
	Day    int
	Client *Client
	IP     uint32
	// AtWork selects the resolver: corporate queries go through Umbrella.
	AtWork bool

	Site   int32 // site ID, or -1
	SubIdx uint8 // hostname index when Site >= 0
	Infra  int32 // infrastructure-name index, or -1
}

// Sink receives the slice of simulation events an observer can see. The
// engine calls BeginDay/EndDay around each simulated day; events arrive in
// deterministic order — the same at every worker count — and from one
// goroutine at a time.
type Sink interface {
	BeginDay(day int, weekend bool)
	OnPageLoad(pl *PageLoad)
	OnBotBatch(bb *BotBatch)
	OnDNSQuery(q *DNSQuery)
	EndDay(day int)
}

// ShardState is the per-shard accumulation state of a ShardedSink: the
// summaries (exact sets and counts, or bounded sketches in sketch mode)
// that one logical traffic shard's events fold into. The engine owns the
// lifecycle — states are created once per (sink, logical shard), updated
// from exactly one worker goroutine at a time, merged at the day barrier,
// and Reset for reuse the next day. Implementations must not touch shared
// sink state from OnPageLoad/OnDNSQuery.
type ShardState interface {
	OnPageLoad(pl *PageLoad)
	OnDNSQuery(q *DNSQuery)
	// Reset returns the state to empty for the next day, keeping capacity.
	Reset()
}

// ShardedSink is a Sink that aggregates page loads and DNS queries through
// per-shard states instead of the event stream, in both exact and sketch
// mode (see Config.Sketch). The engine feeds each logical shard's page
// loads and DNS queries into a ShardState and, at the day barrier, hands
// the states back via MergeShard in ascending logical-shard order — the
// serial event order, so sink contents are byte-identical at every worker
// count. In exact mode the shard count is the worker count, so an exact
// merge must give the same result for any split of the clients into
// contiguous shards. Bot batches and Begin/EndDay still arrive through the
// plain Sink interface, on the engine goroutine; the page-load and DNS
// methods of that interface are never called.
type ShardedSink interface {
	Sink
	// NewShardState returns a fresh, empty per-shard accumulator.
	NewShardState() ShardState
	// MergeShard folds a shard's summary into the sink's day state. Called
	// serially, in ascending logical-shard order, between the day's barrier
	// and EndDay. The state remains owned by the engine (it is Reset and
	// reused): implementations must merge its contents, or swap them for
	// empty ones of their own, but not retain the state itself.
	MergeShard(st ShardState)
}

// BaseSink is a no-op Sink for embedding; observers override only the
// events their vantage point can see.
type BaseSink struct{}

// BeginDay implements Sink.
func (BaseSink) BeginDay(int, bool) {}

// OnPageLoad implements Sink.
func (BaseSink) OnPageLoad(*PageLoad) {}

// OnBotBatch implements Sink.
func (BaseSink) OnBotBatch(*BotBatch) {}

// OnDNSQuery implements Sink.
func (BaseSink) OnDNSQuery(*DNSQuery) {}

// EndDay implements Sink.
func (BaseSink) EndDay(int) {}

// Client is one simulated browsing user/device.
type Client struct {
	ID       int32
	Country  world.Country
	Platform world.Platform
	Browser  Browser
	// UA is a stable hash of (browser, platform, version) standing in for
	// the User-Agent string.
	UA uint64

	// HomeIP is the client's residential egress address.
	HomeIP uint32
	// OfficeIP is the shared corporate egress for enterprise clients.
	OfficeIP uint32
	// Enterprise marks clients behind a corporate network on workdays.
	Enterprise bool
	// HomeOpenDNS marks non-enterprise clients whose home network resolves
	// through the Umbrella/OpenDNS service every day.
	HomeOpenDNS bool
	// FamilyFilter marks HomeOpenDNS households using the service's
	// content filtering; their queries to filtered categories resolve to
	// block pages and never feed the popularity ranking.
	FamilyFilter bool

	// ChromeSync marks Chrome users with history sync and usage statistics
	// enabled: the population CrUX aggregates.
	ChromeSync bool
	// PanelJoinDay is the day the client's Alexa browser extension became
	// active, or -1 for clients who never join the panel.
	PanelJoinDay int16

	// DailyRate is the mean number of page loads per weekday.
	DailyRate float32
	// WeekendFactor multiplies DailyRate on weekends.
	WeekendFactor float32

	// FixedSite, when >= 0, makes the client a Sybil: every page load goes
	// to this one site. Sybils model the panel-infiltration attacks of
	// Rweyemamu et al. [26] that motivated Tranco's hardening [18].
	FixedSite int32
}

// OnPanel reports whether the client's Alexa extension is active on day d.
func (c *Client) OnPanel(d int) bool {
	return c.PanelJoinDay >= 0 && int(c.PanelJoinDay) <= d
}
