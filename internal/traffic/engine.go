package traffic

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"toplists/internal/obs"
	"toplists/internal/simrand"
	"toplists/internal/sketch"
	"toplists/internal/world"
)

// Config parameterizes the traffic engine.
type Config struct {
	// Seed drives all engine randomness (independent of the world seed).
	Seed uint64
	// NumClients is the simulated browsing population size. Negative means
	// an explicitly empty population (0 is the default of 2000).
	NumClients int
	// Days is the number of simulated days (default 28: February 2022).
	Days int
	// Workers is the number of goroutines simulating clients within a day.
	// 0 (the default) uses one worker per available CPU. Sharded sinks fold
	// each logical shard into its own state, merged in shard order at the
	// day barrier. With 1 worker the shards run in order on the calling
	// goroutine and events stream straight into the plain sinks; with more,
	// each shard buffers its plain-sink events and the buffers are replayed
	// in shard order at the barrier. Every setting produces identical sink
	// contents (see sharded.go).
	Workers int
	// Sketch selects bounded aggregation: the day's clients are split into
	// sketchShards fixed logical shards (independent of Workers) and sinks
	// implementing ShardedSink accumulate bounded summaries per logical
	// shard. Off (the zero value), the shard count is the worker count and
	// sharded sinks keep exact summaries.
	Sketch sketch.Config
	// Ablate disables selected engine mechanisms for ablation studies.
	Ablate Ablations
	// Sybils adds attacker-controlled clients to the population.
	Sybils []SybilSpec
}

// SybilSpec describes one coordinated set of attacker clients: panel-joined
// machines that browse a single target site all day, every day. They
// generate real traffic (every vantage point sees it), but their leverage
// differs enormously by vantage: a handful of Sybils is a rounding error in
// edge logs and a large fraction of a sparse extension panel.
type SybilSpec struct {
	// Site is the target site ID.
	Site int32
	// Clients is the number of attacker machines.
	Clients int
	// LoadsPerDay is each machine's daily page-load volume.
	LoadsPerDay float64
	// JoinDay is when the machines join the Alexa panel.
	JoinDay int
}

// Ablations switches individual engine mechanisms off so their effect on
// the study's findings can be measured in isolation.
type Ablations struct {
	// NoPanelDistortion makes Alexa-panel clients browse like everyone
	// else (no demographic skew, no Certify boosts).
	NoPanelDistortion bool
	// NoWorkSkew makes at-work browsing identical to home browsing.
	NoWorkSkew bool
	// NoRevisits disables within-day revisit loyalty: every page load is
	// an independent draw, so page loads track unique visitors exactly.
	NoRevisits bool
}

func (c Config) withDefaults() Config {
	if c.NumClients == 0 {
		c.NumClients = 2000
	}
	if c.NumClients < 0 {
		// Explicitly empty population (edge-path tests): only Sybils and
		// bots generate traffic.
		c.NumClients = 0
	}
	if c.Workers < 0 {
		c.Workers = 1
	}
	if c.Days <= 0 {
		c.Days = 28
	}
	return c
}

// The population model of the simulated month. Each is the one value the
// study runs with, so none is a Config field.
const (
	// startWeekday is the weekday of day 0, with 0 = Monday: February 1,
	// 2022 was a Tuesday.
	startWeekday = 1
	// meanDailyPageLoads is the population log-mean of page loads per
	// client per weekday.
	meanDailyPageLoads float64 = 14
	// panelShare is the base probability that an eligible (home, desktop)
	// client runs the Alexa extension, scaled per country.
	panelShare float64 = 0.035
	// panelExpansionDay is the day index on which a second panel cohort
	// activates (February 21), modeling the unexplained late-February
	// accuracy jump the paper observed for Alexa.
	panelExpansionDay = 20
	// panelExpansionFactor is the relative size of the second cohort: the
	// panel grows 2.5x.
	panelExpansionFactor float64 = 1.5
	// chromeSyncShare is the fraction of Chrome users with history sync
	// and usage statistics enabled.
	chromeSyncShare float64 = 0.55
	// infraQueriesPerDay is the mean number of background DNS queries per
	// client device per day to infrastructure names.
	infraQueriesPerDay float64 = 30
	// officeSize is the number of enterprise clients sharing one corporate
	// egress IP. Shared egress saturates Umbrella's unique-IP counts at the
	// head of its list, one of the mechanisms behind its weak rank
	// correlations (Section 5.2).
	officeSize = 25
	// revisitProb is the probability that a page load revisits a site the
	// client already visited today, weighted by site stickiness. Revisits
	// decouple page-load counts from unique-visitor counts, the divergence
	// Figure 1 measures between aggregations.
	revisitProb float64 = 0.45
	// homeOpenDNSShare is the fraction of non-enterprise clients whose home
	// network resolves through the Umbrella/OpenDNS service.
	homeOpenDNSShare float64 = 0.025
)

// panelCountryBoost scales panel membership by country. The Alexa panel
// skews toward markets where the partnered extensions are distributed —
// the mechanism behind Alexa's country profile in Figure 7 (good on the
// US, China, and sub-Saharan Africa; very poor on Japan).
var panelCountryBoost = [world.NumCountries]float64{
	world.US: 1.6, world.GB: 1.0, world.DE: 0.8, world.BR: 0.9,
	world.IN: 0.6, world.ID: 0.6, world.JP: 0.15, world.NG: 3.2,
	world.EG: 1.0, world.ZA: 3.0, world.CN: 1.4,
}

// openDNSCountryBoost scales home-OpenDNS adoption by country: the service
// is US-centric, which (with the US-heavy enterprise base) is the mechanism
// behind Umbrella's US skew in Figure 7.
var openDNSCountryBoost = [world.NumCountries]float64{
	world.US: 2.5, world.GB: 1.2, world.DE: 0.7, world.BR: 0.6,
	world.IN: 0.6, world.ID: 0.5, world.JP: 0.3, world.NG: 0.6,
	world.EG: 0.5, world.ZA: 0.7, world.CN: 0.05,
}

// Engine generates the simulated month of browsing.
type Engine struct {
	W   *world.World
	Cfg Config

	Clients []Client
	sinks   []Sink

	siteAliases [world.NumCountries * world.NumPlatforms]*simrand.Alias
	// panelAliases are the distorted site choices of panel-demographic
	// clients (see world.PanelDistortion); workAliases those of enterprise
	// clients during the workday (world.WorkDistortion).
	panelAliases [world.NumCountries * world.NumPlatforms]*simrand.Alias
	workAliases  [world.NumCountries * world.NumPlatforms]*simrand.Alias
	infraAlias   *simrand.Alias
	root         *simrand.Source
	// revisit is the per-load revisit probability: revisitProb, or -1
	// under Ablate.NoRevisits. The revisit draw is taken either way, so the
	// ablation leaves every other draw of the client-day stream in place.
	revisit float64

	// humanReqs accumulates per-site human request counts for the current
	// day; bot volume is derived from it at day end. Shards accumulate
	// into private copies that are summed at the day's barrier.
	humanReqs []int32

	// shards holds the reusable per-day state of the logical shards;
	// shardedSinks and plainSinks are the one-time split of sinks into
	// those merged from shard states and those fed the event stream (see
	// sharded.go).
	shards       []*logicalShard
	shardedSinks []ShardedSink
	plainSinks   []Sink
	sinksSplit   bool

	// day is the lifecycle cursor: the index of the next day AdvanceDay
	// will simulate. It is the engine's only cross-day state — each day
	// derives its randomness statelessly from the root source — which is
	// what makes a run checkpointable at any day boundary.
	day int
	// failed latches the first day-level error. Sinks are left mid-day
	// when a day fails, so every later AdvanceDay refuses to run rather
	// than feed them a second, inconsistent copy of the day.
	failed error

	// testHook, when set, runs before each client-day simulation; tests
	// use it to inject panics and cancellation races into shards.
	testHook func(client, day int)

	// metrics holds the engine's telemetry; the zero value (no SetObs) is
	// fully inert via nil-safe obs primitives.
	metrics engineMetrics
}

// engineMetrics is the engine's view of the run registry. Event counters
// are deterministic — workers accumulate per-shard totals locally and
// flush once per shard, so the sums are identical at every worker count.
// Durations, the pool width, and shard skew are wall-clock or
// scheduling-dependent and registered Volatile.
type engineMetrics struct {
	pageLoads   *obs.Counter // engine.events.pageload
	dnsQueries  *obs.Counter // engine.events.dnsquery
	botBatches  *obs.Counter // engine.events.botbatch
	botRequests *obs.Counter // engine.events.botrequests
	days        *obs.Counter // engine.days

	workers   *obs.Gauge     // engine.workers (volatile)
	dayTime   *obs.Histogram // engine.day
	shardTime *obs.Histogram // engine.shard
	// skewPctMax is the worst per-day shard imbalance seen so far:
	// 100 * (slowest shard - mean shard) / mean shard. High skew means the
	// logical shards are leaving workers idle.
	skewPctMax *obs.Gauge // engine.shard.skew_pct_max (volatile)
	simPhase   *obs.Phase // phase.simulate

	// tracer, when attached, receives per-day and per-shard timeline spans.
	// Nil (the common case) costs one branch per span site.
	tracer *obs.Tracer
}

// SetObs attaches the engine to a run registry. Call before Run; without
// it the engine is uninstrumented and pays only nil checks.
func (e *Engine) SetObs(reg *obs.Registry) {
	e.metrics = engineMetrics{
		pageLoads:   reg.Counter("engine.events.pageload"),
		dnsQueries:  reg.Counter("engine.events.dnsquery"),
		botBatches:  reg.Counter("engine.events.botbatch"),
		botRequests: reg.Counter("engine.events.botrequests"),
		days:        reg.Counter("engine.days"),
		workers:     reg.Gauge("engine.workers", obs.Volatile),
		dayTime:     reg.Histogram("engine.day"),
		shardTime:   reg.Histogram("engine.shard"),
		skewPctMax:  reg.Gauge("engine.shard.skew_pct_max", obs.Volatile),
		simPhase:    reg.Phase("phase.simulate"),
		tracer:      reg.Tracer(),
	}
}

// NewEngine builds the client population and samplers. Deterministic in
// (world, cfg).
func NewEngine(w *world.World, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		W:         w,
		Cfg:       cfg,
		root:      simrand.New(cfg.Seed).Derive("traffic"),
		humanReqs: make([]int32, w.NumSites()),
		revisit:   revisitProb,
	}
	if cfg.Ablate.NoRevisits {
		e.revisit = -1
	}
	e.buildClients()
	panelDistort := w.PanelDistortion()
	workDistort := w.WorkDistortion()
	for c := 0; c < world.NumCountries; c++ {
		for p := 0; p < world.NumPlatforms; p++ {
			base := w.SiteWeights(world.Country(c), world.Platform(p))
			baseAlias := simrand.NewAlias(base)
			e.siteAliases[c*world.NumPlatforms+p] = baseAlias
			e.panelAliases[c*world.NumPlatforms+p] = baseAlias
			e.workAliases[c*world.NumPlatforms+p] = baseAlias
			if !cfg.Ablate.NoPanelDistortion {
				panel := make([]float64, len(base))
				for i := range base {
					panel[i] = base[i] * panelDistort[i]
				}
				e.panelAliases[c*world.NumPlatforms+p] = simrand.NewAlias(panel)
			}
			if !cfg.Ablate.NoWorkSkew {
				work := make([]float64, len(base))
				for i := range base {
					work[i] = base[i] * workDistort[i]
				}
				e.workAliases[c*world.NumPlatforms+p] = simrand.NewAlias(work)
			}
		}
	}
	infraW := make([]float64, len(w.Infra))
	for i, inf := range w.Infra {
		infraW[i] = inf.QueryWeight
	}
	e.infraAlias = simrand.NewAlias(infraW)
	return e
}

// AddSink registers an observer. Sinks must be added before Run.
func (e *Engine) AddSink(s Sink) { e.sinks = append(e.sinks, s) }

func (e *Engine) buildClients() {
	countryW := make([]float64, world.NumCountries)
	for i, ci := range world.Countries() {
		countryW[i] = ci.ClientShare
	}
	countryAlias := simrand.NewAlias(countryW)
	src := e.root.Derive("clients")

	e.Clients = make([]Client, e.Cfg.NumClients)
	officeCounters := make(map[int32]int32) // per-country office sequence
	for i := range e.Clients {
		cs := src.At(i)
		c := &e.Clients[i]
		c.ID = int32(i)
		c.Country = world.Country(countryAlias.Draw(cs))
		ci := c.Country.Info()

		if cs.Bernoulli(ci.MobileShare) {
			c.Platform = world.Android
		} else {
			c.Platform = world.Windows
		}
		c.Browser = drawBrowser(cs, ci.ChromeShare, c.Platform)
		c.UA = uaHash(c.Browser, c.Platform, uint8(cs.Intn(8)))

		c.HomeIP = ipFor("home", uint64(i))
		c.Enterprise = cs.Bernoulli(ci.EnterpriseShare)
		if !c.Enterprise {
			c.HomeOpenDNS = cs.Bernoulli(homeOpenDNSShare * openDNSCountryBoost[c.Country])
			if c.HomeOpenDNS {
				// Content filtering is the main reason home networks point
				// at OpenDNS in the first place.
				c.FamilyFilter = cs.Bernoulli(0.65)
			}
		}
		if c.Enterprise {
			// Group enterprise clients of a country into shared offices.
			key := int32(c.Country)
			officeIdx := officeCounters[key] / officeSize
			officeCounters[key]++
			c.OfficeIP = ipFor("office", uint64(c.Country)<<32|uint64(officeIdx))
		}

		if c.Browser == Chrome {
			c.ChromeSync = cs.Bernoulli(chromeSyncShare)
		}

		// The Alexa extension only exists on desktop, and enterprise
		// machines don't allow it.
		c.PanelJoinDay = -1
		if c.Platform == world.Windows && !c.Enterprise {
			p := panelShare * panelCountryBoost[c.Country]
			if cs.Bernoulli(p) {
				c.PanelJoinDay = 0
			} else if cs.Bernoulli(p * panelExpansionFactor) {
				c.PanelJoinDay = panelExpansionDay
			}
		}

		c.FixedSite = -1
		c.DailyRate = float32(clampF(cs.LogNormal(lnF(meanDailyPageLoads), 0.8), 1, 250))
		if c.Enterprise {
			c.WeekendFactor = float32(0.35 + 0.2*cs.Float64())
		} else {
			c.WeekendFactor = float32(1.1 + 0.4*cs.Float64())
		}
	}
	e.addSybils()
}

// addSybils appends the attacker clients after the organic population.
func (e *Engine) addSybils() {
	for _, spec := range e.Cfg.Sybils {
		for i := 0; i < spec.Clients; i++ {
			id := int32(len(e.Clients))
			e.Clients = append(e.Clients, Client{
				ID:            id,
				Country:       world.US,
				Platform:      world.Windows,
				Browser:       Chrome,
				UA:            uaHash(Chrome, world.Windows, 0),
				HomeIP:        ipFor("sybil", uint64(id)),
				PanelJoinDay:  int16(spec.JoinDay),
				DailyRate:     float32(spec.LoadsPerDay),
				WeekendFactor: 1,
				FixedSite:     spec.Site,
			})
		}
	}
}

func drawBrowser(src *simrand.Source, chromeShare float64, p world.Platform) Browser {
	if src.Bernoulli(chromeShare) {
		return Chrome
	}
	r := src.Float64()
	if p == world.Android {
		switch {
		case r < 0.52:
			return Samsung
		case r < 0.84:
			return Firefox
		default:
			return Other
		}
	}
	switch {
	case r < 0.38:
		return Edge
	case r < 0.66:
		return Firefox
	case r < 0.88:
		return Safari
	default:
		return Other
	}
}

func uaHash(b Browser, p world.Platform, version uint8) uint64 {
	x := uint64(b)<<16 | uint64(p)<<8 | uint64(version)
	x ^= x << 25
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x
}

func ipFor(kind string, id uint64) uint32 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(kind); i++ {
		h ^= uint64(kind[i])
		h *= 1099511628211
	}
	h ^= id
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 31
	return uint32(h)
}

func lnF(x float64) float64 {
	// log-mean such that the log-normal median equals x.
	return ln(x)
}

// IsWeekend reports whether day d is a Saturday or Sunday.
func (e *Engine) IsWeekend(d int) bool {
	wd := (startWeekday + d) % 7
	return wd == 5 || wd == 6
}

// Run simulates all configured days, feeding every registered sink. A
// shard panic (which RunContext would return as an error) crashes, as it
// did before panic recovery existed.
func (e *Engine) Run() {
	if err := e.RunContext(context.Background()); err != nil {
		panic(err)
	}
}

// ErrRunComplete is returned by AdvanceDay once every configured day has
// been simulated.
var ErrRunComplete = errors.New("traffic: all configured days already simulated")

// ErrEngineAborted is returned by AdvanceDay after an earlier day failed:
// the sinks were left mid-day, so no further advancement is allowed.
var ErrEngineAborted = errors.New("traffic: engine aborted by earlier day failure")

// Day returns the lifecycle cursor: the number of fully simulated days,
// equivalently the index of the next day AdvanceDay will run.
func (e *Engine) Day() int { return e.day }

// Failed reports the first day-level error, or nil. A pre-start context
// cancellation (no day work performed) does not count as a failure.
func (e *Engine) Failed() error { return e.failed }

// RestoreDay repositions the lifecycle cursor after the sinks have been
// restored from a checkpoint taken at day d. It is only valid on a fresh
// engine that has not simulated anything yet.
func (e *Engine) RestoreDay(d int) error {
	if e.failed != nil {
		return e.failed
	}
	if e.day != 0 {
		return fmt.Errorf("traffic: RestoreDay(%d): engine already at day %d", d, e.day)
	}
	if d < 0 || d > e.Cfg.Days {
		return fmt.Errorf("traffic: RestoreDay(%d): out of range [0, %d]", d, e.Cfg.Days)
	}
	e.day = d
	return nil
}

// AdvanceDay simulates exactly one day — the one at the Day cursor — and
// advances the cursor. Days advance strictly in order, exactly once: the
// cursor is the guard against out-of-order or double advancement. Once
// all configured days have run it returns ErrRunComplete. A failed day
// (shard panic, mid-day cancellation) latches: the sinks are mid-day and
// every subsequent call returns an error wrapping ErrEngineAborted. A
// cancellation observed
// before any day work starts is returned as ctx's error without latching,
// since the sinks are still consistent at the previous day boundary.
func (e *Engine) AdvanceDay(ctx context.Context) error {
	if e.failed != nil {
		return fmt.Errorf("%w: %v", ErrEngineAborted, e.failed)
	}
	if e.day >= e.Cfg.Days {
		return ErrRunComplete
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := e.runDay(ctx, e.day); err != nil {
		e.failed = err
		return err
	}
	e.day++
	return nil
}

// RunContext simulates all remaining days, stopping early with ctx's
// error when it is canceled. A panic inside a client shard is recovered
// and returned as a *ShardPanicError identifying the shard, instead of
// crashing the process. On error the sinks are left mid-day and the
// engine refuses to advance further (see AdvanceDay).
func (e *Engine) RunContext(ctx context.Context) error {
	sp := e.metrics.simPhase.Start()
	defer sp.End()
	for e.day < e.Cfg.Days {
		if err := e.AdvanceDay(ctx); err != nil {
			return err
		}
	}
	return nil
}

// RunDay simulates a single day, which must be the day at the Day cursor:
// sinks accumulate state day over day, so the lifecycle forbids skipping
// or repeating days. The day's clients are simulated over logical shards,
// concurrently when more than one worker is configured; what the sinks
// observe is identical for every worker count (see sharded.go). Like Run,
// a shard panic propagates.
func (e *Engine) RunDay(d int) {
	if d != e.day {
		panic(fmt.Sprintf("traffic: RunDay(%d): cursor is at day %d; days advance in order, exactly once", d, e.day))
	}
	if err := e.AdvanceDay(context.Background()); err != nil {
		panic(err)
	}
}

func (e *Engine) runDay(ctx context.Context, d int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dayStart := time.Now()
	weekend := e.IsWeekend(d)
	for _, s := range e.sinks {
		s.BeginDay(d, weekend)
	}
	for i := range e.humanReqs {
		e.humanReqs[i] = 0
	}

	daySrc := e.root.Derive("day").At(d)
	if err := e.runDayClients(ctx, d, weekend, daySrc); err != nil {
		return err
	}
	e.simulateBots(d, daySrc.Derive("bots"))

	for _, s := range e.sinks {
		s.EndDay(d)
	}
	e.metrics.days.Inc()
	dayDur := time.Since(dayStart)
	e.metrics.dayTime.Observe(dayDur)
	e.metrics.tracer.Span("engine.day", "engine", int64(d), dayStart, dayDur)
	return nil
}

// clientScratch is per-client-day reusable state.
type clientScratch struct {
	// lastQuery maps a DNS name key to the expiry second of its cached
	// answer. TTLs are < 1 day so the cache never spans days.
	lastQuery map[uint32]int32
	times     []int32
	// visited holds today's distinct sites with their stickiness weights,
	// for the revisit draw.
	visited      []visitedSite
	visitedTotal float64
}

type visitedSite struct {
	site int32
	w    float64
}

func newClientScratch() *clientScratch {
	return &clientScratch{lastQuery: make(map[uint32]int32, 64)}
}

// pickVisited draws a site from today's visited set, weighted by
// stickiness.
func (sc *clientScratch) pickVisited(src *simrand.Source) int32 {
	r := src.Float64() * sc.visitedTotal
	for _, v := range sc.visited {
		r -= v.w
		if r < 0 {
			return v.site
		}
	}
	return sc.visited[len(sc.visited)-1].site
}

func (e *Engine) simulateClientDay(c *Client, d int, weekend bool, src *simrand.Source, sc *clientScratch, out *shardOut) {
	rate := float64(c.DailyRate)
	if weekend {
		rate *= float64(c.WeekendFactor)
	}
	n := src.Poisson(rate)

	atWork := c.Enterprise && !weekend
	ip := c.HomeIP
	if atWork {
		ip = c.OfficeIP
	}

	clear(sc.lastQuery)
	sc.times = sc.times[:0]
	sc.visited = sc.visited[:0]
	sc.visitedTotal = 0
	for j := 0; j < n; j++ {
		sc.times = append(sc.times, int32(src.Intn(86400)))
	}
	slices.Sort(sc.times)

	aliasIdx := int(c.Country)*world.NumPlatforms + int(c.Platform)
	alias := e.siteAliases[aliasIdx]
	workAlias := alias
	if atWork {
		// A chunk of workday browsing on the corporate network skews
		// toward work categories; the rest is ordinary personal browsing.
		workAlias = e.workAliases[aliasIdx]
	} else if c.PanelJoinDay >= 0 {
		// Panel-demographic clients browse a skewed slice of the web
		// whether or not the extension is active yet.
		alias = e.panelAliases[aliasIdx]
	}
	var (
		pl PageLoad
		q  DNSQuery
	)
	for j := 0; j < n; j++ {
		var siteID int32
		switch {
		case c.FixedSite >= 0:
			siteID = c.FixedSite
		case len(sc.visited) > 0 && src.Bernoulli(e.revisit):
			siteID = sc.pickVisited(src)
		default:
			draw := alias
			if atWork && src.Bernoulli(0.4) {
				draw = workAlias
			}
			siteID = int32(draw.Draw(src))
			sc.visited = append(sc.visited, visitedSite{siteID, float64(e.W.Site(siteID).Stickiness)})
			sc.visitedTotal += float64(e.W.Site(siteID).Stickiness)
		}
		site := e.W.Site(siteID)
		cat := site.Category.Info()

		// Corporate networks block certain categories at the DNS layer;
		// employees don't reach those sites from work at all.
		if atWork && src.Bernoulli(cat.EnterpriseBlocked) {
			continue
		}

		subIdx := drawSubdomain(src, site)
		t := sc.times[j]

		pl = PageLoad{
			Day:     d,
			Weekend: weekend,
			Second:  t,
			Site:    siteID,
			SubIdx:  subIdx,
			Client:  c,
			IP:      ip,
			AtWork:  atWork,
			Private: src.Bernoulli(float64(site.PrivateShare)),
			Root:    src.Bernoulli(float64(site.EntryShare)),
		}
		pl.Subresources = src.Poisson(float64(site.SubresMean))
		pl.HTMLRequests = 1 + src.Binomial(pl.Subresources, 0.05)
		pl.RefererRequests = pl.Subresources
		if src.Bernoulli(0.62) { // navigated via a link rather than typed
			pl.RefererRequests++
		}
		pl.Non200 = src.Binomial(pl.Requests(), 0.05)
		if site.HTTPS {
			pl.TLSConns = 1 + src.Binomial(pl.Subresources, 0.13)
		}
		pl.Completed = src.Bernoulli(float64(site.CompletionProb))
		pl.DwellSec = src.LogNormal(float64(site.DwellMu), float64(site.DwellSigma))

		out.humanReqs[siteID] += int32(pl.Requests())

		// DNS: client-side cache by (site, hostname); a resolver query is
		// emitted only on cache miss or expiry.
		key := uint32(siteID)<<4 | uint32(subIdx)
		if exp, ok := sc.lastQuery[key]; !ok || t >= exp {
			sc.lastQuery[key] = t + site.DNSTTL
			q = DNSQuery{
				Day: d, Client: c, IP: ip, AtWork: atWork,
				Site: siteID, SubIdx: subIdx, Infra: -1,
			}
			out.dnsQuery(&q)
		}

		out.pageLoad(&pl)
	}

	// Background device queries to infrastructure names (OS telemetry,
	// updates, push). These happen regardless of browsing volume.
	nInfra := src.Poisson(infraQueriesPerDay)
	for j := 0; j < nInfra; j++ {
		idx := int32(e.infraAlias.Draw(src))
		q = DNSQuery{
			Day: d, Client: c, IP: ip, AtWork: atWork,
			Site: -1, Infra: idx,
		}
		out.dnsQuery(&q)
	}
}

func drawSubdomain(src *simrand.Source, site *world.Site) uint8 {
	r := float32(src.Float64())
	var acc float32
	for i, w := range site.SubWeights {
		acc += w
		if r < acc {
			return uint8(i)
		}
	}
	return 0
}

// botFloor is the baseline daily crawler/bot request volume per category.
// Abuse (spam/scan) targets draw orders of magnitude more automated traffic
// than their human popularity earns — the divergence that separates the
// all-requests metric from the browser-filtered one.
var botFloor = [world.NumCategories]float64{
	world.Abuse:  1500,
	world.Parked: 80,
}

// simulateBots emits per-site daily bot traffic: a floor of crawler
// activity for every site plus volume proportional to human traffic per the
// site's bot share.
func (e *Engine) simulateBots(d int, src *simrand.Source) {
	n := e.W.NumSites()
	var nBatches, nReqs int64
	var bb BotBatch
	for i := 0; i < n; i++ {
		site := e.W.Site(int32(i))
		bs := float64(site.BotShare)
		floor := botFloor[site.Category]
		if floor == 0 {
			floor = 4
		}
		// Crawl volume decays slowly with obscurity.
		floor *= 0.3 + headnessOf(i, n)
		mean := floor + float64(e.humanReqs[i])*bs/(1-bs)
		ss := src.At(i)
		reqs := ss.Poisson(mean)
		if reqs == 0 {
			continue
		}
		bb = BotBatch{
			Day:             d,
			Site:            int32(i),
			Requests:        reqs,
			RootRequests:    ss.Binomial(reqs, 0.30),
			HTMLRequests:    ss.Binomial(reqs, 0.45),
			RefererRequests: ss.Binomial(reqs, 0.08),
			Non200:          ss.Binomial(reqs, 0.18),
		}
		if site.HTTPS {
			bb.TLSConns = ss.Binomial(reqs, 0.65)
		}
		nIPs := 1 + ss.Poisson(sqrtF(float64(reqs)))
		bb.IPs = make([]uint32, nIPs)
		for k := range bb.IPs {
			bb.IPs[k] = ipFor("bot", uint64(ss.Intn(65536)))
		}
		nBatches++
		nReqs += int64(reqs)
		for _, s := range e.sinks {
			s.OnBotBatch(&bb)
		}
	}
	e.metrics.botBatches.Add(nBatches)
	e.metrics.botRequests.Add(nReqs)
}

func headnessOf(i, n int) float64 {
	return 1 / (1 + float64(i)/(0.01*float64(n)+1))
}
