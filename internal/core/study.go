// Package core assembles the end-to-end study and implements the paper's
// evaluation methodology: the Cloudflare-filtered list comparisons of
// Section 4.3, the rank-magnitude movement analysis of Section 5.3, and the
// bias analyses of Section 6.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"toplists/internal/cfmetrics"
	"toplists/internal/chrome"
	"toplists/internal/faults"
	"toplists/internal/httpsim"
	"toplists/internal/linkgraph"
	"toplists/internal/names"
	"toplists/internal/obs"
	"toplists/internal/providers"
	"toplists/internal/psl"
	"toplists/internal/rank"
	"toplists/internal/simrand"
	"toplists/internal/sketch"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// Config parameterizes a full study run.
type Config struct {
	// Seed drives the whole study.
	Seed uint64
	// NumSites is the universe size (default 10000).
	NumSites int
	// NumClients is the browsing population (default 3000).
	NumClients int
	// Days is the measurement window (default 28, February 2022).
	Days int
	// TrackAllCombos enables all 21 filter-aggregation combinations in the
	// Cloudflare pipeline (needed for Figure 8); the seven canonical
	// metrics are always tracked.
	TrackAllCombos bool
	// EvalMagIdx selects the rank magnitude (index into the bucketer's
	// cutoffs) at which set-intersection (Jaccard) comparisons run. The
	// paper compares million-entry lists drawn from a quarter-billion-
	// domain web; in a compressed simulated universe the same head-vs-tail
	// tension lives at a smaller fraction of the universe, so the default
	// is index 2 (the scaled "100K"); rank correlations always run at the
	// full scaled list (SpearmanK). See DESIGN.md, "Evaluation-scale
	// adaptations".
	EvalMagIdx int
	// Workers is the number of goroutines simulating clients within each
	// day, and the evaluation pool width for experiments.RunConcurrent
	// (0 = one per CPU, 1 = serial). Output is identical for every
	// setting; see traffic.Config.Workers.
	Workers int
	// FaultRate enables deterministic fault injection across the virtual
	// network: the fraction (0..1) of probe attempts that hit an injected
	// failure — refused/reset/truncated/stalled dials, 5xx edge responses.
	// 0 (the default) leaves the network byte-identical to a study built
	// before fault injection existed. The plan's seed derives from Seed
	// (Study.FaultSeed).
	FaultRate float64
	// Sketch switches the aggregation layer to bounded mergeable summaries
	// (see internal/sketch): each of a fixed number of logical traffic
	// shards accumulates fixed-size sketches that merge at the day
	// barrier, instead of exact per-site sets and counts in one shard per
	// worker. The summaries' dimensions are fixed constants of
	// internal/sketch. The zero value (Enabled false) is the exact oracle.
	Sketch sketch.Config
	// Obs, when set, is the telemetry registry the study instruments
	// itself against; nil makes NewStudy create a private one (retrieve it
	// with Study.Metrics). Instrumentation never changes study output:
	// every count-valued metric is a pure function of (Seed, Config), and
	// timing-valued metrics are excluded from the report's deterministic
	// subset. See internal/obs.
	Obs *obs.Registry
	// Ablate disables selected mechanisms across the world and the
	// traffic engine for ablation studies (see experiments.RunAblations).
	Ablate Ablations
	// Sybils adds attacker-controlled clients (see experiments.RunAttack).
	Sybils []traffic.SybilSpec
	// Vantages is the number of measurement vantage points (default 1,
	// the transparent global vantage — the original single-edge model).
	// Additional vantages are placed by world.DefaultVantages and observe
	// the same traffic through per-country reachability filters.
	Vantages int
	// Backends is the number of deployed CDN backends (default 1, the
	// Cloudflare-style edge only). Additional backends get their own
	// adoption skew and header signatures; see world.Backend.
	Backends int
}

// Ablations aggregates the mechanism switches of the world and engine.
type Ablations struct {
	NoPrivateBrowsing bool
	NoOpenness        bool
	NoWeightBoost     bool
	NoPanelDistortion bool
	NoWorkSkew        bool
	NoRevisits        bool
}

const (
	// cruxMinVisitors is the CrUX per-country privacy threshold.
	cruxMinVisitors = 2
	// spearmanMagIdx selects the magnitude for rank-correlation
	// comparisons: the full scaled list. The paper's single top-1M cut is
	// simultaneously a tiny fraction of the web (set scarcity) and the full
	// depth of every list (rank-noise exposure); a compressed universe
	// needs two cuts to express both regimes, EvalMagIdx and this one.
	spearmanMagIdx = 3
)

// Upper bounds on the config fields that size a study's memory, so that a
// flag or a checksum-valid checkpoint meta frame cannot make NewStudy
// allocate without bound. Each admits every CLI default and the sketch
// scale run (1M clients x 100k sites x 28 days) with room to spare. Heap
// figures were measured on linux/amd64 with Go 1.24.
const (
	// maxSites caps NumSites. A built study holds about 1.8 KiB of heap
	// per site (world, link graph, sinks), so the cap admits about 1.9 GB.
	maxSites = 1 << 20
	// maxClients caps NumClients. A client holds about 70 B when built and
	// about 290 B once its first day has run, so the cap admits about
	// 2.4 GB.
	maxClients = 1 << 23
	// maxDays caps Days at a year of daily lists. Days size nothing at
	// construction; each advanced day's archived lists keep about 34 B per
	// site, so a full year at the 50k-site CLI default keeps about 620 MB.
	maxDays = 366
)

// Validate reports the first invalid field as an error naming it. Zero
// fields are valid (they take defaults); out-of-range values are rejected
// here rather than silently clamped or left to panic downstream. Every
// entry point checks through it: the toplists facade, both CLIs, and
// Resume for configurations decoded from a checkpoint. NewStudy panics on
// a configuration that fails it.
func (c Config) Validate() error {
	mags := len(rank.Bucketer{}.Magnitudes)
	switch {
	case c.NumSites < 0:
		return fmt.Errorf("core: sites %d negative", c.NumSites)
	case c.NumSites > maxSites:
		return fmt.Errorf("core: sites %d above the cap %d", c.NumSites, maxSites)
	case c.NumClients < 0:
		return fmt.Errorf("core: clients %d negative", c.NumClients)
	case c.NumClients > maxClients:
		return fmt.Errorf("core: clients %d above the cap %d", c.NumClients, maxClients)
	case c.Days < 0:
		return fmt.Errorf("core: days %d negative", c.Days)
	case c.Days > maxDays:
		return fmt.Errorf("core: days %d above the cap %d", c.Days, maxDays)
	case c.Workers < 0:
		return fmt.Errorf("core: workers %d negative", c.Workers)
	case c.EvalMagIdx < 0 || c.EvalMagIdx >= mags:
		return fmt.Errorf("core: eval magnitude index %d outside [0, %d)", c.EvalMagIdx, mags)
	case !(c.FaultRate >= 0 && c.FaultRate <= 1):
		return fmt.Errorf("core: fault rate %v outside [0, 1]", c.FaultRate)
	case c.Vantages < 0 || c.Vantages > world.MaxVantages:
		return fmt.Errorf("core: vantages %d outside [0, %d]", c.Vantages, world.MaxVantages)
	case c.Backends < 0 || c.Backends > world.NumBackends:
		return fmt.Errorf("core: backends %d outside [0, %d]", c.Backends, world.NumBackends)
	}
	sites := c.withDefaults().NumSites
	for _, sy := range c.Sybils {
		if sy.Site < 0 || int(sy.Site) >= sites {
			return fmt.Errorf("core: sybil target site %d outside [0, %d)", sy.Site, sites)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.NumSites == 0 {
		c.NumSites = 10_000
	}
	if c.NumClients == 0 {
		c.NumClients = 3_000
	}
	if c.Days == 0 {
		c.Days = 28
	}
	if c.EvalMagIdx == 0 {
		c.EvalMagIdx = 2
	}
	if c.Vantages <= 0 {
		c.Vantages = 1
	}
	if c.Backends <= 0 {
		c.Backends = 1
	}
	return c
}

// Study is one fully-wired simulation run plus the observers needed for
// every experiment in the paper.
type Study struct {
	Cfg Config

	World     *world.World
	Engine    *traffic.Engine
	Pipeline  *cfmetrics.Pipeline
	Edges     *cfmetrics.PipelineSet
	Telemetry *chrome.Telemetry
	Graph     *linkgraph.Graph
	PSL       *psl.List
	Bucketer  rank.Bucketer

	Alexa    *providers.Alexa
	Umbrella *providers.Umbrella
	Majestic *providers.Majestic
	Secrank  *providers.Secrank
	Tranco   *providers.Tranco
	Trexa    *providers.Trexa
	Crux     *providers.Crux

	// Network is the virtual HTTP layer used by the probe-based filtering.
	// It is started lazily under netMu; use network() to read it.
	Network *httpsim.Network
	netMu   sync.Mutex
	closed  bool

	// artifacts is the memoized derived-data layer shared by every
	// experiment; see Artifacts.
	artifacts *Artifacts

	// obs is the study's telemetry registry (never nil; see Config.Obs).
	obs *obs.Registry

	// lifeMu is the lifecycle lock: AdvanceDay (and batch RunContext)
	// write-hold it across a whole day — simulation, amalgam updates,
	// artifact invalidation, auto-checkpoint. Ranking reads do not take
	// it: they load the published view. Only Snapshot and CrUX reads
	// read-hold it, since both read live sink state rather than an archive.
	lifeMu sync.RWMutex

	// view is the last published day boundary (see dayView): stored under
	// lifeMu's write side, loaded by readers without any lock.
	view atomic.Pointer[dayView]

	// ckptEvery/ckptFn implement auto-checkpointing from the advance path
	// (SetAutoCheckpoint): every ckptEvery advanced days, ckptFn runs with
	// the lifecycle write lock still held, so its snapshot is always at a
	// clean day boundary.
	ckptEvery int
	ckptFn    CheckpointFunc

	// cruxMu guards the lazily derived CrUX list; cruxDay is the engine
	// day count the current s.Crux was derived at (-1 = none yet).
	cruxMu  sync.Mutex
	cruxDay int

	ran bool
}

// dayView is one published day boundary: the advanced day count, the
// sticky abort error, and the archive of every day-indexed ranking a
// reader may ask for. It is built under the lifecycle write lock and never
// changes once stored, so readers load it and take no lock. Each archive
// is a slice clipped to its length over an append-only store whose
// elements below that length are never rewritten: later days land past
// the cut, or in a new backing array, and touch nothing the view holds.
type dayView struct {
	day int
	// aborted latches the first failed advancement (see ErrStudyAborted).
	aborted error
	// lists holds the per-day archives of the lists that publish one
	// ranking a day, by name. Majestic publishes one ranking fixed at
	// construction and CrUX is re-derived from live telemetry, so neither
	// needs one.
	lists map[string][]*rank.Ranking
	// edges[vi][bi] is the (vantage, backend) pipeline's day archive.
	edges [][]cfmetrics.Archive
}

// publishLocked captures the study's current day boundary as a new view.
// Callers hold lifeMu for writing, or own the study outright (NewStudy,
// Resume). It never publishes a failed day: on a failure advanceDayLocked
// republishes the last good boundary with the abort error attached.
func (s *Study) publishLocked() {
	s.view.Store(&dayView{
		day: s.Engine.Day(),
		lists: map[string][]*rank.Ranking{
			"Alexa":    s.Alexa.Archive(),
			"Secrank":  s.Secrank.Archive(),
			"Tranco":   s.Tranco.Archive(),
			"Trexa":    s.Trexa.Archive(),
			"Umbrella": s.Umbrella.Archive(),
		},
		edges: s.Edges.Archives(),
	})
}

// ErrStudyAborted is the sticky error of a study whose advancement failed
// mid-day (shard panic, mid-simulation cancellation): the sinks hold a
// partial day, so every later AdvanceDay/RunContext call refuses to touch
// them rather than silently re-running the engine over half-advanced
// state.
var ErrStudyAborted = errors.New("core: study aborted by failed day advancement")

// ErrStudyClosed is returned when the virtual network is needed after
// Close: a closed study must not silently restart it.
var ErrStudyClosed = errors.New("core: study closed")

// NewStudy builds the world and wires every observer. Run must be called
// before reading lists or metrics. It panics if cfg fails Validate.
func NewStudy(cfg Config) *Study {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	buildSpan := reg.Span("phase.build_world")
	w := world.Generate(world.Config{
		Seed:     cfg.Seed,
		NumSites: cfg.NumSites,
		Backends: cfg.Backends,
		Vantages: world.DefaultVantages(cfg.Vantages),
		Ablate: world.Ablations{
			NoPrivateBrowsing: cfg.Ablate.NoPrivateBrowsing,
			NoOpenness:        cfg.Ablate.NoOpenness,
			NoWeightBoost:     cfg.Ablate.NoWeightBoost,
		},
	})
	l := psl.Default()

	s := &Study{
		Cfg:      cfg,
		World:    w,
		PSL:      l,
		Bucketer: rank.ScaledMagnitudes(cfg.NumSites),
		Graph:    linkgraph.Build(w, linkgraph.Config{}, simrand.New(cfg.Seed).Derive("linkgraph")),
		obs:      reg,
	}
	reg.GaugeFunc("names.interned", func() int64 {
		return int64(w.Interner().Len())
	})

	combos := cfmetrics.MetricCombos()
	if cfg.TrackAllCombos {
		combos = cfmetrics.AllCombos()
	}
	// The edge grid: one pipeline per (vantage, backend). The primary at
	// (0, 0) is the paper's Cloudflare pipeline, wired exactly as before;
	// under the default 1-vantage, 1-backend config the grid has no extras
	// and the event path is unchanged.
	s.Edges = cfmetrics.NewPipelineSet(w, combos, cfmetrics.MetricCombos())
	s.Pipeline = s.Edges.Primary()
	s.Telemetry = chrome.NewTelemetry(w)
	s.Alexa = providers.NewAlexa(w)
	s.Umbrella = providers.NewUmbrella(w, l)
	s.Majestic = providers.NewMajestic(w, s.Graph)
	s.Secrank = providers.NewSecrank(w, l)
	if cfg.Sketch.Enabled {
		s.Edges.SetSketch()
		s.Telemetry.SetSketch()
		s.Umbrella.SetSketch()
		s.Secrank.SetSketch()
		// All sketch gauges are pure functions of (Seed, Config): logical
		// footprints and error bounds, not process measurements.
		reg.GaugeFunc("sketch.cf.mem_peak_bytes", func() int64 { return int64(s.Pipeline.SketchMemPeak()) })
		reg.GaugeFunc("sketch.cf.cm_errbound", func() int64 { return int64(s.Pipeline.SketchErrorBound()) })
		reg.GaugeFunc("sketch.umbrella.mem_peak_bytes", func() int64 { return int64(s.Umbrella.SketchMemPeak()) })
		reg.GaugeFunc("sketch.secrank.mem_peak_bytes", func() int64 { return int64(s.Secrank.SketchMemPeak()) })
		reg.GaugeFunc("sketch.chrome.mem_peak_bytes", func() int64 { return int64(s.Telemetry.SketchMemPeak()) })
	}

	s.Engine = traffic.NewEngine(w, traffic.Config{
		Seed:       cfg.Seed + 1,
		NumClients: cfg.NumClients,
		Days:       cfg.Days,
		Workers:    cfg.Workers,
		Sketch:     cfg.Sketch,
		Ablate: traffic.Ablations{
			NoPanelDistortion: cfg.Ablate.NoPanelDistortion,
			NoWorkSkew:        cfg.Ablate.NoWorkSkew,
			NoRevisits:        cfg.Ablate.NoRevisits,
		},
		Sybils: cfg.Sybils,
	})
	s.Engine.AddSink(s.Pipeline)
	s.Engine.AddSink(s.Telemetry)
	s.Engine.AddSink(s.Alexa)
	s.Engine.AddSink(s.Umbrella)
	s.Engine.AddSink(s.Secrank)
	// Extra edge pipelines ride after the original five sinks, so the
	// default configuration's sink order — and therefore its merge order
	// and goldens — is untouched.
	for _, p := range s.Edges.Extras() {
		s.Engine.AddSink(p)
	}
	s.Engine.SetObs(reg)
	s.artifacts = newArtifacts(s)
	// The amalgams are incremental consumers: each AdvanceDay feeds them
	// the day just simulated, drawing normalized input snapshots through
	// the artifact store's memo so that work is already warm at evaluation
	// time.
	s.Tranco = providers.NewTranco(s.Alexa, s.Umbrella, s.Majestic, s.PSL, s.artifacts.norms)
	s.Trexa = providers.NewTrexa(s.Alexa, s.Tranco, s.PSL)
	s.cruxDay = -1
	s.publishLocked()
	buildSpan.End()
	return s
}

// Run simulates the month and finalizes the amalgam and monthly lists.
// It panics on a shard failure; RunContext reports it as an error instead.
func (s *Study) Run() {
	if err := s.RunContext(context.Background()); err != nil {
		panic(err)
	}
}

// RunContext simulates every remaining day and finalizes the amalgam and
// monthly lists, honoring ctx: a pre-start cancellation returns the
// context's error with the study still consistent at its current day
// boundary, while a mid-day cancellation (or a panicking client shard,
// surfaced as a *traffic.ShardPanicError) leaves the sinks torn and
// latches the study — subsequent calls return an error wrapping
// ErrStudyAborted instead of silently re-running the engine over
// half-advanced sink state.
func (s *Study) RunContext(ctx context.Context) error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.ran {
		return nil
	}
	if err := s.Aborted(); err != nil {
		return err
	}
	for s.Engine.Day() < s.Cfg.Days {
		if err := s.advanceDayLocked(ctx); err != nil {
			return err
		}
		s.autoCheckpointLocked()
	}
	s.finalizeLocked()
	return nil
}

// AdvanceDay simulates exactly one day and feeds it through the
// incremental amalgams (Tranco/Trexa ComputeDay), invalidating the
// month-scoped derived artifacts it staled. Days advance strictly in
// order, exactly once (the engine's Day cursor is the guard); once every
// configured day has run it returns traffic.ErrRunComplete. Readers never
// wait for it: they keep reading the previous day's view until the new
// day is published whole.
func (s *Study) AdvanceDay(ctx context.Context) error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if err := s.Aborted(); err != nil {
		return err
	}
	if err := s.advanceDayLocked(ctx); err != nil {
		return err
	}
	if s.Engine.Day() == s.Cfg.Days {
		s.finalizeLocked()
	}
	s.autoCheckpointLocked()
	return nil
}

// CheckpointFunc persists one auto-checkpoint: day is the number of fully
// advanced days, and write serializes the study at that boundary into any
// sink. The function runs from the advance path with the lifecycle write
// lock held — keep it bounded (a durable file write, not an upload).
type CheckpointFunc func(day int, write func(io.Writer) error) error

// SetAutoCheckpoint installs fn to run after every nth successful day
// advancement (and always after the final day), from inside the advance
// path itself. n < 1 or a nil fn disables auto-checkpointing. A failing
// fn never aborts the study — the advanced day is good even if the disk
// is not — it only bumps the volatile checkpoint.auto_failed counter;
// callers that need to surface the failure should do so inside fn.
func (s *Study) SetAutoCheckpoint(n int, fn CheckpointFunc) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if n < 1 || fn == nil {
		s.ckptEvery, s.ckptFn = 0, nil
		return
	}
	s.ckptEvery, s.ckptFn = n, fn
}

// autoCheckpointLocked fires the auto-checkpoint hook when the just-
// completed day count hits the configured cadence. Callers hold lifeMu.
func (s *Study) autoCheckpointLocked() {
	if s.ckptFn == nil || s.ckptEvery < 1 {
		return
	}
	day := s.Engine.Day()
	if day%s.ckptEvery != 0 && day != s.Cfg.Days {
		return
	}
	span := s.obs.Span("phase.autocheckpoint")
	err := s.ckptFn(day, s.snapshotLocked)
	span.End()
	// Operational counters are volatile: how many auto-checkpoints a
	// process wrote depends on its crash/restart history, not on the seed.
	if err != nil {
		s.obs.Counter("checkpoint.auto_failed", obs.Volatile).Inc()
	} else {
		s.obs.Counter("checkpoint.auto", obs.Volatile).Inc()
	}
}

// advanceDayLocked runs one engine day plus the per-day amalgam updates,
// then publishes the new day. Callers hold lifeMu. A day-level failure
// latches the sticky abort error; the first caller still receives the
// original error (tests match on context.Canceled and
// *traffic.ShardPanicError), later callers get the sticky wrapper.
func (s *Study) advanceDayLocked(ctx context.Context) error {
	if err := s.Engine.AdvanceDay(ctx); err != nil {
		if s.Engine.Failed() != nil && s.Aborted() == nil {
			// The sinks hold a partial day: keep the last good boundary
			// published and attach the error to it.
			v := *s.view.Load()
			v.aborted = fmt.Errorf("%w: %v", ErrStudyAborted, err)
			s.view.Store(&v)
		}
		return err
	}
	day := s.Engine.Day() - 1
	amalgamSpan := s.obs.Span("phase.amalgam")
	s.Tranco.ComputeDay(day)
	s.Trexa.ComputeDay(day)
	amalgamSpan.End()
	// Publish before invalidating, so a month-scoped artifact rebuilt after
	// the invalidation reads the new day.
	s.publishLocked()
	// Month-scoped artifacts (monthly Dowdall rankings, telemetry cell
	// rankings) now cover one more day; drop the stale entries. Per-day
	// artifacts are immutable once their day is published and stay cached.
	s.artifacts.invalidateMonthly()
	return nil
}

// finalizeLocked marks the study fully run, derives the published CrUX
// list and publishes the final day, which also covers days a caller ran
// on the Engine directly rather than through AdvanceDay. Idempotent;
// callers hold lifeMu with the engine at Days.
func (s *Study) finalizeLocked() {
	if s.ran {
		return
	}
	s.cruxLocked()
	s.publishLocked()
	s.ran = true
}

// cruxLocked returns the CrUX list derived from telemetry as of the
// current day, rebuilding it only when a day advanced since the last
// derivation. Rebuilding replaces s.Crux, so the normalization memo's
// CrUX entries (keyed per day against the old instance) are dropped.
func (s *Study) cruxLocked() *providers.Crux {
	s.cruxMu.Lock()
	defer s.cruxMu.Unlock()
	day := s.Engine.Day()
	if s.Crux == nil || s.cruxDay != day {
		if s.Crux != nil {
			s.artifacts.norms.InvalidateList(s.Crux.Name())
		}
		s.Crux = providers.NewCrux(s.Telemetry, cruxMinVisitors, s.Bucketer)
		s.cruxDay = day
	}
	return s.Crux
}

// Day returns the number of fully advanced (simulated, amalgamated) days
// in the published view. It never waits for an advance in progress.
func (s *Study) Day() int { return s.view.Load().day }

// Aborted returns the sticky abort error of a study whose advancement
// failed mid-day, or nil. It never waits for an advance in progress.
func (s *Study) Aborted() error { return s.view.Load().aborted }

// Lists returns the seven providers in canonical table order.
func (s *Study) Lists() []providers.List {
	s.mustRun()
	return []providers.List{
		s.Alexa, s.Majestic, s.Secrank, s.Tranco, s.Trexa, s.Umbrella, s.Crux,
	}
}

// RankedLists returns the providers that publish exact ranks (everything
// but CrUX), for analyses that need Spearman correlation.
func (s *Study) RankedLists() []providers.List {
	s.mustRun()
	return []providers.List{
		s.Alexa, s.Majestic, s.Secrank, s.Tranco, s.Trexa, s.Umbrella,
	}
}

func (s *Study) mustRun() {
	if !s.ran {
		panic("core: Study.Run not called")
	}
}

// Artifacts returns the study's memoized derived-data layer. It is safe
// for concurrent use by multiple experiment goroutines.
func (s *Study) Artifacts() *Artifacts { return s.artifacts }

// Metrics returns the study's telemetry registry — the one passed as
// Config.Obs, or the private registry NewStudy created. A nil study
// yields a nil registry, which records nothing and never panics.
func (s *Study) Metrics() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.obs
}

// Names returns the study's name table: every ranking the study produces
// is backed by IDs interned here.
func (s *Study) Names() *names.Table { return s.World.Interner() }

// ResetArtifacts discards every memoized derived artifact, forcing the
// next evaluation to recompute from the raw simulation output. It exists
// for benchmarks and tests that compare cold against warm evaluation; it
// must not be called concurrently with experiment readers.
func (s *Study) ResetArtifacts() { s.artifacts = newArtifacts(s) }

// FaultSeed returns the seed keying the study's fault plan: a stream
// derived from the study seed, so two studies with equal seeds see
// identical weather.
func (s *Study) FaultSeed() uint64 {
	return simrand.New(s.Cfg.Seed).Derive("faults").Uint64()
}

// FaultPlan returns the study's fault plan, or nil when FaultRate is 0.
func (s *Study) FaultPlan() *faults.Plan {
	if s.Cfg.FaultRate <= 0 {
		return nil
	}
	return &faults.Plan{Seed: s.FaultSeed(), Rate: s.Cfg.FaultRate}
}

// network returns the virtual HTTP layer, starting it on first use. A
// configured FaultRate installs the study's fault plan before any probe
// can observe the network. After Close it returns ErrStudyClosed instead
// of silently restarting the network.
func (s *Study) network() (*httpsim.Network, error) {
	s.netMu.Lock()
	defer s.netMu.Unlock()
	if s.closed {
		return nil, ErrStudyClosed
	}
	if s.Network == nil {
		n := httpsim.NewNetwork()
		n.AddWorld(s.World)
		n.SetFaultPlan(s.FaultPlan())
		n.SetObs(s.obs)
		n.Start()
		s.Network = n
	}
	return s.Network, nil
}

// Close releases the virtual network, if started, and marks the study
// closed: any later attempt to probe (which would lazily restart the
// network) fails with ErrStudyClosed. Idempotent.
func (s *Study) Close() {
	s.netMu.Lock()
	defer s.netMu.Unlock()
	s.closed = true
	if s.Network != nil {
		s.Network.Close()
		s.Network = nil
	}
}

// ListNames returns the provider names servable by RankingFor, in the
// paper's canonical table order.
func (s *Study) ListNames() []string { return providers.CanonicalOrder() }

// RankingFor returns the published ranking of the named list for a
// 0-based day that has already been advanced. It reads the published view
// and takes no lock, so it never waits for an advance in progress: the
// day-indexed lists serve their archived ranking of that day, and Majestic
// its one month-stable ranking. CrUX publishes one month-to-date list, so
// a read of any past day returns the list derived from telemetry as of the
// current day; that read takes the lifecycle read lock, because it derives
// the list lazily from live telemetry on the first read after an advance.
func (s *Study) RankingFor(list string, day int) (*rank.Ranking, error) {
	v := s.view.Load()
	if day < 0 || day >= v.day {
		return nil, fmt.Errorf("core: day %d not available (advanced through day %d)", day, v.day-1)
	}
	switch list {
	case "Majestic":
		return s.Majestic.Raw(day), nil
	case "CrUX":
		s.lifeMu.RLock()
		defer s.lifeMu.RUnlock()
		return s.cruxLocked().Raw(day), nil
	}
	if days, ok := v.lists[list]; ok {
		return days[day], nil
	}
	return nil, fmt.Errorf("core: unknown list %q", list)
}

// Vantages returns the study's measurement vantage points in grid order.
func (s *Study) Vantages() []world.Vantage { return s.World.Vantages() }

// Backends returns the study's deployed CDN backends in grid order.
func (s *Study) Backends() []world.Backend { return s.World.Backends() }

// EdgeRankingFor returns the day's ranking of one canonical metric as
// observed by one (vantage, backend) edge pipeline, for a 0-based day that
// has already been advanced. metric is a cfmetrics.Metric key slug,
// vantage a vantage name, backend a backend slug; unknown keys error.
// Like RankingFor it takes no lock: the ranking is built once per (edge,
// day, metric) in the artifact memo, from the published view's archive.
func (s *Study) EdgeRankingFor(metric, vantage, backend string, day int) (*rank.Ranking, error) {
	m, ok := cfmetrics.MetricByKey(metric)
	if !ok {
		return nil, fmt.Errorf("core: unknown metric %q", metric)
	}
	vi, bi, ok := s.Edges.Index(vantage, backend)
	if !ok {
		return nil, fmt.Errorf("core: unknown edge (%q, %q)", vantage, backend)
	}
	if cur := s.Day(); day < 0 || day >= cur {
		return nil, fmt.Errorf("core: day %d not available (advanced through day %d)", day, cur-1)
	}
	return s.artifacts.EdgeMetricRanking(vi, bi, day, m), nil
}

// EvalK returns the list magnitude at which set comparisons run.
func (s *Study) EvalK() int {
	return s.Bucketer.Magnitudes[s.Cfg.EvalMagIdx]
}

// SpearmanK returns the magnitude at which rank correlations run.
func (s *Study) SpearmanK() int {
	return s.Bucketer.Magnitudes[spearmanMagIdx]
}

// Describe summarizes the run for logs.
func (s *Study) Describe() string {
	return fmt.Sprintf("study: seed=%d sites=%d clients=%d days=%d",
		s.Cfg.Seed, s.Cfg.NumSites, s.Cfg.NumClients, s.Cfg.Days)
}
