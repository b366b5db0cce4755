// Package toplists reproduces the measurement study "Toppling Top Lists:
// Evaluating the Accuracy of Popular Website Lists" (Ruth, Kumar, Wang,
// Valenta, Durumeric — ACM IMC 2022) over a fully synthetic web.
//
// A Study simulates a universe of websites with known ground-truth
// popularity, a browsing population observed through every vantage point
// the paper uses (Cloudflare-style edge logs, Chrome telemetry, an
// extension panel, corporate and national DNS resolvers, a backlink
// crawl), reconstructs the seven top lists the paper evaluates (Alexa,
// Umbrella, Majestic, Secrank, Tranco, Trexa, CrUX), and regenerates every
// table and figure of the paper's evaluation.
//
// Basic use:
//
//	study, err := toplists.Run(toplists.Config{Seed: 1, Sites: 10000,
//		Clients: 2000, Days: 14})
//	if err != nil { ... }
//	defer study.Close()
//	res, err := study.Experiment("fig2")
//	res.Render(os.Stdout)
//
// Run is a thin client of the incremental day lifecycle in internal/core:
// it advances the study one simulated day at a time until the window is
// exhausted, then finalizes. The same lifecycle powers cmd/toplistsd,
// which advances days on demand over HTTP and checkpoints/resumes the
// study byte-identically (see DESIGN.md, "Resident service & snapshots").
package toplists

import (
	"context"
	"fmt"
	"io"
	"sort"

	"toplists/internal/core"
	"toplists/internal/experiments"
	"toplists/internal/obs"
	"toplists/internal/sketch"
)

// Config parameterizes a study run. Zero fields take defaults sized for a
// laptop-scale run.
type Config struct {
	// Seed makes the whole study reproducible.
	Seed uint64
	// Sites is the number of websites in the synthetic universe.
	Sites int
	// Clients is the simulated browsing population.
	Clients int
	// Days is the measurement window (the paper uses the 28 days of
	// February 2022).
	Days int
	// AllCombos tracks all 21 Cloudflare filter-aggregation combinations,
	// required by the fig8 experiment (the seven canonical metrics are
	// always tracked).
	AllCombos bool
	// Workers is the number of goroutines simulating clients within each
	// day, and also the size of the worker pool RenderAll and
	// RunExperiments evaluate experiments on: 0 uses one per CPU, 1 runs
	// everything on the calling goroutine. Results are bit-identical for
	// every setting — observers see each day's events in client order at
	// every worker count, and evaluation results are emitted in canonical
	// paper order regardless of completion order.
	Workers int
	// FaultRate injects deterministic faults into the virtual probe
	// network at the given rate (0..1); 0 leaves the network pristine.
	// The fault plan is derived from Seed, so runs stay reproducible.
	FaultRate float64
	// Vantages is the number of measurement vantage points (0 or 1 = the
	// single transparent global vantage, the paper's single-edge model;
	// up to world.MaxVantages). Additional vantages are regional: each
	// observes the browsing population through its own country-skewed
	// reachability and keeps its own per-(vantage, backend) edge pipeline
	// and resolver cache. The default output is byte-identical to the
	// pre-vantage model.
	Vantages int
	// Backends is the number of deployed CDN edge backends (0 or 1 = the
	// Cloudflare-style backend only; up to world.NumBackends). Extra
	// backends host a skewed slice of the universe and are measured by
	// the same vantage grid.
	Backends int
	// Sketch switches the aggregation layer to bounded mergeable summaries
	// (count-min, space-saving, HyperLogLog): each traffic shard keeps
	// fixed-size state merged at the day barrier, so peak memory stops
	// scaling with the event volume. Rankings are then approximations with
	// proven error bounds rather than exact; leave it false (the default)
	// for the exact oracle. Output remains deterministic and identical at
	// every Workers setting in both modes.
	Sketch bool
	// Obs, when set, is the telemetry registry the study records into;
	// nil gives the study a private one, reachable via Study.Metrics.
	// Telemetry never changes study output: count-valued metrics are a
	// pure function of the configuration, and timing-valued metrics are
	// excluded from the run report's deterministic subset. The multi-study
	// runners (RunAblations, RunAttack, RunRobustness) give each of their
	// studies a private registry instead.
	Obs *obs.Registry
}

// Validate reports the first invalid Config field as an explicit error.
// Zero fields are valid (they take defaults); out-of-range values are
// rejected here rather than silently clamped downstream. Run and the
// multi-study runners return the same error.
func (cfg Config) Validate() error { return cfg.study().Validate() }

// study converts cfg to the study configuration every entry point builds.
func (cfg Config) study() core.Config {
	return core.Config{
		Seed:           cfg.Seed,
		NumSites:       cfg.Sites,
		NumClients:     cfg.Clients,
		Days:           cfg.Days,
		TrackAllCombos: cfg.AllCombos,
		Workers:        cfg.Workers,
		FaultRate:      cfg.FaultRate,
		Vantages:       cfg.Vantages,
		Backends:       cfg.Backends,
		Sketch:         sketch.Config{Enabled: cfg.Sketch},
		Obs:            cfg.Obs,
	}
}

// fleet is the per-study configuration of the multi-study runners: set
// comparisons at the scaled "10K" magnitude, and a private telemetry
// registry per study.
func (cfg Config) fleet() (core.Config, error) {
	c := cfg.study()
	c.EvalMagIdx = 1
	c.Obs = nil
	return c, c.Validate()
}

// ErrStudyAborted marks a study whose day advancement failed mid-day (a
// canceled context observed inside a day, or a panicking client shard):
// the observers hold a half-fed day, so the study latches and every later
// run attempt returns an error wrapping this sentinel instead of silently
// re-simulating over torn state. Aliased from internal/core so callers of
// this package can errors.Is against it.
var ErrStudyAborted = core.ErrStudyAborted

// Result is one regenerated paper artifact.
type Result interface {
	// ID is the artifact identifier ("fig1".."fig8", "tab1".."tab3").
	ID() string
	// Render writes the artifact as text.
	Render(w io.Writer) error
}

// Experiment describes one available experiment.
type Experiment struct {
	ID   string
	Name string
}

// Experiments lists the available experiments: the paper's artifacts in
// paper order, then the extensions.
func Experiments() []Experiment {
	var out []Experiment
	for _, r := range experiments.All() {
		out = append(out, Experiment{ID: r.ID, Name: r.Name})
	}
	for _, r := range experiments.Extensions() {
		out = append(out, Experiment{ID: r.ID, Name: r.Name})
	}
	return out
}

// Study is a completed simulation ready for evaluation.
type Study struct {
	inner *core.Study
}

// Run builds the universe, simulates the measurement window, and finalizes
// every top list. It is CPU-bound and scales across cores: the simulation
// fans each day's clients out over Config.Workers goroutines (0 = one per
// CPU) with output bit-identical at every worker count. Expect seconds to
// minutes depending on Config.
func Run(cfg Config) (*Study, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run honoring ctx: cancellation mid-simulation returns the
// context's error promptly, with no goroutines left behind.
func RunContext(ctx context.Context, cfg Config) (*Study, error) {
	c := cfg.study()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := core.NewStudy(c)
	if err := s.RunContext(ctx); err != nil {
		return nil, err
	}
	return &Study{inner: s}, nil
}

// Close releases resources (the virtual probe network, if it was started).
func (s *Study) Close() { s.inner.Close() }

// Metrics returns the study's telemetry registry — the one passed as
// Config.Obs, or the private registry the study created. Snapshot it for
// a run report, or hand it to obs.ServeDebug for live inspection.
func (s *Study) Metrics() *obs.Registry { return s.inner.Metrics() }

// Describe summarizes the run.
func (s *Study) Describe() string { return s.inner.Describe() }

// Lists returns the names of the seven evaluated lists in table order.
func (s *Study) Lists() []string {
	var out []string
	for _, l := range s.inner.Lists() {
		out = append(out, l.Name())
	}
	return out
}

// Experiment runs one experiment by ID.
func (s *Study) Experiment(id string) (Result, error) {
	runner, ok := experiments.Lookup(id)
	if !ok {
		return nil, unknownExperiment(id)
	}
	res, err := runner.Run(context.Background(), s.inner)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// unknownExperiment builds the error for an unrecognized ID, advertising
// every ID Lookup accepts: the paper artifacts and the extensions.
func unknownExperiment(id string) error {
	exps := Experiments()
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return fmt.Errorf("toplists: unknown experiment %q (have %v)", id, ids)
}

// ExperimentOutcome pairs an experiment ID with its result or error.
type ExperimentOutcome struct {
	ID     string
	Result Result
	Err    error
}

// RunExperiments executes the named experiments against the study,
// concurrently on a bounded worker pool sized by Config.Workers (0 = one
// per CPU, 1 = serial). Outcomes are returned in input order regardless of
// completion order, and every derived artifact (normalized lists, metric
// rankings, the probed Cloudflare set) is computed at most once across the
// whole batch. An unknown ID fails the call before anything runs.
func (s *Study) RunExperiments(ids []string) ([]ExperimentOutcome, error) {
	return s.RunExperimentsContext(context.Background(), ids)
}

// RunExperimentsContext is RunExperiments honoring ctx: canceled or
// never-launched experiments report the context's error in their outcome
// slot.
func (s *Study) RunExperimentsContext(ctx context.Context, ids []string) ([]ExperimentOutcome, error) {
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		r, ok := experiments.Lookup(id)
		if !ok {
			return nil, unknownExperiment(id)
		}
		runners[i] = r
	}
	outcomes := experiments.RunConcurrent(ctx, s.inner, runners, s.inner.Cfg.Workers)
	out := make([]ExperimentOutcome, len(outcomes))
	for i, oc := range outcomes {
		out[i] = ExperimentOutcome{ID: oc.Runner.ID, Result: oc.Result, Err: oc.Err}
	}
	return out, nil
}

// RunAblations runs the mechanism-ablation study (an extension beyond the
// paper): a baseline plus one full study per disabled mechanism at the
// given configuration, measuring how each planted mechanism drives its
// attributed finding. Expect roughly seven times the cost of Run.
func RunAblations(cfg Config) (Result, error) {
	c, err := cfg.fleet()
	if err != nil {
		return nil, err
	}
	return experiments.RunAblations(c)
}

// RunAttack runs the list-manipulation extension: Sybil machines join the
// Alexa panel and browse one mid-tail target site; the result compares the
// target's achieved rank in Alexa, Tranco, and the Cloudflare truth per
// attacker budget. Cost is (1 + len(budgets)) full studies.
func RunAttack(cfg Config, budgets []int) (Result, error) {
	c, err := cfg.fleet()
	if err != nil {
		return nil, err
	}
	return experiments.RunAttack(c, budgets)
}

// RunRobustness replicates the study's headline numbers over multiple
// seeds (an extension beyond the paper). Cost is len(seeds) full studies.
func RunRobustness(cfg Config, seeds []uint64) (Result, error) {
	c, err := cfg.fleet()
	if err != nil {
		return nil, err
	}
	return experiments.RunRobustness(c, seeds)
}

// RenderAll runs every experiment the study's configuration supports and
// writes the artifacts to w, separated by blank lines. fig8 is skipped with
// a note unless the study was built with AllCombos.
//
// Independent experiments execute concurrently on a bounded worker pool
// sized by Config.Workers (0 = one per CPU, 1 = serial), sharing one
// memoized artifact store; artifacts are emitted in canonical paper order
// regardless of completion order, so the output is byte-identical to a
// serial run.
func (s *Study) RenderAll(w io.Writer) error {
	return s.RenderAllContext(context.Background(), w)
}

// RenderAllContext is RenderAll honoring ctx; cancellation fails the
// first not-yet-rendered experiment with the context's error.
func (s *Study) RenderAllContext(ctx context.Context, w io.Writer) error {
	for _, oc := range experiments.RunConcurrent(ctx, s.inner, experiments.All(), s.inner.Cfg.Workers) {
		if oc.Err != nil {
			if oc.Runner.ID == "fig8" {
				fmt.Fprintf(w, "[%s skipped: %v]\n\n", oc.Runner.ID, oc.Err)
				continue
			}
			return fmt.Errorf("toplists: %s: %w", oc.Runner.ID, oc.Err)
		}
		if err := oc.Result.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
