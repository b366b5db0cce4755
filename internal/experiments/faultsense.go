package experiments

import (
	"context"
	"fmt"
	"io"
	"maps"
	"time"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
	"toplists/internal/faults"
	"toplists/internal/httpsim"
	"toplists/internal/names"
	"toplists/internal/report"
)

// faultSenseRates are the injected fault rates the ablation sweeps: the
// clean baseline, routine background weather, a bad measurement day, and
// a pathological outage.
var faultSenseRates = []float64{0, 0.01, 0.05, 0.20}

// faultSenseMaxHosts caps the probed universe so the sweep's HTTP work
// stays bounded on large studies; the cap keeps the head of the site
// table, which is where the evaluation's CF filtering matters.
const faultSenseMaxHosts = 1500

// faultSenseDays matches the core probe sweep's retry-on-next-day budget.
const faultSenseDays = 3

// FaultSenseRow is the sweep's outcome at one injected fault rate, for
// one prober discipline.
type FaultSenseRow struct {
	Rate float64
	// Naive is the single-shot prober (one round, any response
	// classifies, exhausted conflated with down); Resilient is the
	// hardened retry-and-sweep prober.
	Naive, Resilient FaultSenseCell
}

// FaultSenseCell compares one prober's probed CF set against the world's
// server-side truth over the probed hosts.
type FaultSenseCell struct {
	// CF is the size of the probed Cloudflare set.
	CF int
	// Missed is how many truly Cloudflare-served hosts the probe lost
	// (false negatives); False is how many it wrongly included.
	Missed, False int
	// Jaccard is the probed set's Jaccard index against the truth set —
	// 1.0 means the fault weather did not move the filter at all.
	Jaccard float64
	// EvalJaccard is the fig2-style list-vs-metric Jaccard computed with
	// this probed set standing in for the CF filter; compare against
	// FaultSenseResult.TruthEvalJaccard to see how probe faults propagate
	// into the paper's headline comparison.
	EvalJaccard float64
}

// FaultSenseResult is the fault-sensitivity ablation (an extension beyond
// the paper): the same CF-filter probe run under increasing deterministic
// fault rates, once with a naive single-shot prober and once with the
// hardened prober, against the world's ground truth.
type FaultSenseResult struct {
	Hosts   int
	TruthCF int
	// TruthEvalJaccard is the list-vs-metric Jaccard under the true CF
	// set — the drift-free reference for every cell's EvalJaccard.
	TruthEvalJaccard float64
	Rows             []FaultSenseRow
}

// ID implements Result.
func (r *FaultSenseResult) ID() string { return "faultsense" }

// RunFaultSense runs the sweep over one virtual network of its own (the
// shared study network keeps the study's configured weather), installing
// each rate's plan in turn, seeded from the study's fault seed so the
// sweep is as reproducible as the study itself.
//
// Only what the weather can change is probed. The 0% rows are the
// fault-free verdicts: when the study network has no fault plan they are
// read from the study's probe table (Artifacts.CFDomains), otherwise both
// disciplines probe every host on the clean sweep network. At a nonzero
// rate, a host whose first attempt no fault touches
// (httpsim.Network.FaultTouches) classifies on that attempt, as it does at
// 0%, so it keeps its 0% verdict under both disciplines. Only the touched
// hosts are probed, over real net/http. That is exact because breakers
// are per host and every fault roll is a pure function of (seed, host,
// day, attempt): a touched host meets the same weather alone as it would
// among all the others.
func RunFaultSense(ctx context.Context, s *core.Study) (Result, error) {
	fs := newFaultSense(s)
	n := fs.network()
	defer n.Close()

	// Probe the touched hosts first: that needs nothing from the study's
	// probe table, so it never waits behind another experiment's sweep.
	type pass struct {
		touched          []string
		naive, resilient map[string]struct{}
	}
	passes := make([]pass, len(faultSenseRates))
	for i, rate := range faultSenseRates {
		if rate == 0 {
			continue
		}
		n.SetFaultPlan(&faults.Plan{Seed: s.FaultSeed(), Rate: rate})
		var touched []string
		for _, h := range fs.hosts {
			if n.FaultTouches(h) {
				touched = append(touched, h)
			}
		}
		naive, resilient, err := probeBoth(ctx, n, touched)
		if err != nil {
			return nil, err
		}
		passes[i] = pass{touched, naive, resilient}
	}

	var baseNaive, baseResilient map[string]struct{}
	if s.FaultPlan() == nil {
		// The study network is the fault-free network, and its probe
		// table holds every site domain's verdict on it.
		if err := s.Artifacts().ProbeCF(ctx); err != nil {
			return nil, err
		}
		cf := s.Artifacts().CFDomains()
		baseNaive = make(map[string]struct{})
		for _, h := range fs.hosts {
			if _, ok := cf[h]; ok {
				baseNaive[h] = struct{}{}
			}
		}
		baseResilient = baseNaive
	} else {
		n.SetFaultPlan(nil)
		var err error
		if baseNaive, baseResilient, err = probeBoth(ctx, n, fs.hosts); err != nil {
			return nil, err
		}
	}

	res := fs.result()
	for i, rate := range faultSenseRates {
		naive, resilient := baseNaive, baseResilient
		if p := passes[i]; rate > 0 {
			naive = overlay(baseNaive, p.touched, p.naive)
			resilient = overlay(baseResilient, p.touched, p.resilient)
		}
		res.Rows = append(res.Rows, fs.row(rate, naive, resilient))
	}
	return res, nil
}

// faultSense is the sweep's fixed frame: the probed universe, its
// server-side truth, and the ranking-drift probe.
type faultSense struct {
	s     *core.Study
	hosts []string
	truth map[string]struct{}
	// evalWith is the ranking-drift probe: one representative exact-rank
	// list against one canonical metric on the evaluation day,
	// re-filtered by a probed set. It uses only probe-independent
	// artifacts, so it never races the shared study network.
	evalWith func(map[string]struct{}) float64
}

func newFaultSense(s *core.Study) *faultSense {
	w := s.World
	nHosts := min(w.NumSites(), faultSenseMaxHosts)
	fs := &faultSense{s: s, hosts: make([]string, nHosts), truth: make(map[string]struct{})}
	for i := range fs.hosts {
		site := w.Site(int32(i))
		fs.hosts[i] = site.Domain
		if site.Cloudflare() {
			fs.truth[site.Domain] = struct{}{}
		}
	}
	day := evalDay(s)
	l := s.RankedLists()[0]
	m := cfmetrics.AllMetrics()[0]
	norm := s.Artifacts().Normalized(l, day)
	cfRank := s.Artifacts().MetricRanking(day, m)
	tab := s.Names()
	fs.evalWith = func(set map[string]struct{}) float64 {
		return core.EvalListVsMetric(norm, interned(tab, set), cfRank, s.EvalK(), l.Bucketed()).Jaccard
	}
	return fs
}

// network starts a fault-free network over the study's world. Switching
// its plan between passes is safe: a pass ends when every probe has its
// verdict, and a server handler still finishing a request its client gave
// up on writes to a closed pipe.
func (fs *faultSense) network() *httpsim.Network {
	n := httpsim.NewNetwork()
	n.AddWorld(fs.s.World)
	n.Start()
	return n
}

// result returns the sweep's header, with no rows yet.
func (fs *faultSense) result() *FaultSenseResult {
	return &FaultSenseResult{
		Hosts:            len(fs.hosts),
		TruthCF:          len(fs.truth),
		TruthEvalJaccard: fs.evalWith(fs.truth),
	}
}

// row scores both disciplines' probed CF sets at one rate.
func (fs *faultSense) row(rate float64, naive, resilient map[string]struct{}) FaultSenseRow {
	cell := func(set map[string]struct{}) FaultSenseCell {
		c := scoreCFSet(set, fs.truth)
		c.EvalJaccard = fs.evalWith(set)
		return c
	}
	return FaultSenseRow{Rate: rate, Naive: cell(naive), Resilient: cell(resilient)}
}

// probeBoth probes hosts over n, under whatever plan it carries, with both
// prober disciplines and returns their CF sets: the single-shot prober in
// one pass, the hardened one over the core sweep's retry-on-next-day
// budget.
func probeBoth(ctx context.Context, n *httpsim.Network, hosts []string) (naive, resilient map[string]struct{}, err error) {
	np := httpsim.NewProber(n.Client())
	np.Concurrency = 64
	np.SingleShot = true
	np.AttemptTimeout = 10 * time.Second
	naive = np.CloudflareSet(ctx, hosts)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	rp := httpsim.NewProber(n.Client())
	rp.Concurrency = 64
	rp.AttemptTimeout = 10 * time.Second
	rp.BackoffBase = 200 * time.Microsecond
	resilient = make(map[string]struct{})
	pending := hosts
	for day := 0; day < faultSenseDays && len(pending) > 0; day++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		rp.Day = day
		rp.ResetBreakers()
		var unknown []string
		for _, r := range rp.ProbeAll(ctx, pending) {
			switch {
			case r.Outcome == httpsim.OutcomeUnknown:
				unknown = append(unknown, r.Host)
			case r.Cloudflare:
				resilient[r.Host] = struct{}{}
			}
		}
		pending = unknown
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return naive, resilient, nil
}

// overlay returns base with every touched host's verdict replaced by the
// probed one: a touched host is in the result exactly when it is in
// probed.
func overlay(base map[string]struct{}, touched []string, probed map[string]struct{}) map[string]struct{} {
	out := maps.Clone(base)
	for _, h := range touched {
		delete(out, h)
	}
	maps.Copy(out, probed)
	return out
}

// scoreCFSet compares a probed CF set against the truth set.
func scoreCFSet(probed, truth map[string]struct{}) FaultSenseCell {
	c := FaultSenseCell{CF: len(probed)}
	inter := 0
	for h := range truth {
		if _, ok := probed[h]; ok {
			inter++
		} else {
			c.Missed++
		}
	}
	for h := range probed {
		if _, ok := truth[h]; !ok {
			c.False++
		}
	}
	union := len(truth) + len(probed) - inter
	if union > 0 {
		c.Jaccard = float64(inter) / float64(union)
	} else {
		c.Jaccard = 1
	}
	return c
}

// Recovery returns the fraction of truly Cloudflare-served hosts a cell's
// probe recovered, in [0, 1].
func (r *FaultSenseResult) Recovery(c FaultSenseCell) float64 {
	if r.TruthCF == 0 {
		return 1
	}
	return float64(r.TruthCF-c.Missed) / float64(r.TruthCF)
}

// RowAt returns the sweep row for a rate.
func (r *FaultSenseResult) RowAt(rate float64) (FaultSenseRow, bool) {
	for _, row := range r.Rows {
		if row.Rate == rate {
			return row, true
		}
	}
	return FaultSenseRow{}, false
}

// interned converts a string-keyed domain set to a bitset over the name
// table; names outside the table (impossible for probed site domains) are
// dropped.
func interned(tab *names.Table, set map[string]struct{}) *names.Set {
	ids := make([]names.ID, 0, len(set))
	for name := range set {
		if id, ok := tab.Find(name); ok {
			ids = append(ids, id)
		}
	}
	return names.NewSet(ids)
}

// Render implements Result.
func (r *FaultSenseResult) Render(w io.Writer) error {
	tbl := report.NewTable(
		fmt.Sprintf("Fault sensitivity of the Cloudflare filter (%d hosts, %d truly CF, truth eval JJ %.3f)",
			r.Hosts, r.TruthCF, r.TruthEvalJaccard),
		"Fault rate", "Prober", "|CF set|", "Missed", "False", "Set JJ", "Recovery", "Eval drift")
	for _, row := range r.Rows {
		for _, side := range []struct {
			name string
			cell FaultSenseCell
		}{{"single-shot", row.Naive}, {"resilient", row.Resilient}} {
			drift := side.cell.EvalJaccard - r.TruthEvalJaccard
			if drift < 0 {
				drift = -drift
			}
			tbl.AddRow(
				fmt.Sprintf("%.0f%%", row.Rate*100),
				side.name,
				fmt.Sprintf("%d", side.cell.CF),
				fmt.Sprintf("%d", side.cell.Missed),
				fmt.Sprintf("%d", side.cell.False),
				fmt.Sprintf("%.3f", side.cell.Jaccard),
				fmt.Sprintf("%.1f%%", 100*r.Recovery(side.cell)),
				fmt.Sprintf("%.3f", drift),
			)
		}
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "Single-shot probing conflates transient failure with absence; the"+
		" hardened prober retries with fresh fault-plan coordinates across virtual days.")
	return err
}
