package experiments

import (
	"context"
	"fmt"
	"io"
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

// RunFaultSense runs the sweep. Each rate gets its own virtual network
// (the shared study network keeps the study's configured weather), seeded
// from the study's fault seed so the sweep is as reproducible as the
// study itself.
func RunFaultSense(ctx context.Context, s *core.Study) (Result, error) {
	w := s.World
	nHosts := w.NumSites()
	if nHosts > faultSenseMaxHosts {
		nHosts = faultSenseMaxHosts
	}
	hosts := make([]string, nHosts)
	truth := make(map[string]struct{})
	for i := 0; i < nHosts; i++ {
		site := w.Site(int32(i))
		hosts[i] = site.Domain
		if site.Cloudflare() {
			truth[site.Domain] = struct{}{}
		}
	}

	// The ranking-drift probe: one representative exact-rank list against
	// one canonical metric on the evaluation day, re-filtered by each
	// probed set. Uses only probe-independent artifacts, so it never races
	// the shared study network.
	day := evalDay(s)
	l := s.RankedLists()[0]
	m := cfmetrics.AllMetrics()[0]
	norm := s.Artifacts().Normalized(l, day)
	cfRank := s.Artifacts().MetricRanking(day, m)
	tab := s.Names()
	evalWith := func(set map[string]struct{}) float64 {
		return core.EvalListVsMetric(norm, interned(tab, set), cfRank, s.EvalK(), l.Bucketed()).Jaccard
	}

	res := &FaultSenseResult{
		Hosts:            nHosts,
		TruthCF:          len(truth),
		TruthEvalJaccard: evalWith(truth),
	}
	for _, rate := range faultSenseRates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row, err := faultSenseAtRate(ctx, s, hosts, truth, rate, evalWith)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// faultSenseAtRate probes hosts over a fresh network at one fault rate
// with both prober disciplines.
func faultSenseAtRate(ctx context.Context, s *core.Study, hosts []string,
	truth map[string]struct{}, rate float64, evalWith func(map[string]struct{}) float64) (FaultSenseRow, error) {
	n := httpsim.NewNetwork()
	n.AddWorld(s.World)
	if rate > 0 {
		n.SetFaultPlan(&faults.Plan{Seed: s.FaultSeed(), Rate: rate})
	}
	n.Start()
	defer n.Close()

	row := FaultSenseRow{Rate: rate}

	naive := httpsim.NewProber(n.Client())
	naive.Concurrency = 64
	naive.SingleShot = true
	naive.AttemptTimeout = 10 * time.Second
	naiveCF := make(map[string]struct{})
	for _, r := range naive.ProbeAll(ctx, hosts) {
		if r.Cloudflare {
			naiveCF[r.Host] = struct{}{}
		}
	}
	if err := ctx.Err(); err != nil {
		return row, err
	}
	row.Naive = scoreCFSet(naiveCF, truth)
	row.Naive.EvalJaccard = evalWith(naiveCF)

	resilient := httpsim.NewProber(n.Client())
	resilient.Concurrency = 64
	resilient.AttemptTimeout = 10 * time.Second
	resilient.BackoffBase = 200 * time.Microsecond
	resilientCF := make(map[string]struct{})
	pending := hosts
	for day := 0; day < faultSenseDays && len(pending) > 0; day++ {
		if err := ctx.Err(); err != nil {
			return row, err
		}
		resilient.Day = day
		resilient.ResetBreakers()
		var unknown []string
		for _, r := range resilient.ProbeAll(ctx, pending) {
			switch {
			case r.Outcome == httpsim.OutcomeUnknown:
				unknown = append(unknown, r.Host)
			case r.Cloudflare:
				resilientCF[r.Host] = struct{}{}
			}
		}
		pending = unknown
	}
	if err := ctx.Err(); err != nil {
		return row, err
	}
	row.Resilient = scoreCFSet(resilientCF, truth)
	row.Resilient.EvalJaccard = evalWith(resilientCF)
	return row, nil
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
