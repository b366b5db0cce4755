package experiments

import (
	"fmt"
	"io"
	"sync"

	"toplists/internal/core"
	"toplists/internal/report"
	"toplists/internal/stats"
	"toplists/internal/world"
)

// RobustnessResult replicates the study's headline numbers across
// independent seeds — the reproducibility analysis the paper could not run
// (it had one February). Each row is one headline metric; each column one
// replication.
type RobustnessResult struct {
	Seeds   []uint64
	Metrics []string
	// Values[metric][seed].
	Values [][]float64
	Scale  core.Config
}

// ID implements Result.
func (r *RobustnessResult) ID() string { return "robustness" }

// headlineMetricNames lists what RunRobustness measures per seed.
var headlineMetricNames = []string{
	"CrUX mean Jaccard",
	"Umbrella mean Jaccard",
	"Alexa mean Jaccard",
	"Secrank mean Jaccard",
	"metric agreement (min rs)",
	"Alexa overranked % (10K)",
	"CrUX overranked % (10K)",
	"CrUX adult odds ratio",
}

// RunRobustness replicates the headline metrics over the given seeds at the
// given scale. Cost is len(seeds) full studies.
func RunRobustness(scale core.Config, seeds []uint64) (*RobustnessResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: robustness needs at least one seed")
	}
	res := &RobustnessResult{Seeds: seeds, Scale: scale}
	res.Metrics = append(res.Metrics, headlineMetricNames...)
	res.Values = make([][]float64, len(headlineMetricNames))
	for i := range res.Values {
		res.Values[i] = make([]float64, len(seeds))
	}

	// Replications are independent and deterministic per seed; run them in
	// parallel.
	var wg sync.WaitGroup
	for si, seed := range seeds {
		wg.Add(1)
		go func(si int, seed uint64) {
			defer wg.Done()
			cfg := scale
			cfg.Seed = seed
			s := core.NewStudy(cfg)
			s.Run()
			fig2 := RunFig2(s)
			fig5 := RunFig5(s)
			for mi, name := range headlineMetricNames {
				switch name {
				case "CrUX mean Jaccard":
					res.Values[mi][si] = fig2.MeanJaccard("CrUX")
				case "Umbrella mean Jaccard":
					res.Values[mi][si] = fig2.MeanJaccard("Umbrella")
				case "Alexa mean Jaccard":
					res.Values[mi][si] = fig2.MeanJaccard("Alexa")
				case "Secrank mean Jaccard":
					res.Values[mi][si] = fig2.MeanJaccard("Secrank")
				case "metric agreement (min rs)":
					res.Values[mi][si] = fig2.MinMetricAgreement()
				case "Alexa overranked % (10K)":
					res.Values[mi][si] = fig5.OverrankFor("Alexa", 1).OverrankedPct
				case "CrUX overranked % (10K)":
					res.Values[mi][si] = fig5.OverrankFor("CrUX", 1).OverrankedPct
				case "CrUX adult odds ratio":
					res.Values[mi][si] = categoryOdds(s, s.Crux, world.Adult)
				}
			}
			s.Close()
		}(si, seed)
	}
	wg.Wait()
	return res, nil
}

// Row returns one metric's per-seed values.
func (r *RobustnessResult) Row(metric string) []float64 {
	for i, m := range r.Metrics {
		if m == metric {
			return r.Values[i]
		}
	}
	return nil
}

// Render implements Result.
func (r *RobustnessResult) Render(w io.Writer) error {
	tbl := report.NewTable(
		fmt.Sprintf("Headline Robustness Across %d Seeds (extension; sites=%d clients=%d days=%d)",
			len(r.Seeds), r.Scale.NumSites, r.Scale.NumClients, r.Scale.Days),
		"Metric", "Mean", "StdDev", "Min", "Max")
	for i, m := range r.Metrics {
		vals := r.Values[i]
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		tbl.AddRow(m,
			fmt.Sprintf("%.3f", stats.Mean(vals)),
			fmt.Sprintf("%.3f", stats.StdDev(vals)),
			fmt.Sprintf("%.3f", lo),
			fmt.Sprintf("%.3f", hi))
	}
	return tbl.Render(w)
}
