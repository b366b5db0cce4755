package experiments

import (
	"fmt"
	"io"
	"sync"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
	"toplists/internal/providers"
	"toplists/internal/report"
	"toplists/internal/world"
)

// AblationRow measures one mechanism's contribution to one finding: the
// target metric with the mechanism on (Base) and off (Ablated).
type AblationRow struct {
	// Mechanism names the disabled mechanism.
	Mechanism string
	// Finding names the paper finding the mechanism drives.
	Finding string
	// Metric names the measured quantity.
	Metric  string
	Base    float64
	Ablated float64
	// WantHigher reports the expected direction of Ablated relative to
	// Base (true: removing the mechanism should raise the metric).
	WantHigher bool
}

// AsExpected reports whether the ablation moved the metric in the
// documented direction.
func (r AblationRow) AsExpected() bool {
	if r.WantHigher {
		return r.Ablated > r.Base
	}
	return r.Ablated < r.Base
}

// AblationResult is the mechanism-ablation study: not a paper artifact but
// the validation DESIGN.md promises — each planted mechanism measurably
// produces the finding attributed to it.
type AblationResult struct {
	Rows []AblationRow
	// Scale records the per-study configuration used.
	Scale core.Config
}

// ID implements Result.
func (r *AblationResult) ID() string { return "ablate" }

// RunAblations runs a baseline study plus one study per disabled mechanism
// at the given scale and measures each mechanism's target metric. The scale
// should be small: seven full studies run.
func RunAblations(scale core.Config) (*AblationResult, error) {
	res := &AblationResult{Scale: scale}

	// The seven studies are independent; build them in parallel and read
	// metrics sequentially afterwards.
	ablations := []core.Ablations{
		{},
		{NoPrivateBrowsing: true},
		{NoOpenness: true},
		{NoPanelDistortion: true},
		{NoWorkSkew: true},
		{NoRevisits: true},
		{NoWeightBoost: true},
	}
	studies := make([]*core.Study, len(ablations))
	var wg sync.WaitGroup
	for i, ab := range ablations {
		wg.Add(1)
		go func(i int, ab core.Ablations) {
			defer wg.Done()
			cfg := scale
			cfg.Ablate = ab
			s := core.NewStudy(cfg)
			s.Run()
			studies[i] = s
		}(i, ab)
	}
	wg.Wait()
	base := studies[0]
	defer base.Close()
	build := func(ab core.Ablations) *core.Study {
		for i := range ablations {
			if ablations[i] == ab {
				return studies[i]
			}
		}
		panic("experiments: unknown ablation")
	}

	// Mechanism 1: private browsing drives Alexa's adult under-inclusion.
	{
		ablated := build(core.Ablations{NoPrivateBrowsing: true})
		res.Rows = append(res.Rows, AblationRow{
			Mechanism:  "private browsing",
			Finding:    "Alexa excludes adult sites (Table 3)",
			Metric:     "Alexa adult odds ratio",
			Base:       adultOdds(base, base.Alexa),
			Ablated:    adultOdds(ablated, ablated.Alexa),
			WantHigher: true,
		})
		ablated.Close()
	}

	// Mechanism 2: cross-border closure drives Secrank's global blindness.
	{
		ablated := build(core.Ablations{NoOpenness: true})
		res.Rows = append(res.Rows, AblationRow{
			Mechanism:  "country openness asymmetry",
			Finding:    "Secrank overlaps Cloudflare least (Fig. 2)",
			Metric:     "Secrank mean Jaccard vs CF metrics",
			Base:       meanJaccard(base, "Secrank"),
			Ablated:    meanJaccard(ablated, "Secrank"),
			WantHigher: true,
		})
		ablated.Close()
	}

	// Mechanism 3: panel distortion drives Alexa's rank inflation.
	{
		ablated := build(core.Ablations{NoPanelDistortion: true})
		res.Rows = append(res.Rows, AblationRow{
			Mechanism:  "panel demographic distortion",
			Finding:    "Alexa over-ranks its head (Fig. 5)",
			Metric:     "Alexa overranked % (scaled top-10K)",
			Base:       RunFig5(base).OverrankFor("Alexa", 1).OverrankedPct,
			Ablated:    RunFig5(ablated).OverrankFor("Alexa", 1).OverrankedPct,
			WantHigher: false,
		})
		ablated.Close()
	}

	// Mechanism 4: work-skewed browsing tilts Umbrella's category mix.
	{
		ablated := build(core.Ablations{NoWorkSkew: true})
		res.Rows = append(res.Rows, AblationRow{
			Mechanism:  "workday browsing skew",
			Finding:    "corporate vantage over-includes work categories (§5.2, Table 3)",
			Metric:     "Umbrella business odds ratio",
			Base:       categoryOdds(base, base.Umbrella, world.Business),
			Ablated:    categoryOdds(ablated, ablated.Umbrella, world.Business),
			WantHigher: false,
		})
		ablated.Close()
	}

	// Mechanism 5: revisit loyalty separates counts from visitors.
	{
		ablated := build(core.Ablations{NoRevisits: true})
		res.Rows = append(res.Rows, AblationRow{
			Mechanism:  "within-day revisit loyalty",
			Finding:    "request vs requestor metrics diverge (Fig. 1)",
			Metric:     "Jaccard(all-requests, unique-IPs)",
			Base:       countVsUniqueJaccard(base),
			Ablated:    countVsUniqueJaccard(ablated),
			WantHigher: true,
		})
		ablated.Close()
	}

	// Mechanism 6: category traffic boosts keep adult sites above the
	// CrUX privacy threshold.
	{
		ablated := build(core.Ablations{NoWeightBoost: true})
		res.Rows = append(res.Rows, AblationRow{
			Mechanism:  "category traffic boosts",
			Finding:    "CrUX is the only list accounting for adult sites (Table 3)",
			Metric:     "CrUX adult odds ratio",
			Base:       adultOdds(base, base.Crux),
			Ablated:    adultOdds(ablated, ablated.Crux),
			WantHigher: false,
		})
		ablated.Close()
	}

	return res, nil
}

// adultOdds computes the adult-category inclusion odds ratio for a list.
func adultOdds(s *core.Study, l providers.List) float64 {
	return categoryOdds(s, l, world.Adult)
}

// categoryOdds computes one category's inclusion odds ratio for a list.
func categoryOdds(s *core.Study, l providers.List, cat world.Category) float64 {
	day := evalDay(s)
	art := s.Artifacts()
	cfTop := art.MetricRanking(day, cfmetrics.MAllRequests)
	odds, err := core.CategoryBias(s.World, cfTop, art.Normalized(l, day), s.Bucketer.Magnitudes[2])
	if err != nil {
		return 0
	}
	for _, o := range odds {
		if o.Category == cat {
			return o.OddsRatio
		}
	}
	return 0
}

func meanJaccard(s *core.Study, list string) float64 {
	return RunFig2(s).MeanJaccard(list)
}

// countVsUniqueJaccard returns the Figure 1 cell between all-requests and
// unique-IPs.
func countVsUniqueJaccard(s *core.Study) float64 {
	r := RunFig1(s)
	var i, j int
	for idx, m := range r.Metrics {
		switch m {
		case cfmetrics.MAllRequests:
			i = idx
		case cfmetrics.MUniqueIP:
			j = idx
		}
	}
	return r.Jaccard[i][j]
}

// Render implements Result.
func (r *AblationResult) Render(w io.Writer) error {
	tbl := report.NewTable(
		fmt.Sprintf("Mechanism Ablations (sites=%d clients=%d days=%d)",
			r.Scale.NumSites, r.Scale.NumClients, r.Scale.Days),
		"Mechanism", "Finding", "Metric", "Base", "Ablated", "Direction")
	for _, row := range r.Rows {
		dir := "as expected"
		if !row.AsExpected() {
			dir = "UNEXPECTED"
		}
		tbl.AddRow(row.Mechanism, row.Finding, row.Metric,
			fmt.Sprintf("%.3f", row.Base), fmt.Sprintf("%.3f", row.Ablated), dir)
	}
	return tbl.Render(w)
}
