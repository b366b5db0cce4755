package experiments

import (
	"fmt"
	"io"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
	"toplists/internal/report"
	"toplists/internal/stats"
)

// Fig2Result holds the headline evaluation (Figure 2): each top list
// against each of the seven Cloudflare metrics, using the Section 4.3
// methodology, averaged over all days.
type Fig2Result struct {
	Lists   []string
	Metrics []cfmetrics.Metric
	// Cells[list][metric] is the month-averaged comparison.
	Cells [][]core.ListVsMetric
	// MetricAgreement is the pairwise Spearman correlation between the
	// seven metrics' orderings of the lists by Jaccard — the paper's
	// "perfect agreement" finding (rs = 1.0 for all pairs).
	MetricAgreement [][]float64
	TopK            int
}

// ID implements Result.
func (r *Fig2Result) ID() string { return "fig2" }

// RunFig2 computes Figure 2.
func RunFig2(s *core.Study) *Fig2Result {
	lists := s.Lists()
	metrics := cfmetrics.AllMetrics()
	k := s.EvalK()
	art := s.Artifacts()
	cfSet := art.CFDomainIDs()

	res := &Fig2Result{Metrics: metrics, TopK: k}
	for _, l := range lists {
		res.Lists = append(res.Lists, l.Name())
	}
	res.Cells = make([][]core.ListVsMetric, len(lists))

	deepK := s.SpearmanK()
	days := s.Pipeline.NumDays()
	for li, l := range lists {
		res.Cells[li] = make([]core.ListVsMetric, len(metrics))
		for mi, m := range metrics {
			var daily []core.ListVsMetric
			for d := 0; d < days; d++ {
				norm := art.Normalized(l, d)
				cf := art.MetricRanking(d, m)
				// Set intersection is judged at the scarce head cut; rank
				// correlation over the full list depth, where tail noise
				// (alphabetical runs, panel starvation) lives.
				ev := core.EvalListVsMetric(norm, cfSet, cf, k, l.Bucketed())
				if !l.Bucketed() {
					deep := core.EvalListVsMetric(norm, cfSet, cf, deepK, false)
					ev.Spearman, ev.SpearmanOK = deep.Spearman, deep.SpearmanOK
				}
				daily = append(daily, ev)
			}
			res.Cells[li][mi] = core.MeanListVsMetric(daily)
		}
	}
	res.MetricAgreement = metricAgreement(res)
	return res
}

// metricAgreement computes, for each pair of metrics, the Spearman
// correlation between their orderings of the lists by Jaccard index.
func metricAgreement(res *Fig2Result) [][]float64 {
	n := len(res.Metrics)
	perMetric := make([][]float64, n)
	for mi := 0; mi < n; mi++ {
		scores := make([]float64, len(res.Lists))
		for li := range res.Lists {
			scores[li] = res.Cells[li][mi].Jaccard
		}
		perMetric[mi] = scores
	}
	out := newMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rs, err := stats.Spearman(perMetric[i], perMetric[j])
			if err != nil {
				rs = 0
			}
			out[i][j] = rs
		}
	}
	return out
}

// MinMetricAgreement returns the smallest pairwise agreement — 1.0 means
// the metrics rank the lists' accuracy identically.
func (r *Fig2Result) MinMetricAgreement() float64 {
	lo := 1.0
	for i := range r.MetricAgreement {
		for j := range r.MetricAgreement[i] {
			if r.MetricAgreement[i][j] < lo {
				lo = r.MetricAgreement[i][j]
			}
		}
	}
	return lo
}

// JaccardRange returns the min and max Jaccard a list achieves across the
// seven metrics, the form the paper quotes ("CrUX: JJ = 0.23-0.43").
func (r *Fig2Result) JaccardRange(list string) (lo, hi float64) {
	lo, hi = 1, 0
	for li, name := range r.Lists {
		if name != list {
			continue
		}
		for mi := range r.Metrics {
			v := r.Cells[li][mi].Jaccard
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// MeanJaccard returns a list's Jaccard averaged over the seven metrics.
func (r *Fig2Result) MeanJaccard(list string) float64 {
	for li, name := range r.Lists {
		if name != list {
			continue
		}
		var vals []float64
		for mi := range r.Metrics {
			vals = append(vals, r.Cells[li][mi].Jaccard)
		}
		return stats.Mean(vals)
	}
	return 0
}

// MeanSpearman returns a list's Spearman averaged over metrics (NaN-free:
// lists without Spearman return ok=false).
func (r *Fig2Result) MeanSpearman(list string) (float64, bool) {
	for li, name := range r.Lists {
		if name != list {
			continue
		}
		var vals []float64
		for mi := range r.Metrics {
			if r.Cells[li][mi].SpearmanOK {
				vals = append(vals, r.Cells[li][mi].Spearman)
			}
		}
		if len(vals) == 0 {
			return 0, false
		}
		return stats.Mean(vals), true
	}
	return 0, false
}

// Render implements Result.
func (r *Fig2Result) Render(w io.Writer) error {
	cols := make([]string, len(r.Metrics))
	for i, m := range r.Metrics {
		cols[i] = m.String()
	}
	jj := &report.Heatmap{
		Title:     "Figure 2a: Top Lists vs Cloudflare Metrics (Jaccard)",
		RowLabels: r.Lists, ColLabels: shortLabels(cols),
		Values: make([][]float64, len(r.Lists)),
	}
	rs := &report.Heatmap{
		Title:     "Figure 2b: Top Lists vs Cloudflare Metrics (Spearman)",
		RowLabels: r.Lists, ColLabels: shortLabels(cols),
		Values:  make([][]float64, len(r.Lists)),
		Missing: make([][]bool, len(r.Lists)),
	}
	for li := range r.Lists {
		jj.Values[li] = make([]float64, len(r.Metrics))
		rs.Values[li] = make([]float64, len(r.Metrics))
		rs.Missing[li] = make([]bool, len(r.Metrics))
		for mi := range r.Metrics {
			jj.Values[li][mi] = r.Cells[li][mi].Jaccard
			rs.Values[li][mi] = r.Cells[li][mi].Spearman
			rs.Missing[li][mi] = !r.Cells[li][mi].SpearmanOK
		}
	}
	if err := jj.Render(w); err != nil {
		return err
	}
	io.WriteString(w, "\n")
	if err := rs.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nMinimum pairwise metric agreement on list ordering (Spearman): %.2f\n",
		r.MinMetricAgreement())
	return nil
}
