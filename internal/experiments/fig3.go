package experiments

import (
	"fmt"
	"io"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
	"toplists/internal/report"
	"toplists/internal/stats"
)

// Fig3Result holds the temporal stability analysis (Figure 3): each list
// evaluated daily against the all-HTTP-requests metric over the month.
type Fig3Result struct {
	Lists   []string
	Days    int
	Weekend []bool
	// Jaccard[list][day] and Spearman[list][day]; SpearmanOK flags CrUX
	// and degenerate days.
	Jaccard    [][]float64
	Spearman   [][]float64
	SpearmanOK [][]bool
	TopK       int
}

// ID implements Result.
func (r *Fig3Result) ID() string { return "fig3" }

// RunFig3 computes Figure 3.
func RunFig3(s *core.Study) *Fig3Result {
	lists := s.Lists()
	k := s.EvalK()
	art := s.Artifacts()
	cfSet := art.CFDomainIDs()
	days := s.Pipeline.NumDays()

	res := &Fig3Result{Days: days, TopK: k}
	for _, l := range lists {
		res.Lists = append(res.Lists, l.Name())
	}
	for d := 0; d < days; d++ {
		res.Weekend = append(res.Weekend, s.Engine.IsWeekend(d))
	}
	res.Jaccard = make([][]float64, len(lists))
	res.Spearman = make([][]float64, len(lists))
	res.SpearmanOK = make([][]bool, len(lists))
	for li, l := range lists {
		res.Jaccard[li] = make([]float64, days)
		res.Spearman[li] = make([]float64, days)
		res.SpearmanOK[li] = make([]bool, days)
		for d := 0; d < days; d++ {
			cf := art.MetricRanking(d, cfmetrics.MAllRequests)
			norm := art.Normalized(l, d)
			ev := core.EvalListVsMetric(norm, cfSet, cf, k, l.Bucketed())
			res.Jaccard[li][d] = ev.Jaccard
			if !l.Bucketed() {
				deep := core.EvalListVsMetric(norm, cfSet, cf, s.SpearmanK(), false)
				res.Spearman[li][d] = deep.Spearman
				res.SpearmanOK[li][d] = deep.SpearmanOK
			}
		}
	}
	return res
}

// WeekdayWeekendSplit returns a list's mean Jaccard and Spearman on
// weekdays vs weekends — the periodicity signal of Section 5.4.
func (r *Fig3Result) WeekdayWeekendSplit(list string) (jjWeekday, jjWeekend, rsWeekday, rsWeekend float64) {
	li := r.listIndex(list)
	if li < 0 {
		return
	}
	var jwd, jwe, rwd, rwe []float64
	for d := 0; d < r.Days; d++ {
		if r.Weekend[d] {
			jwe = append(jwe, r.Jaccard[li][d])
			if r.SpearmanOK[li][d] {
				rwe = append(rwe, r.Spearman[li][d])
			}
		} else {
			jwd = append(jwd, r.Jaccard[li][d])
			if r.SpearmanOK[li][d] {
				rwd = append(rwd, r.Spearman[li][d])
			}
		}
	}
	return stats.Mean(jwd), stats.Mean(jwe), stats.Mean(rwd), stats.Mean(rwe)
}

// LateMonthImprovement returns the change in a list's mean Jaccard from the
// first three weeks to the final week (positive = improved late in the
// month, the paper's Alexa observation).
func (r *Fig3Result) LateMonthImprovement(list string) float64 {
	li := r.listIndex(list)
	if li < 0 || r.Days < 8 {
		return 0
	}
	cut := r.Days - 7
	return stats.Mean(r.Jaccard[li][cut:]) - stats.Mean(r.Jaccard[li][:cut])
}

func (r *Fig3Result) listIndex(list string) int {
	for i, n := range r.Lists {
		if n == list {
			return i
		}
	}
	return -1
}

// Render implements Result.
func (r *Fig3Result) Render(w io.Writer) error {
	tbl := report.NewTable("Figure 3: Daily Correlation vs All-HTTP-Requests (J=Jaccard, S=Spearman)",
		append([]string{"Day"}, doubled(r.Lists)...)...)
	for d := 0; d < r.Days; d++ {
		cells := make([]string, 0, 1+2*len(r.Lists))
		day := fmt.Sprintf("%02d", d+1)
		if r.Weekend[d] {
			day += "*"
		}
		cells = append(cells, day)
		for li := range r.Lists {
			cells = append(cells, fmt.Sprintf("%.3f", r.Jaccard[li][d]))
			if r.SpearmanOK[li][d] {
				cells = append(cells, fmt.Sprintf("%.3f", r.Spearman[li][d]))
			} else {
				cells = append(cells, "-")
			}
		}
		tbl.AddRow(cells...)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	io.WriteString(w, "(* = weekend)\n\nWeekday/weekend split:\n")
	split := report.NewTable("", "List", "JJ weekday", "JJ weekend", "rs weekday", "rs weekend", "late-month dJJ")
	for _, l := range r.Lists {
		jwd, jwe, rwd, rwe := r.WeekdayWeekendSplit(l)
		split.AddRowf(l, fmt.Sprintf("%.3f", jwd), fmt.Sprintf("%.3f", jwe),
			fmt.Sprintf("%.3f", rwd), fmt.Sprintf("%.3f", rwe),
			fmt.Sprintf("%+.3f", r.LateMonthImprovement(l)))
	}
	return split.Render(w)
}

func doubled(lists []string) []string {
	out := make([]string, 0, 2*len(lists))
	for _, l := range lists {
		short := l
		if len(short) > 6 {
			short = short[:6]
		}
		out = append(out, short+" J", short+" S")
	}
	return out
}
