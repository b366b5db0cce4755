package experiments

import (
	"fmt"
	"io"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
	"toplists/internal/rank"
	"toplists/internal/report"
)

// Fig5Result holds the rank-magnitude movement analysis (Figure 5 and the
// Section 5.3 headline numbers) for every list, against the set of domains
// the two bookend Cloudflare metrics bucket identically.
type Fig5Result struct {
	Lists []string
	// Movements[list] is the CF-bucket -> list-bucket flow matrix.
	Movements []core.Movement
	// Overrank[list][magIdx] are the overranking stats for the list's
	// (scaled) top-1K and top-10K prefixes (magIdx 0 and 1).
	Overrank [][]core.OverrankStats
	// AgreedCount is the size of the consensus domain set.
	AgreedCount int
	Day         int
}

// ID implements Result.
func (r *Fig5Result) ID() string { return "fig5" }

// RunFig5 computes Figure 5. The Cloudflare consensus buckets come from
// month-aggregated metric lists (reciprocal-rank combination of the daily
// lists, memoized in the artifact store): a single day of simulated traffic
// does not reach deep enough into the tail to bucket it stably, whereas the
// real Cloudflare vantage does.
func RunFig5(s *core.Study) *Fig5Result {
	day := evalDay(s)
	art := s.Artifacts()
	m1 := art.MonthlyMetric(cfmetrics.MAllRequests)
	m3 := art.MonthlyMetric(cfmetrics.MRootRequests)
	agreed := core.AgreedBuckets(m1, m3, s.Bucketer)

	res := &Fig5Result{Day: day, AgreedCount: len(agreed)}
	for _, l := range s.Lists() {
		norm := art.Normalized(l, day)
		res.Lists = append(res.Lists, l.Name())
		res.Movements = append(res.Movements, core.ComputeMovement(agreed, norm, s.Bucketer))
		res.Overrank = append(res.Overrank, []core.OverrankStats{
			core.ComputeOverrank(agreed, norm, s.Bucketer, 0),
			core.ComputeOverrank(agreed, norm, s.Bucketer, 1),
		})
	}
	return res
}

// OverrankFor returns the overrank stats for a list at magnitude index 0
// (top-1K) or 1 (top-10K).
func (r *Fig5Result) OverrankFor(list string, magIdx int) core.OverrankStats {
	for i, n := range r.Lists {
		if n == list {
			return r.Overrank[i][magIdx]
		}
	}
	return core.OverrankStats{}
}

// Render implements Result.
func (r *Fig5Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Figure 5: Rank-Magnitude Movement (consensus set: %d domains, day %d)\n\n",
		r.AgreedCount, r.Day+1)
	labels := bucketLabels()
	for i, list := range r.Lists {
		// The paper draws Alexa and CrUX; all lists are rendered here with
		// the same construction.
		flows := make([][]int, rank.NumBuckets)
		for a := 0; a < rank.NumBuckets; a++ {
			flows[a] = make([]int, rank.NumBuckets)
			for b := 0; b < rank.NumBuckets; b++ {
				flows[a][b] = r.Movements[i].Matrix[a][b]
			}
		}
		sk := &report.Sankey{
			Title:      fmt.Sprintf("Cloudflare -> %s", list),
			FromLabels: labels,
			ToLabels:   labels,
			Flows:      flows,
		}
		if err := sk.Render(w); err != nil {
			return err
		}
		io.WriteString(w, "\n")
	}
	tbl := report.NewTable("Section 5.3: Overranking by List Prefix",
		"List", "top-1K n", "over %", ">=2 mag %", "top-10K n", "over %", ">=2 mag %")
	for i, list := range r.Lists {
		o0, o1 := r.Overrank[i][0], r.Overrank[i][1]
		tbl.AddRow(list,
			itoa(o0.N), fmt.Sprintf("%.1f", o0.OverrankedPct), fmt.Sprintf("%.1f", o0.Overranked2Pct),
			itoa(o1.N), fmt.Sprintf("%.1f", o1.OverrankedPct), fmt.Sprintf("%.1f", o1.Overranked2Pct))
	}
	return tbl.Render(w)
}

func bucketLabels() []string {
	out := make([]string, rank.NumBuckets)
	for b := 0; b < rank.NumBuckets; b++ {
		out[b] = rank.Bucket(b).String()
	}
	return out
}
