package experiments

import (
	"context"
	"fmt"
	"io"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
	"toplists/internal/names"
	"toplists/internal/rank"
	"toplists/internal/report"
	"toplists/internal/world"
)

// VantageEdge is the disagreement profile of one (vantage, backend) edge
// pipeline against the ground truth its backend could have observed.
type VantageEdge struct {
	Vantage string
	Backend string
	// Ranked is the number of sites the edge's monthly list ranks.
	Ranked int
	// Jaccard compares the edge's monthly top-K against the backend-
	// restricted ground-truth top-K.
	Jaccard float64
	// Spearman correlates shared top-K ranks against the same truth;
	// valid only if SpearmanOK.
	Spearman   float64
	SpearmanOK bool
	// MovedShare is the fraction of backend-served domains (bucketed by
	// ground-truth rank magnitude) the edge places in a different
	// magnitude bucket — the per-vantage Figure 5 headline number.
	MovedShare float64
	// HomeShare is the fraction of the edge's top-K homed in the
	// vantage's own country; HomeBias is that share divided by the
	// transparent global vantage's share for the same country and
	// backend (1 = no home-country bias, >1 = over-represents home).
	HomeShare float64
	HomeBias  float64
}

// VantagesResult is the multi-vantage disagreement analysis: how much the
// measured popularity ranking depends on where you measure from.
type VantagesResult struct {
	Vantages []string
	Backends []string
	// Edges holds one profile per (vantage, backend), vantage-major.
	Edges []VantageEdge
	// Divergence[i][j] is the Jaccard similarity between vantage i's and
	// vantage j's monthly top-K on the primary (Cloudflare-style)
	// backend — the cross-vantage rank divergence matrix.
	Divergence [][]float64
	TopK       int
	Metric     string
}

// ID implements Result.
func (r *VantagesResult) ID() string { return "vantages" }

// RunVantages computes the per-vantage disagreement analysis from the
// study's edge pipeline grid. With the default single transparent vantage
// the result degenerates to a one-row table with zero divergence, which is
// exactly the single-edge model's claim.
func RunVantages(ctx context.Context, s *core.Study) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	art := s.Artifacts()
	w := s.World
	k := s.EvalK()
	truth := w.TrueRank()
	metric := cfmetrics.MAllRequests

	res := &VantagesResult{TopK: k, Metric: metric.String()}
	for _, v := range s.Vantages() {
		res.Vantages = append(res.Vantages, v.Name)
	}
	for _, b := range s.Backends() {
		res.Backends = append(res.Backends, b.String())
	}

	// Ground truth per backend: the true global ranking restricted to the
	// sites that serve any traffic through that backend — what a perfect,
	// loss-free observer of the backend's edge would rank.
	truthOn := make([]*rank.Ranking, len(s.Backends()))
	onSets := make([]*names.Set, len(s.Backends()))
	for bi, b := range s.Backends() {
		ids := make([]names.ID, 0, w.NumSites())
		for i := 0; i < w.NumSites(); i++ {
			if w.Site(int32(i)).OnBackend(b) {
				ids = append(ids, w.DomainID(int32(i)))
			}
		}
		onSets[bi] = names.NewSet(ids)
		truthOn[bi] = truth.FilterIDs(onSets[bi].Contains)
	}

	homeShare := func(r *rank.Ranking, home world.Country) float64 {
		top := r.Top(k)
		if top.Len() == 0 {
			return 0
		}
		var n int
		for i := 1; i <= top.Len(); i++ {
			if id, ok := w.ByDomain(top.At(i)); ok && w.Site(id).Home == home {
				n++
			}
		}
		return float64(n) / float64(top.Len())
	}

	for vi, v := range s.Vantages() {
		for bi := range s.Backends() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			monthly := art.EdgeMonthlyMetric(vi, bi, metric)
			edge := VantageEdge{
				Vantage: v.Name,
				Backend: res.Backends[bi],
				Ranked:  monthly.Len(),
				Jaccard: core.JaccardTopK(monthly, truthOn[bi], k),
			}
			if rs, shared, err := core.SpearmanTopK(monthly, truthOn[bi], k); err == nil && shared > 2 {
				edge.Spearman, edge.SpearmanOK = rs, true
			}

			// Bucket the backend's domains by true rank magnitude and count
			// how many the edge's view moves to a different magnitude.
			agreed := make(map[names.ID]rank.Bucket)
			for i := 1; i <= truthOn[bi].Len(); i++ {
				if b := s.Bucketer.BucketOf(i); b != rank.BucketBeyond {
					agreed[truthOn[bi].IDAt(i)] = b
				}
			}
			mv := core.ComputeMovement(agreed, monthly, s.Bucketer)
			var stayed, total int
			for a := 0; a < rank.NumBuckets; a++ {
				for b := 0; b < rank.NumBuckets; b++ {
					total += mv.Matrix[a][b]
					if a == b {
						stayed += mv.Matrix[a][b]
					}
				}
			}
			if total > 0 {
				edge.MovedShare = 1 - float64(stayed)/float64(total)
			}

			edge.HomeShare = homeShare(monthly, v.Country)
			if base := homeShare(art.EdgeMonthlyMetric(0, bi, metric), v.Country); base > 0 {
				edge.HomeBias = edge.HomeShare / base
			}
			res.Edges = append(res.Edges, edge)
		}
	}

	res.Divergence = newMatrix(len(res.Vantages))
	for i := range res.Vantages {
		for j := range res.Vantages {
			a := art.EdgeMonthlyMetric(i, 0, metric)
			b := art.EdgeMonthlyMetric(j, 0, metric)
			res.Divergence[i][j] = core.JaccardTopK(a, b, k)
		}
	}
	return res, nil
}

// EdgeFor returns the profile of one (vantage, backend) edge.
func (r *VantagesResult) EdgeFor(vantage, backend string) (VantageEdge, bool) {
	for _, e := range r.Edges {
		if e.Vantage == vantage && e.Backend == backend {
			return e, true
		}
	}
	return VantageEdge{}, false
}

// MinDivergence returns the smallest cross-vantage Jaccard — the worst
// pairwise disagreement between vantages on the primary backend.
func (r *VantagesResult) MinDivergence() float64 {
	min := 1.0
	for i := range r.Divergence {
		for j := range r.Divergence {
			if i != j && r.Divergence[i][j] < min {
				min = r.Divergence[i][j]
			}
		}
	}
	return min
}

// Render implements Result.
func (r *VantagesResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Vantage disagreement: %s, top-%d (%d vantages x %d backends)\n\n",
		r.Metric, r.TopK, len(r.Vantages), len(r.Backends))

	t := report.NewTable("Per-edge view vs backend ground truth",
		"Vantage", "Backend", "Ranked", "Jaccard", "Spearman", "Moved", "HomeShare", "HomeBias")
	for _, e := range r.Edges {
		sp := "n/a"
		if e.SpearmanOK {
			sp = fmt.Sprintf("%.3f", e.Spearman)
		}
		t.AddRow(e.Vantage, e.Backend, fmt.Sprintf("%d", e.Ranked),
			fmt.Sprintf("%.3f", e.Jaccard), sp, fmt.Sprintf("%.3f", e.MovedShare),
			fmt.Sprintf("%.3f", e.HomeShare), fmt.Sprintf("%.2f", e.HomeBias))
	}
	if err := t.Render(w); err != nil {
		return err
	}

	m := report.NewTable("Cross-vantage rank divergence (Jaccard of monthly top-K, cdnflare backend)",
		append([]string{"Vantage"}, r.Vantages...)...)
	for i, v := range r.Vantages {
		row := []string{v}
		for j := range r.Vantages {
			row = append(row, fmt.Sprintf("%.3f", r.Divergence[i][j]))
		}
		m.AddRow(row...)
	}
	return m.Render(w)
}
