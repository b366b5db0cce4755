package core

import (
	"math"
	"toplists/internal/rank"
	"toplists/internal/stats"
	"toplists/internal/world"
)

// CategoryOdds is one Table 3 cell: the odds that a category's websites are
// included by a top list, relative to all other categories.
type CategoryOdds struct {
	Category world.Category
	// OddsRatio is exp(beta) of a univariate logistic regression of list
	// inclusion on category membership.
	OddsRatio float64
	// PValue is the Bonferroni-adjusted Wald p-value (x NumCategories).
	PValue float64
	// Significant reports p < 0.01 after the correction, the paper's bar.
	Significant bool
	// Included/Excluded are the raw contingency counts for the category.
	Included, Excluded int
}

// CategoryBias runs the Section 6.4 analysis for one list: the universe is
// the Cloudflare top-K domains (by the all-requests metric on the chosen
// day), the outcome is membership in the list, and each category is
// regressed against all other domains as control. Both rankings must be
// ranked over the world's name table.
func CategoryBias(w *world.World, cfTop *rank.Ranking, list *rank.Ranking, topK int) ([]CategoryOdds, error) {
	mustShareTable("CategoryBias", cfTop.Table(), w.Interner())
	mustShareTable("CategoryBias", list.Table(), w.Interner())
	universe := cfTop.Top(topK)
	n := universe.Len()
	cats := make([]world.Category, n)
	included := make([]bool, n)
	// Site domains are interned in true-rank order, so a universe entry's
	// ID resolves to its site without touching the name string.
	for i := 1; i <= n; i++ {
		id := universe.IDAt(i)
		site, ok := w.SiteOfID(id)
		if !ok {
			continue
		}
		cats[i-1] = w.Site(site).Category
		included[i-1] = list.ContainsID(id)
	}

	out := make([]CategoryOdds, 0, world.NumCategories)
	feat := make([][]float64, n)
	for i := range feat {
		feat[i] = []float64{0}
	}
	for _, cat := range world.AllCategories() {
		var a, b, c, d int // exposed-in, exposed-out, control-in, control-out
		for i := 0; i < n; i++ {
			exposed := cats[i] == cat
			feat[i][0] = 0
			if exposed {
				feat[i][0] = 1
			}
			switch {
			case exposed && included[i]:
				a++
			case exposed && !included[i]:
				b++
			case included[i]:
				c++
			default:
				d++
			}
		}
		odds := CategoryOdds{Category: cat, Included: a, Excluded: b}
		switch {
		case a+b == 0:
			// No sites of this category in the universe; report a neutral,
			// insignificant row.
			odds.OddsRatio = 1
			odds.PValue = 1
		case a == 0 || b == 0 || c == 0 || d == 0:
			// Perfect separation: IRLS diverges, so use the
			// Haldane-Anscombe-corrected 2x2 odds ratio with its Wald
			// standard error instead.
			odds.OddsRatio = stats.OddsRatio2x2(a, b, c, d)
			se := math.Sqrt(1/(float64(a)+0.5) + 1/(float64(b)+0.5) +
				1/(float64(c)+0.5) + 1/(float64(d)+0.5))
			z := math.Log(odds.OddsRatio) / se
			odds.PValue = stats.Bonferroni(stats.TwoSidedP(z), world.NumCategories)
			odds.Significant = odds.PValue < 0.01
		default:
			res, err := stats.Logit(feat, included)
			if err != nil {
				odds.OddsRatio = stats.OddsRatio2x2(a, b, c, d)
				odds.PValue = 1
				break
			}
			odds.OddsRatio = res.OddsRatio(1)
			odds.PValue = stats.Bonferroni(res.PValue(1), world.NumCategories)
			odds.Significant = odds.PValue < 0.01
		}
		out = append(out, odds)
	}
	return out, nil
}

// CellComparison is one (country, platform) comparison of a list against
// Chrome telemetry, used by the platform (Figure 4) and country (Figure 7)
// bias analyses.
type CellComparison struct {
	Country  world.Country
	Platform world.Platform
	Jaccard  float64
	Spearman float64
	// SpearmanOK is false when the intersection was too small.
	SpearmanOK bool
}

// CompareListToChromeCell evaluates a normalized list against the Chrome
// telemetry ranking for one (country, platform) cell at magnitude k,
// comparing the list's intersection with the cell's observed domains
// against the cell's own top sites — the same construction as the
// Cloudflare comparison, with Chrome as the reference. Both rankings must
// be ranked over the same name table.
func CompareListToChromeCell(list *rank.Ranking, cell *rank.Ranking, k int) CellComparison {
	mustShareTable("CompareListToChromeCell", list.Table(), cell.Table())
	var out CellComparison
	inCell := list.Top(k).FilterIDs(cell.ContainsID)
	n := inCell.Len()
	if n == 0 {
		return out
	}
	if n > cell.Len() {
		n = cell.Len()
	}
	cellTop := cell.Top(n)
	out.Jaccard = stats.JaccardIDs(inCell.TopSetIDs(n), cellTop.TopSetIDs(n))
	var xs, ys []float64
	for i := 1; i <= inCell.Len(); i++ {
		if r, ok := cellTop.RankOfID(inCell.IDAt(i)); ok {
			xs = append(xs, float64(i))
			ys = append(ys, float64(r))
		}
	}
	if rs, err := stats.Spearman(xs, ys); err == nil {
		out.Spearman = rs
		out.SpearmanOK = true
	}
	return out
}
