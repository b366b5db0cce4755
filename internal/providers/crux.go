package providers

import (
	"strings"

	"toplists/internal/chrome"
	"toplists/internal/names"
	"toplists/internal/rank"
)

// Crux wraps the public Chrome User Experience Report dataset (Section 2):
// monthly, keyed by web origin, ranked by completed page loads, published
// as rank-order-magnitude buckets only. The same monthly list is returned
// for every day of the month, matching how the real dataset updates.
type Crux struct {
	// origins is the month's origin ranking in the dataset's internal
	// completed-page-load order.
	origins *rank.Ranking
	norm    monthNorm
}

// NewCrux derives the month's public CrUX list from telemetry. minVisitors
// is the per-country privacy threshold.
func NewCrux(t *chrome.Telemetry, minVisitors int) *Crux {
	return &Crux{origins: t.DeriveCrux(minVisitors)}
}

// Name implements List.
func (c *Crux) Name() string { return "CrUX" }

// Bucketed implements List: CrUX publishes rank magnitudes, not ranks, so
// Spearman correlation cannot be computed against it (Section 4.4).
func (c *Crux) Bucketed() bool { return true }

// Raw implements List: entries are origins in the dataset's internal order.
func (c *Crux) Raw(day int) *rank.Ranking { return c.origins }

// Normalized implements List: origins are stripped to their host and
// grouped by registrable domain with min-rank (Section 4.2). An entry
// deviates from the PSL form when its host is not itself a registrable
// domain (scheme differences alone do not count as deviation). Origin
// hosts are not themselves ranked names, so each host is interned and its
// apex resolved through the normalizer's per-ID cache. The list is
// month-stable, so the grouping runs once and is shared by every day.
func (c *Crux) Normalized(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	return c.norm.get(nz, func() (*rank.Ranking, rank.NormalizeStats) {
		return c.normalize(nz)
	})
}

// normalize groups origins by the registrable domain of their host, keyed
// by interned ID on the origins' table, ordered by minimum origin rank.
func (c *Crux) normalize(nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	raw := c.origins
	tab := raw.Table()
	if nz.Table() != tab {
		panic("providers: CrUX normalizer bound to a different table")
	}
	stats := rank.NormalizeStats{Entries: raw.Len()}
	minRank := make(map[names.ID]int, raw.Len())
	for i := 1; i <= raw.Len(); i++ {
		host := tab.Intern(hostOfOrigin(raw.At(i)))
		apex, ok := nz.Apex(host)
		if !ok {
			stats.Dropped++
			stats.Deviating++
			continue
		}
		if apex != host {
			stats.Deviating++
		}
		if _, seen := minRank[apex]; !seen {
			minRank[apex] = i
		}
	}
	stats.Groups = len(minRank)
	scored := make([]rank.ScoredID, 0, len(minRank))
	for id, r := range minRank {
		scored = append(scored, rank.ScoredID{ID: id, Score: -float64(r)})
	}
	return rank.FromScoredIDs(tab, scored, rank.TieHashed), stats
}

func hostOfOrigin(origin string) string {
	s := strings.TrimPrefix(origin, "https://")
	s = strings.TrimPrefix(s, "http://")
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return s
}
