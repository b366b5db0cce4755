package providers

import (
	"strings"

	"toplists/internal/chrome"
	"toplists/internal/names"
	"toplists/internal/psl"
	"toplists/internal/rank"
)

// Crux wraps the public Chrome User Experience Report dataset (Section 2):
// monthly, keyed by web origin, ranked by completed page loads, published
// as rank-order-magnitude buckets only. The same monthly list is returned
// for every day of the month, matching how the real dataset updates.
type Crux struct {
	list *chrome.CruxList
	norm monthNorm
}

// NewCrux derives the month's public CrUX list from telemetry. minVisitors
// is the per-country privacy threshold; bk sets the magnitude cutoffs.
func NewCrux(t *chrome.Telemetry, minVisitors int, bk rank.Bucketer) *Crux {
	return &Crux{list: t.DeriveCrux(minVisitors, bk)}
}

// Name implements List.
func (c *Crux) Name() string { return "CrUX" }

// Bucketed implements List: CrUX publishes rank magnitudes, not ranks, so
// Spearman correlation cannot be computed against it (Section 4.4).
func (c *Crux) Bucketed() bool { return true }

// Raw implements List: entries are origins in the dataset's internal order.
func (c *Crux) Raw(day int) *rank.Ranking { return c.list.OriginRanking() }

// Normalized implements List: origins are stripped to their host and
// grouped by registrable domain with min-rank (Section 4.2). An entry
// deviates from the PSL form when its host is not itself a registrable
// domain (scheme differences alone do not count as deviation). The list is
// month-stable, so the grouping runs once and is shared by every day.
func (c *Crux) Normalized(day int, l *psl.List) (*rank.Ranking, rank.NormalizeStats) {
	return c.norm.get(l, func() (*rank.Ranking, rank.NormalizeStats) {
		return c.normalize(func(host string) (string, bool) {
			return l.RegisteredDomain(host)
		})
	})
}

// NormalizedIn implements the memoized normalization fast path; origin
// hosts are not themselves ranked names, so the host's apex is resolved
// through the normalizer's per-ID cache after interning the host.
func (c *Crux) NormalizedIn(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	raw := c.Raw(0)
	if raw.Table() != nz.Table() {
		return c.Normalized(day, nz.PSL())
	}
	return c.norm.get(nz, func() (*rank.Ranking, rank.NormalizeStats) {
		tab := nz.Table()
		return c.normalize(func(host string) (string, bool) {
			apexID, ok := nz.Apex(tab.Intern(host))
			if !ok {
				return "", false
			}
			return tab.Lookup(apexID), true
		})
	})
}

// normalize groups origins by the registrable domain of their host, keyed
// by interned ID on the raw list's table, ordered by minimum origin rank.
func (c *Crux) normalize(apexOf func(host string) (string, bool)) (*rank.Ranking, rank.NormalizeStats) {
	raw := c.Raw(0)
	tab := raw.Table()
	stats := rank.NormalizeStats{Entries: raw.Len()}
	minRank := make(map[names.ID]int, raw.Len())
	for i := 1; i <= raw.Len(); i++ {
		host := hostOfOrigin(raw.At(i))
		etld1, ok := apexOf(host)
		if !ok {
			stats.Dropped++
			stats.Deviating++
			continue
		}
		if etld1 != host {
			stats.Deviating++
		}
		id := tab.Intern(etld1)
		if _, seen := minRank[id]; !seen {
			minRank[id] = i
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
