package providers

import (
	"toplists/internal/linkgraph"
	"toplists/internal/rank"
	"toplists/internal/world"
)

// Majestic reconstructs the Majestic Million, which ranks sites "based on
// the number of backlinks" [20, 21] — specifically by referring-subnet and
// referring-domain diversity from Majestic's crawl.
//
// Because backlinks accrue to institutionally-linked categories (government,
// news, academia) and not to traffic-heavy but rarely-linked ones (adult,
// gambling), the list inherits exactly the inclusion biases of Table 3.
// The list changes slowly; the simulation publishes one snapshot for the
// whole month, matching the stability the real list exhibits day over day.
type Majestic struct {
	list *rank.Ranking
	norm monthNorm
}

// NewMajestic ranks the world by the link graph.
func NewMajestic(w *world.World, g *linkgraph.Graph) *Majestic {
	scored := make([]rank.ScoredID, 0, w.NumSites())
	for i := 0; i < w.NumSites(); i++ {
		// Majestic's published ordering leads with referring subnets and
		// breaks ties by referring domains.
		score := float64(g.RefSubnets(int32(i)))*1000 + float64(g.RefDomains(int32(i)))
		if score > 0 {
			scored = append(scored, rank.ScoredID{ID: w.DomainID(int32(i)), Score: score})
		}
	}
	return &Majestic{list: rank.FromScoredIDs(w.Interner(), scored, rank.TieLexicographic)}
}

// Name implements List.
func (m *Majestic) Name() string { return "Majestic" }

// Bucketed implements List.
func (m *Majestic) Bucketed() bool { return false }

// Raw implements List.
func (m *Majestic) Raw(day int) *rank.Ranking { return m.list }

// Normalized implements List. The snapshot is month-stable, so the
// normalization is computed once and shared by every day.
func (m *Majestic) Normalized(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	return m.norm.get(nz, func() (*rank.Ranking, rank.NormalizeStats) {
		return m.list.NormalizePSLIn(nz)
	})
}
