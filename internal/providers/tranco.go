package providers

import (
	"slices"

	"toplists/internal/names"
	"toplists/internal/psl"
	"toplists/internal/rank"
)

// Tranco reconstructs the Tranco Top Million [18]: an amalgam of the Alexa,
// Umbrella, and Majestic lists over a trailing 30-day window, combined with
// the Dowdall rule — each domain scores the sum of reciprocal ranks across
// every (list, day) snapshot in the window. Input lists are normalized to
// registrable domains first, which is why the archived Tranco snapshots
// show 0% PSL deviation in Table 2.
//
// As the paper observes, amalgamation averages its inputs' accuracy and
// inherits their shared blind spots: Tranco lands mid-pack in Figure 2 and
// still under-includes adult and gambling sites in Table 3.
type Tranco struct {
	inputs []List
	psl    *psl.List

	lists []*rank.Ranking
	// memo caches per-(list, day) normalized inputs so consecutive Tranco
	// days do not re-normalize the same snapshots. When shared with the
	// study's artifact store, the normalizations done here are reused by
	// the evaluation.
	memo *NormMemo
}

// trancoWindow is the trailing number of days Tranco aggregates; runs
// shorter than the window use every available day (documented in
// DESIGN.md).
const trancoWindow = 30

// NewTranco builds a Tranco provider over its three input lists. memo is
// the normalization cache to draw input snapshots through; nil builds a
// private one.
func NewTranco(alexa, umbrella, majestic List, l *psl.List, memo *NormMemo) *Tranco {
	if memo == nil {
		memo = NewNormMemo(l)
	}
	return &Tranco{
		inputs: []List{alexa, umbrella, majestic},
		psl:    l,
		memo:   memo,
	}
}

// Name implements List.
func (t *Tranco) Name() string { return "Tranco" }

// Bucketed implements List.
func (t *Tranco) Bucketed() bool { return false }

// ComputeDay builds and stores the published list for day d; days must be
// computed in order after the inputs have published day d. Every (list,
// day) snapshot in the window is Dowdall-combined by interned ID, day by
// day in input order: every input snapshot of a study shares the world's
// table, so no name strings are revisited.
func (t *Tranco) ComputeDay(day int) {
	start := max(day-trancoWindow+1, 0)
	snaps := make([]*rank.Ranking, 0, (day-start+1)*len(t.inputs))
	for d := start; d <= day; d++ {
		for _, in := range t.inputs {
			norm, _ := t.memo.Normalized(in, d)
			if len(snaps) > 0 && snaps[0].Table() != norm.Table() {
				panic("providers: Tranco inputs ranked over different name tables")
			}
			snaps = append(snaps, norm)
		}
	}
	t.lists = append(t.lists, rank.Dowdall(snaps[0].Table(), snaps))
}

// NumDays returns how many days have been computed.
func (t *Tranco) NumDays() int { return len(t.lists) }

// Archive returns the published days' rankings, clipped to their count.
// ComputeDay only appends, so the slice stays valid with no lock.
func (t *Tranco) Archive() []*rank.Ranking { return slices.Clip(t.lists) }

// Raw implements List. Tranco publishes registrable domains already.
func (t *Tranco) Raw(day int) *rank.Ranking { return t.lists[day] }

// Normalized implements List.
func (t *Tranco) Normalized(day int, l *psl.List) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalized(t.Raw(day), l)
}

// NormalizedIn implements the memoized normalization fast path.
func (t *Tranco) NormalizedIn(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalizedIn(t.Raw(day), nz)
}

// Trexa reconstructs the Trexa list [35]: an interleave of Tranco and Alexa
// that additionally weights toward Alexa, built by Zeber et al. to better
// match observed Firefox browsing. The construction walks both lists,
// drawing from Alexa at a fixed cadence ratio and skipping duplicates.
type Trexa struct {
	alexa  List
	tranco *Tranco
	psl    *psl.List

	lists []*rank.Ranking
}

// trexaAlexaWeight is how many Alexa entries Trexa takes per Tranco entry:
// the "additionally weighting towards Alexa" of the paper.
const trexaAlexaWeight = 2

// NewTrexa builds a Trexa provider. Normalized Alexa snapshots are drawn
// through the Tranco amalgam's memo, which already holds them.
func NewTrexa(alexa List, tranco *Tranco, l *psl.List) *Trexa {
	return &Trexa{alexa: alexa, tranco: tranco, psl: l}
}

// Name implements List.
func (t *Trexa) Name() string { return "Trexa" }

// Bucketed implements List.
func (t *Trexa) Bucketed() bool { return false }

// ComputeDay builds and stores the published list for day d. The Tranco day
// must already be computed. The interleave walks both inputs by ID.
func (t *Trexa) ComputeDay(day int) {
	a, _ := t.tranco.memo.Normalized(t.alexa, day)
	tr := t.tranco.Raw(day)
	if a.Table() != tr.Table() {
		panic("providers: Trexa inputs ranked over different name tables")
	}
	seen := make(map[names.ID]struct{}, a.Len()+tr.Len())
	out := make([]names.ID, 0, a.Len()+tr.Len())
	ai, ti := 1, 1
	take := func(r *rank.Ranking, idx *int) {
		for *idx <= r.Len() {
			id := r.IDAt(*idx)
			*idx++
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
				return
			}
		}
	}
	for ai <= a.Len() || ti <= tr.Len() {
		for k := 0; k < trexaAlexaWeight; k++ {
			take(a, &ai)
		}
		take(tr, &ti)
	}
	t.lists = append(t.lists, rank.MustFromIDs(a.Table(), out))
}

// NumDays returns how many days have been computed.
func (t *Trexa) NumDays() int { return len(t.lists) }

// Archive returns the published days' rankings, clipped to their count.
// ComputeDay only appends, so the slice stays valid with no lock.
func (t *Trexa) Archive() []*rank.Ranking { return slices.Clip(t.lists) }

// Raw implements List.
func (t *Trexa) Raw(day int) *rank.Ranking { return t.lists[day] }

// Normalized implements List.
func (t *Trexa) Normalized(day int, l *psl.List) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalized(t.Raw(day), l)
}

// NormalizedIn implements the memoized normalization fast path.
func (t *Trexa) NormalizedIn(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats) {
	return domainNormalizedIn(t.Raw(day), nz)
}
