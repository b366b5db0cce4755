// Package rank provides the ranked-list data model shared by every top-list
// provider and by the Cloudflare metric pipeline: ordered rankings,
// score-to-rank conversion with explicit tie-breaking, truncation,
// rank-magnitude buckets, and the PSL normalization of Section 4.2.
//
// A Ranking is backed by dense interner IDs (see package names): rank
// lookups, membership tests, and top-k sets operate on integers, and the
// string form is materialized only at the I/O boundary (CSV, report
// rendering, error messages). IDs never influence ordering — every sort and
// tie-break is decided by scores and by the name strings (or their
// precomputed hashes), so an ID-backed ranking renders byte-identically to
// its string-backed ancestor.
package rank

import (
	"fmt"
	"sort"
	"sync"

	"toplists/internal/names"
	"toplists/internal/psl"
)

// sharedTab is the interner behind the string-only constructors (New,
// MustNew, FromScores). Rankings inside a study are built against the
// study world's table instead; the shared table exists so that
// free-standing rankings (tests, examples) keep working
// unchanged and still compare by ID among themselves.
var sharedTab = names.NewTable()

// Ranking is an ordered list of names, most popular first. Ranks are
// 1-based. The ID sequence is immutable after construction; the rank index
// and top-k sets are derived lazily under sync.Once-style guards, so a
// Ranking is safe for concurrent use by multiple goroutines.
type Ranking struct {
	tab *names.Table
	ids []names.ID

	// pos maps ID -> 0-based index. It is built at most once, on first
	// lookup, so rankings that are only iterated (truncations, filtered
	// intermediates) never pay for it.
	posOnce sync.Once
	pos     map[names.ID]int32

	// strs memoizes the Names() materialization; hot paths never build it.
	strOnce sync.Once
	strs    []string

	// topSets and topIDSets memoize TopSet/TopSetIDs results per k: the
	// evaluation asks for the same few cuts (EvalK, SpearmanK) of
	// long-lived rankings over and over across experiments.
	topMu     sync.Mutex
	topSets   map[int]map[string]struct{}
	topIDSets map[int]*names.Set
}

// New builds a Ranking from name strings in rank order, interning them in
// the package's shared table. Duplicate names are an error: a list must
// rank each name once.
func New(list []string) (*Ranking, error) {
	return NewIn(sharedTab, list)
}

// NewIn is New against an explicit interner table.
func NewIn(tab *names.Table, list []string) (*Ranking, error) {
	ids := make([]names.ID, len(list))
	var scratch bitScratch
	for i, n := range list {
		id := tab.Intern(n)
		if scratch.testAndSet(id) {
			return nil, fmt.Errorf("rank: duplicate name %q", n)
		}
		ids[i] = id
	}
	return &Ranking{tab: tab, ids: ids}, nil
}

// MustNew is New for inputs known to be unique; it panics on error.
func MustNew(list []string) *Ranking {
	r, err := New(list)
	if err != nil {
		panic(err)
	}
	return r
}

// FromIDs builds a Ranking from interned IDs in rank order. Duplicate IDs
// are an error.
func FromIDs(tab *names.Table, ids []names.ID) (*Ranking, error) {
	var scratch bitScratch
	for _, id := range ids {
		if scratch.testAndSet(id) {
			return nil, fmt.Errorf("rank: duplicate name %q", tab.Lookup(id))
		}
	}
	return &Ranking{tab: tab, ids: ids}, nil
}

// MustFromIDs is FromIDs for inputs known to be unique; it panics on error.
func MustFromIDs(tab *names.Table, ids []names.ID) *Ranking {
	r, err := FromIDs(tab, ids)
	if err != nil {
		panic(err)
	}
	return r
}

// bitScratch is a throwaway duplicate detector over dense IDs: one bit per
// ID, grown on demand, discarded after construction. Duplicate checking is
// a single pass and leaves no retained index behind — the rank index is
// still built lazily, only if a lookup ever needs it.
type bitScratch struct{ words []uint64 }

// testAndSet reports whether id was already marked, marking it.
func (b *bitScratch) testAndSet(id names.ID) bool {
	w := int(id >> 6)
	if w >= len(b.words) {
		grown := make([]uint64, w+w/2+1)
		copy(grown, b.words)
		b.words = grown
	}
	bit := uint64(1) << (id & 63)
	if b.words[w]&bit != 0 {
		return true
	}
	b.words[w] |= bit
	return false
}

// fromUniqueIDs wraps IDs already known to be pairwise distinct (slices
// derived from an existing Ranking), deferring the index build until a
// rank lookup actually needs it.
func fromUniqueIDs(tab *names.Table, ids []names.ID) *Ranking {
	return &Ranking{tab: tab, ids: ids}
}

// index returns the ID -> 0-based-index map, building it on first use.
// Duplicates keep their first index (New rejects them for external input).
func (r *Ranking) index() map[names.ID]int32 {
	r.posOnce.Do(func() {
		pos := make(map[names.ID]int32, len(r.ids))
		for i, id := range r.ids {
			if _, dup := pos[id]; !dup {
				pos[id] = int32(i)
			}
		}
		r.pos = pos
	})
	return r.pos
}

// Table returns the interner table the ranking's IDs belong to. IDs from
// rankings over different tables are unrelated; core's comparison helpers
// check table identity before taking an ID fast path.
func (r *Ranking) Table() *names.Table { return r.tab }

// Len returns the number of ranked names.
func (r *Ranking) Len() int { return len(r.ids) }

// At returns the name at 1-based rank i.
func (r *Ranking) At(i int) string { return r.tab.Lookup(r.ids[i-1]) }

// IDAt returns the interned ID at 1-based rank i.
func (r *Ranking) IDAt(i int) names.ID { return r.ids[i-1] }

// Names returns the rank-ordered names, materialized once on first call.
// Callers must not modify the returned slice.
func (r *Ranking) Names() []string {
	r.strOnce.Do(func() {
		strs := make([]string, len(r.ids))
		for i, id := range r.ids {
			strs[i] = r.tab.Lookup(id)
		}
		r.strs = strs
	})
	return r.strs
}

// RankOf returns the 1-based rank of name, or (0, false) if absent. Names
// never interned anywhere cannot be ranked here, so the lookup does not
// grow the table.
func (r *Ranking) RankOf(name string) (int, bool) {
	id, ok := r.tab.Find(name)
	if !ok {
		return 0, false
	}
	return r.RankOfID(id)
}

// RankOfID returns the 1-based rank of id, or (0, false) if absent.
func (r *Ranking) RankOfID(id names.ID) (int, bool) {
	i, ok := r.index()[id]
	if !ok {
		return 0, false
	}
	return int(i) + 1, true
}

// Contains reports whether name appears in the ranking.
func (r *Ranking) Contains(name string) bool {
	id, ok := r.tab.Find(name)
	if !ok {
		return false
	}
	return r.ContainsID(id)
}

// ContainsID reports whether id appears in the ranking.
func (r *Ranking) ContainsID(id names.ID) bool {
	_, ok := r.index()[id]
	return ok
}

// Top returns a new Ranking of the first k names (all names if k exceeds
// the length).
func (r *Ranking) Top(k int) *Ranking {
	if k > len(r.ids) {
		k = len(r.ids)
	}
	if k < 0 {
		k = 0
	}
	return fromUniqueIDs(r.tab, r.ids[:k:k])
}

// TopSet returns the top-k names as a string set, memoized per k. Callers
// must not modify the returned set. Hot paths use TopSetIDs instead.
func (r *Ranking) TopSet(k int) map[string]struct{} {
	k = r.clampK(k)
	r.topMu.Lock()
	defer r.topMu.Unlock()
	if s, ok := r.topSets[k]; ok {
		return s
	}
	s := make(map[string]struct{}, k)
	for _, id := range r.ids[:k] {
		s[r.tab.Lookup(id)] = struct{}{}
	}
	if r.topSets == nil {
		r.topSets = make(map[int]map[string]struct{})
	}
	r.topSets[k] = s
	return s
}

// TopSetIDs returns the top-k IDs as a bitset, memoized per k. Callers
// must not modify the returned set.
func (r *Ranking) TopSetIDs(k int) *names.Set {
	k = r.clampK(k)
	r.topMu.Lock()
	defer r.topMu.Unlock()
	if s, ok := r.topIDSets[k]; ok {
		return s
	}
	s := names.NewSet(r.ids[:k])
	if r.topIDSets == nil {
		r.topIDSets = make(map[int]*names.Set)
	}
	r.topIDSets[k] = s
	return s
}

func (r *Ranking) clampK(k int) int {
	if k > len(r.ids) {
		k = len(r.ids)
	}
	if k < 0 {
		k = 0
	}
	return k
}

// Filter returns a new Ranking keeping only names for which keep returns
// true, preserving order.
func (r *Ranking) Filter(keep func(name string) bool) *Ranking {
	out := make([]names.ID, 0, len(r.ids))
	for _, id := range r.ids {
		if keep(r.tab.Lookup(id)) {
			out = append(out, id)
		}
	}
	return fromUniqueIDs(r.tab, out)
}

// FilterIDs returns a new Ranking keeping only IDs for which keep returns
// true, preserving order.
func (r *Ranking) FilterIDs(keep func(id names.ID) bool) *Ranking {
	out := make([]names.ID, 0, len(r.ids))
	for _, id := range r.ids {
		if keep(id) {
			out = append(out, id)
		}
	}
	return fromUniqueIDs(r.tab, out)
}

// Scored pairs a name with a raw popularity score.
type Scored struct {
	Name  string
	Score float64
}

// ScoredID pairs an interned name with a raw popularity score.
type ScoredID struct {
	ID    names.ID
	Score float64
}

// Tie selects the tie-breaking policy used when converting scores to ranks.
type Tie uint8

const (
	// TieLexicographic breaks score ties alphabetically, as Cisco Umbrella
	// has been observed to do ("long strings of alphabetically sorted
	// domains", Section 5.2).
	TieLexicographic Tie = iota
	// TieHashed breaks ties by a stable hash of the name, modeling lists
	// whose tie order carries no information.
	TieHashed
)

// FromScores sorts items by descending score into a Ranking over the
// shared table, breaking ties per the policy. The input slice is sorted in
// place.
func FromScores(items []Scored, tie Tie) *Ranking {
	return FromScoresIn(sharedTab, items, tie)
}

// FromScoresIn is FromScores against an explicit interner table.
func FromScoresIn(tab *names.Table, items []Scored, tie Tie) *Ranking {
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score > items[b].Score
		}
		switch tie {
		case TieHashed:
			return strHash(items[a].Name) < strHash(items[b].Name)
		default:
			return items[a].Name < items[b].Name
		}
	})
	ids := make([]names.ID, len(items))
	var scratch bitScratch
	for i, it := range items {
		id := tab.Intern(it.Name)
		if scratch.testAndSet(id) {
			panic(fmt.Sprintf("rank: duplicate name %q", it.Name))
		}
		ids[i] = id
	}
	return &Ranking{tab: tab, ids: ids}
}

// FromScoredIDs sorts items by descending score into a Ranking, breaking
// ties per the policy. Ties are still decided by the name — its bytes for
// TieLexicographic, its precomputed string hash for TieHashed — never by
// the ID, so the order matches FromScores over the corresponding strings
// exactly. The input slice is sorted in place.
func FromScoredIDs(tab *names.Table, items []ScoredID, tie Tie) *Ranking {
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score > items[b].Score
		}
		switch tie {
		case TieHashed:
			return tab.Hash(items[a].ID) < tab.Hash(items[b].ID)
		default:
			return tab.Lookup(items[a].ID) < tab.Lookup(items[b].ID)
		}
	})
	ids := make([]names.ID, len(items))
	var scratch bitScratch
	for i, it := range items {
		if scratch.testAndSet(it.ID) {
			panic(fmt.Sprintf("rank: duplicate name %q", tab.Lookup(it.ID)))
		}
		ids[i] = it.ID
	}
	return &Ranking{tab: tab, ids: ids}
}

// Dowdall combines rankings by the Dowdall rule: each ID scores the sum of
// its reciprocal ranks 1/r over every ranking in rs, and the sums rank
// descending with hashed ties. Each ID's reciprocals are added in the order
// rs gives, so the float sums (and ranks) repeat exactly for a given order.
// Every ranking must be over tab.
func Dowdall(tab *names.Table, rs []*Ranking) *Ranking {
	scores := make(map[names.ID]float64)
	for _, r := range rs {
		for i, id := range r.ids {
			scores[id] += 1 / float64(i+1)
		}
	}
	scored := make([]ScoredID, 0, len(scores))
	for id, v := range scores {
		scored = append(scored, ScoredID{ID: id, Score: v})
	}
	return FromScoredIDs(tab, scored, TieHashed)
}

func strHash(s string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// NormalizeStats reports how much a PSL normalization changed a list; the
// deviation fraction is what Table 2 of the paper tabulates.
type NormalizeStats struct {
	// Entries is the number of input names.
	Entries int
	// Deviating is the number of input names that were not already PSL
	// registrable domains (e.g. FQDNs or names carrying subdomains).
	Deviating int
	// Dropped is the number of input names with no registrable domain
	// (names that are themselves public suffixes, such as Umbrella's
	// high-ranked bare TLD entries).
	Dropped int
	// Groups is the number of distinct registrable domains in the output.
	Groups int
}

// DeviationPct returns the percentage of entries that deviated from the PSL
// registrable-domain form.
func (s NormalizeStats) DeviationPct() float64 {
	if s.Entries == 0 {
		return 0
	}
	return 100 * float64(s.Deviating) / float64(s.Entries)
}

// NormalizePSL groups the ranking's names by PSL registrable domain,
// assigning each group the smallest (most popular) rank among its members
// (Section 4.2). The output ranking is ordered by that minimum rank. Names
// that are themselves public suffixes are dropped and counted.
//
// Each name's registrable domain is recomputed from the PSL trie; study
// code uses NormalizePSLIn, which memoizes the apex per interned ID.
func (r *Ranking) NormalizePSL(list *psl.List) (*Ranking, NormalizeStats) {
	return r.normalize(func(id names.ID) (names.ID, bool) {
		etld1, ok := list.RegisteredDomain(r.tab.Lookup(id))
		if !ok {
			return 0, false
		}
		return r.tab.Intern(etld1), true
	})
}

// NormalizePSLIn is NormalizePSL through a Normalizer, which caches each
// interned name's registrable domain once per study instead of re-walking
// the PSL trie per (list, day). The normalizer must be bound to the
// ranking's own table.
func (r *Ranking) NormalizePSLIn(nz *Normalizer) (*Ranking, NormalizeStats) {
	if nz.tab != r.tab {
		panic("rank: NormalizePSLIn: normalizer bound to a different table")
	}
	return r.normalize(nz.Apex)
}

// normalize implements PSL grouping over any apex resolver. Appending each
// group at first encounter walks ranks in increasing order, so the output
// is ordered by minimum member rank — the same order the string
// implementation produced by sorting group keys on their minimum index.
func (r *Ranking) normalize(apex func(names.ID) (names.ID, bool)) (*Ranking, NormalizeStats) {
	stats := NormalizeStats{Entries: len(r.ids)}
	var seen bitScratch
	out := make([]names.ID, 0, len(r.ids))
	for _, id := range r.ids {
		apexID, ok := apex(id)
		if !ok {
			stats.Dropped++
			stats.Deviating++ // a bare public suffix is by definition not registrable
			continue
		}
		if apexID != id {
			stats.Deviating++
		}
		if !seen.testAndSet(apexID) {
			out = append(out, apexID)
		}
	}
	stats.Groups = len(out)
	return fromUniqueIDs(r.tab, out), stats
}
