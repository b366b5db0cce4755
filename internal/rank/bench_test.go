package rank

import (
	"fmt"
	"testing"

	"toplists/internal/names"
)

// benchIDs builds a table with n interned site-like names and returns the
// rank-ordered IDs.
func benchIDs(n int) (*names.Table, []names.ID) {
	tab := names.NewTable()
	ids := make([]names.ID, n)
	for i := range ids {
		ids[i] = tab.Intern(fmt.Sprintf("site-%06d.example", i))
	}
	return tab, ids
}

// BenchmarkRankingTopSet and BenchmarkRankingTopSetIDs measure a cold top-k
// set build (TopSetIDs memoizes per Ranking, so each iteration constructs a
// fresh ranking; the construction cost is identical in both and cancels
// out).
func BenchmarkRankingTopSet(b *testing.B) {
	tab, ids := benchIDs(20_000)
	k := len(ids) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := MustFromIDs(tab, ids)
		if len(r.TopSet(k)) != k {
			b.Fatal("bad set")
		}
	}
}

func BenchmarkRankingTopSetIDs(b *testing.B) {
	tab, ids := benchIDs(20_000)
	k := len(ids) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := MustFromIDs(tab, ids)
		if r.TopSetIDs(k).Len() != k {
			b.Fatal("bad set")
		}
	}
}

// BenchmarkRankingRankOf and BenchmarkRankingRankOfID measure warm rank
// lookups: the string path resolves the name through the interner first.
func BenchmarkRankingRankOf(b *testing.B) {
	tab, ids := benchIDs(20_000)
	r := MustFromIDs(tab, ids)
	queries := make([]string, len(ids))
	for i, id := range ids {
		queries[i] = tab.Lookup(id)
	}
	r.RankOf(queries[0]) // build the index outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.RankOf(queries[i%len(queries)]); !ok {
			b.Fatal("missing")
		}
	}
}

func BenchmarkRankingRankOfID(b *testing.B) {
	tab, ids := benchIDs(20_000)
	r := MustFromIDs(tab, ids)
	r.RankOfID(ids[0]) // build the index outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.RankOfID(ids[i%len(ids)]); !ok {
			b.Fatal("missing")
		}
	}
}
