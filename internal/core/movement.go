package core

import (
	"toplists/internal/names"
	"toplists/internal/rank"
)

// AgreedBuckets returns the domains that two Cloudflare metric rankings
// place into the same rank-magnitude bucket, with that bucket — the
// consensus baseline of Section 5.3 ("we restrict our analysis to the set
// of domains that two metrics that bookend pageloads ... both place into a
// given bucket"). The set is keyed by ID on the rankings' shared name
// table; both rankings must be ranked over that same table.
func AgreedBuckets(m1, m3 *rank.Ranking, bk rank.Bucketer) map[names.ID]rank.Bucket {
	mustShareTable("AgreedBuckets", m1.Table(), m3.Table())
	out := make(map[names.ID]rank.Bucket)
	for i := 1; i <= m1.Len(); i++ {
		b1 := bk.BucketOf(i)
		if b1 == rank.BucketBeyond {
			continue
		}
		id := m1.IDAt(i)
		r3, ok := m3.RankOfID(id)
		if !ok {
			continue
		}
		if bk.BucketOf(r3) == b1 {
			out[id] = b1
		}
	}
	return out
}

// Movement is the rank-magnitude flow between the Cloudflare consensus
// buckets and a top list's buckets (the Sankey of Figure 5).
type Movement struct {
	// Matrix[cf][list] counts domains the Cloudflare consensus places in
	// bucket cf and the list places in bucket list.
	Matrix [rank.NumBuckets][rank.NumBuckets]int
	// Bucketer carries the cutoffs used.
	Bucketer rank.Bucketer
}

// ComputeMovement builds the flow between the agreed Cloudflare buckets and
// a (normalized) top list. Only domains present in the agreed set are
// considered, matching "we only consider movement of domains that are
// Cloudflare operated". The list must be ranked over the table the agreed
// set was built on.
func ComputeMovement(agreed map[names.ID]rank.Bucket, list *rank.Ranking, bk rank.Bucketer) Movement {
	m := Movement{Bucketer: bk}
	for id, cfB := range agreed {
		listB := rank.BucketBeyond
		if r, ok := list.RankOfID(id); ok {
			listB = bk.BucketOf(r)
		}
		m.Matrix[cfB][listB]++
	}
	return m
}

// OverrankStats quantifies the Section 5.3 headline numbers for the list's
// "top magnitude" prefix (topIdx indexes Bucketer.Magnitudes; 1 means the
// scaled "top 10K"): among agreed domains the list ranks within that
// prefix, the fraction Cloudflare places in a strictly less popular bucket,
// and the fraction two or more magnitudes less popular.
type OverrankStats struct {
	// N is the number of agreed Cloudflare domains in the list prefix.
	N int
	// OverrankedPct is the percentage with a less popular Cloudflare
	// bucket than the list bucket implies.
	OverrankedPct float64
	// Overranked2Pct is the percentage overranked by >= 2 magnitudes.
	Overranked2Pct float64
}

// ComputeOverrank computes OverrankStats for a list prefix. The list must
// be ranked over the table the agreed set was built on.
func ComputeOverrank(agreed map[names.ID]rank.Bucket, list *rank.Ranking, bk rank.Bucketer, topIdx int) OverrankStats {
	limit := bk.Magnitudes[topIdx]
	var st OverrankStats
	var over, over2 int
	top := list.Top(limit)
	for i := 1; i <= top.Len(); i++ {
		cfB, ok := agreed[top.IDAt(i)]
		if !ok {
			continue
		}
		st.N++
		listB := bk.BucketOf(i)
		if cfB > listB {
			over++
			if int(cfB)-int(listB) >= 2 {
				over2++
			}
		}
	}
	if st.N > 0 {
		st.OverrankedPct = 100 * float64(over) / float64(st.N)
		st.Overranked2Pct = 100 * float64(over2) / float64(st.N)
	}
	return st
}
