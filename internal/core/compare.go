package core

import (
	"math"

	"toplists/internal/names"
	"toplists/internal/rank"
	"toplists/internal/stats"
)

// mustShareTable panics, naming fn, unless a and b are one name table.
// The comparison helpers only ever see one study's artifacts, all ranked
// over the world's table, so a mismatch is an internal invariant
// violation, not an input error: IDs from different tables are unrelated.
func mustShareTable(fn string, a, b *names.Table) {
	if a != b {
		panic("core: " + fn + " rankings use different name tables")
	}
}

// JaccardTopK returns the Jaccard index of the top-k sets of two rankings,
// compared as ID bitsets. Both must be ranked over the same name table.
func JaccardTopK(a, b *rank.Ranking, k int) float64 {
	mustShareTable("JaccardTopK", a.Table(), b.Table())
	return stats.JaccardIDs(a.TopSetIDs(k), b.TopSetIDs(k))
}

// SpearmanTopK returns Spearman's rank correlation over the intersection of
// the top-k prefixes of two rankings, plus the intersection size. The
// correlation is computed on the ranks each list assigns to the shared
// elements, per Section 3.2. Both must be ranked over the same name table.
func SpearmanTopK(a, b *rank.Ranking, k int) (rs float64, shared int, err error) {
	mustShareTable("SpearmanTopK", a.Table(), b.Table())
	aTop := a.Top(k)
	var xs, ys []float64
	for i := 1; i <= aTop.Len(); i++ {
		if rb, ok := b.RankOfID(aTop.IDAt(i)); ok && rb <= k {
			xs = append(xs, float64(i))
			ys = append(ys, float64(rb))
		}
	}
	rs, err = stats.Spearman(xs, ys)
	return rs, len(xs), err
}

// ListVsMetric is the Section 4.3 methodology for evaluating one top list
// against one Cloudflare metric:
//
//	To build comparable lists of sites, we filter out non Cloudflare-sites
//	from each top list and compare the subset of Cloudflare sites against
//	the same number of top sites from Cloudflare.
//
// list must be PSL-normalized; cf is the metric's ranked domain list;
// cfSet is the probed set of Cloudflare-served domains; k is the list
// magnitude under evaluation (e.g. the scaled "top 1M").
type ListVsMetric struct {
	// N is the number of Cloudflare-served sites found in the list's top k.
	N int
	// Jaccard compares that set against the metric's top-N set.
	Jaccard float64
	// Spearman correlates the ranks of the shared elements; valid only if
	// SpearmanOK (undefined for bucketed lists or empty intersections).
	Spearman   float64
	SpearmanOK bool
}

// EvalListVsMetric runs the Section 4.3 comparison. bucketed disables the
// Spearman computation (CrUX). cfSet is the probed Cloudflare set as a
// bitset over the study's name table (Artifacts.CFDomainIDs). Both
// rankings must be ranked over that same table.
func EvalListVsMetric(list *rank.Ranking, cfSet *names.Set, cf *rank.Ranking, k int, bucketed bool) ListVsMetric {
	mustShareTable("EvalListVsMetric", list.Table(), cf.Table())
	cfOnly := list.Top(k).FilterIDs(cfSet.Contains)
	n := cfOnly.Len()
	res := ListVsMetric{N: n}
	if n == 0 {
		return res
	}
	cfTop := cf.Top(n)
	res.Jaccard = stats.JaccardIDs(cfOnly.TopSetIDs(n), cfTop.TopSetIDs(n))

	if bucketed {
		return res
	}
	var xs, ys []float64
	for i := 1; i <= n; i++ {
		if r, ok := cfTop.RankOfID(cfOnly.IDAt(i)); ok {
			xs = append(xs, float64(i))
			ys = append(ys, float64(r))
		}
	}
	if rs, err := stats.Spearman(xs, ys); err == nil {
		res.Spearman = rs
		res.SpearmanOK = true
	}
	return res
}

// MeanListVsMetric averages daily ListVsMetric results (the paper reports
// month averages of daily comparisons).
func MeanListVsMetric(daily []ListVsMetric) ListVsMetric {
	if len(daily) == 0 {
		return ListVsMetric{}
	}
	var out ListVsMetric
	var jj, rs []float64
	var n float64
	for _, d := range daily {
		n += float64(d.N)
		jj = append(jj, d.Jaccard)
		if d.SpearmanOK {
			rs = append(rs, d.Spearman)
		}
	}
	out.N = int(math.Round(n / float64(len(daily))))
	out.Jaccard = stats.Mean(jj)
	if len(rs) > 0 {
		out.Spearman = stats.Mean(rs)
		out.SpearmanOK = true
	}
	return out
}
