// Package stats implements the statistical machinery of the study:
// Jaccard index and Spearman rank correlation for list comparison
// (Sections 3.2 and 4.3), and logistic regression with Wald tests and
// Bonferroni correction for the category-bias analysis (Section 6.4).
package stats

import (
	"errors"
	"math"
	"sort"

	"toplists/internal/names"
)

// Errors returned by the estimators.
var (
	// ErrShortData is returned when an estimator has too few observations.
	ErrShortData = errors.New("stats: too few observations")
	// errLengthMismatch is returned for paired inputs of unequal length.
	errLengthMismatch = errors.New("stats: length mismatch")
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrShortData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Ranks returns the fractional (average-tie) ranks of xs, 1-based, as used
// by Spearman's rank correlation.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// average rank of the tie group [i, j]
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns Spearman's rank correlation coefficient between xs and
// ys, handling ties by averaging ranks (the standard definition: Pearson
// correlation of the rank vectors).
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrShortData
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Jaccard returns |a ∩ b| / |a ∪ b| for two sets of strings. Two empty sets
// have Jaccard index 1 by convention (they are identical).
func Jaccard[K comparable](a, b map[K]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// JaccardIDs returns |a ∩ b| / |a ∪ b| for two interned-ID bitsets over
// the same names.Table — the hot-path form of Jaccard, one popcount sweep
// instead of a string-map walk. Two empty sets have Jaccard index 1 by
// convention (they are identical), matching Jaccard.
func JaccardIDs(a, b *names.Set) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	inter := a.IntersectCount(b)
	union := a.Len() + b.Len() - inter
	return float64(inter) / float64(union)
}

// JaccardSlices is Jaccard over two slices, treating them as sets
// (duplicates within a slice count once). One scratch map tracks both
// sides: values 1/2 mark distinct members of a (2 = also seen in b),
// 3 marks members of b absent from a.
func JaccardSlices[K comparable](a, b []K) float64 {
	m := make(map[K]uint8, len(a))
	for _, k := range a {
		m[k] = 1
	}
	na := len(m)
	inter, bOnly := 0, 0
	for _, k := range b {
		switch m[k] {
		case 1:
			inter++
			m[k] = 2
		case 0:
			bOnly++
			m[k] = 3
		}
	}
	if na == 0 && bOnly == 0 {
		return 1
	}
	return float64(inter) / float64(na+bOnly)
}

// NormalCDF returns the standard normal CDF at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// TwoSidedP returns the two-sided p-value for a standard-normal test
// statistic z.
func TwoSidedP(z float64) float64 {
	return 2 * (1 - NormalCDF(math.Abs(z)))
}

// Bonferroni adjusts a p-value for m comparisons, clamping at 1.
func Bonferroni(p float64, m int) float64 {
	adj := p * float64(m)
	if adj > 1 {
		return 1
	}
	return adj
}
