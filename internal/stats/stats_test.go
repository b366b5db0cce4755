package stats

import (
	"math"
	"testing"
	"testing/quick"

	"toplists/internal/names"
	"toplists/internal/simrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); !almostEq(s, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, %v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("Pearson negative = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("short data must error")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatch must error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance must error")
	}
}

func TestRanksTies(t *testing.T) {
	ranks := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", ranks, want)
		}
	}
}

func TestRanksAllTied(t *testing.T) {
	ranks := Ranks([]float64{5, 5, 5})
	for _, r := range ranks {
		if r != 2 {
			t.Fatalf("all-tied ranks = %v, want all 2", ranks)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman is invariant to monotone transforms; Pearson is not.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // monotone
	}
	rs, err := Spearman(xs, ys)
	if err != nil || !almostEq(rs, 1, 1e-12) {
		t.Errorf("Spearman = %v, %v, want 1", rs, err)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic textbook example (no ties): rs = 1 - 6*sum(d^2)/(n(n^2-1)).
	xs := []float64{86, 97, 99, 100, 101, 103, 106, 110, 112, 113}
	ys := []float64{0, 20, 28, 27, 50, 29, 7, 17, 6, 12}
	rs, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rs, -0.17575757575, 1e-9) {
		t.Errorf("Spearman = %v, want -0.1757...", rs)
	}
}

func TestSpearmanBounds(t *testing.T) {
	src := simrand.New(42)
	err := quick.Check(func(seed uint64) bool {
		s := simrand.New(seed)
		n := s.Intn(50) + 3
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(s.Intn(10))
			ys[i] = float64(s.Intn(10))
		}
		rs, err := Spearman(xs, ys)
		if err != nil {
			return true // zero-variance draws are fine to skip
		}
		return rs >= -1-1e-9 && rs <= 1+1e-9
	}, &quick.Config{MaxCount: 200, Rand: nil})
	_ = src
	if err != nil {
		t.Fatal(err)
	}
}

func TestJaccard(t *testing.T) {
	mk := func(keys ...string) map[string]struct{} {
		m := make(map[string]struct{})
		for _, k := range keys {
			m[k] = struct{}{}
		}
		return m
	}
	cases := []struct {
		a, b map[string]struct{}
		want float64
	}{
		{mk("a", "b"), mk("a", "b"), 1},
		{mk("a", "b"), mk("c", "d"), 0},
		{mk("a", "b", "c"), mk("b", "c", "d"), 0.5},
		{mk(), mk(), 1},
		{mk("a"), mk(), 0},
	}
	for i, c := range cases {
		if got := Jaccard(c.a, c.b); !almostEq(got, c.want, 1e-12) {
			t.Errorf("case %d: Jaccard = %v, want %v", i, got, c.want)
		}
	}
}

func TestJaccardPaperExample(t *testing.T) {
	// Section 4.4: two lists of 100 with 90 shared -> JJ = 0.818...
	a := make([]int, 100)
	b := make([]int, 100)
	for i := 0; i < 100; i++ {
		a[i] = i
		b[i] = i
		if i >= 90 {
			b[i] = 1000 + i
		}
	}
	if got := JaccardSlices(a, b); !almostEq(got, 90.0/110.0, 1e-12) {
		t.Errorf("Jaccard = %v, want %v", got, 90.0/110.0)
	}
}

// TestJaccardEmptyConvention pins the "two empty sets ⇒ 1.0" convention on
// every Jaccard code path: the map form, the slice form, and the
// interned-ID bitset form.
func TestJaccardEmptyConvention(t *testing.T) {
	if got := Jaccard(map[string]struct{}{}, map[string]struct{}{}); got != 1 {
		t.Errorf("Jaccard(∅,∅) = %v, want 1", got)
	}
	if got := JaccardSlices([]string(nil), []string{}); got != 1 {
		t.Errorf("JaccardSlices(∅,∅) = %v, want 1", got)
	}
	if got := JaccardIDs(names.NewSet(nil), names.NewSet(nil)); got != 1 {
		t.Errorf("JaccardIDs(∅,∅) = %v, want 1", got)
	}
	// One-sided empties are 0, not 1, on all three paths.
	if got := Jaccard(map[string]struct{}{"a": {}}, map[string]struct{}{}); got != 0 {
		t.Errorf("Jaccard({a},∅) = %v, want 0", got)
	}
	if got := JaccardSlices([]string{"a"}, nil); got != 0 {
		t.Errorf("JaccardSlices({a},∅) = %v, want 0", got)
	}
	if got := JaccardIDs(names.NewSet([]names.ID{3}), names.NewSet(nil)); got != 0 {
		t.Errorf("JaccardIDs({3},∅) = %v, want 0", got)
	}
}

// TestJaccardIDsMatchesJaccard cross-checks the bitset form against the
// map form on random ID sets.
func TestJaccardIDsMatchesJaccard(t *testing.T) {
	err := quick.Check(func(xs, ys []uint16) bool {
		ax, ay := make([]names.ID, len(xs)), make([]names.ID, len(ys))
		mx, my := map[names.ID]struct{}{}, map[names.ID]struct{}{}
		for i, x := range xs {
			ax[i] = names.ID(x)
			mx[names.ID(x)] = struct{}{}
		}
		for i, y := range ys {
			ay[i] = names.ID(y)
			my[names.ID(y)] = struct{}{}
		}
		return JaccardIDs(names.NewSet(ax), names.NewSet(ay)) == Jaccard(mx, my)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestJaccardSlicesDuplicates(t *testing.T) {
	// Duplicates collapse on both sides: {a,a,b} vs {b,b,c} = {a,b}∩{b,c}.
	if got := JaccardSlices([]string{"a", "a", "b"}, []string{"b", "b", "c"}); !almostEq(got, 1.0/3.0, 1e-12) {
		t.Errorf("JaccardSlices dup = %v, want 1/3", got)
	}
}

func TestJaccardSymmetric(t *testing.T) {
	err := quick.Check(func(xs, ys []uint8) bool {
		return almostEq(JaccardSlices(xs, ys), JaccardSlices(ys, xs), 1e-15)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{3, 0.99865},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !almostEq(got, c.want, 1e-4) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestTwoSidedP(t *testing.T) {
	if p := TwoSidedP(1.959963985); !almostEq(p, 0.05, 1e-4) {
		t.Errorf("TwoSidedP(1.96) = %v, want 0.05", p)
	}
	if p := TwoSidedP(0); !almostEq(p, 1, 1e-12) {
		t.Errorf("TwoSidedP(0) = %v, want 1", p)
	}
}

func TestBonferroni(t *testing.T) {
	if got := Bonferroni(0.01, 22); !almostEq(got, 0.22, 1e-12) {
		t.Errorf("Bonferroni = %v", got)
	}
	if got := Bonferroni(0.2, 22); got != 1 {
		t.Errorf("Bonferroni clamp = %v", got)
	}
}

func TestKendallTauKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if tau, err := KendallTau(xs, xs); err != nil || !almostEq(tau, 1, 1e-12) {
		t.Errorf("identical: %v, %v", tau, err)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if tau, _ := KendallTau(xs, rev); !almostEq(tau, -1, 1e-12) {
		t.Errorf("reversed: %v", tau)
	}
	// Classic worked example: tau = (C-D)/n(n-1)/2 without ties.
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 3, 2, 4}
	// Pairs: C=5, D=1 -> tau = 4/6.
	if tau, _ := KendallTau(a, b); !almostEq(tau, 4.0/6.0, 1e-12) {
		t.Errorf("worked example: %v", tau)
	}
}

func TestKendallTauTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{1, 2, 3, 4}
	tau, err := KendallTau(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// tau-b with one tie in x: C=5, D=0, pairs=6, tiesX=1.
	want := 5.0 / (math.Sqrt(5) * math.Sqrt(6))
	if !almostEq(tau, want, 1e-12) {
		t.Errorf("tau-b = %v, want %v", tau, want)
	}
}

func TestKendallTauErrors(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1}); err == nil {
		t.Error("short input accepted")
	}
	if _, err := KendallTau([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatch accepted")
	}
	if _, err := KendallTau([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("fully tied input accepted")
	}
}

func TestKendallTauBounds(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		s := simrand.New(seed)
		n := s.Intn(30) + 3
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(s.Intn(8))
			ys[i] = float64(s.Intn(8))
		}
		tau, err := KendallTau(xs, ys)
		if err != nil {
			return true
		}
		return tau >= -1-1e-9 && tau <= 1+1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKendallSpearmanAgreement: on untied data the two coefficients must
// broadly agree in sign and ordering strength.
func TestKendallSpearmanAgreement(t *testing.T) {
	src := simrand.New(17)
	for trial := 0; trial < 20; trial++ {
		n := 30
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = float64(i) + 10*src.NormFloat64()
		}
		tau, err1 := KendallTau(xs, ys)
		rs, err2 := Spearman(xs, ys)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if (tau > 0.2 && rs < 0) || (tau < -0.2 && rs > 0) {
			t.Errorf("trial %d: tau %v vs rs %v disagree in sign", trial, tau, rs)
		}
	}
}
