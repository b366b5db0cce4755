package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 64", same)
	}
}

func TestDeriveIndependentOfParentUse(t *testing.T) {
	a := New(7)
	a.Uint64() // consume from parent
	d1 := a.Derive("traffic")

	b := New(7)
	d2 := b.Derive("traffic")
	for i := 0; i < 100; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatal("Derive depends on parent consumption; must be seed-path keyed")
		}
	}
}

func TestDeriveLabelsDiffer(t *testing.T) {
	a := New(7).Derive("x")
	b := New(7).Derive("y")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("distinct labels produced matching streams")
	}
}

func TestAtIndexing(t *testing.T) {
	root := New(9)
	s3a := root.At(3)
	s3b := New(9).At(3)
	s4 := root.At(4)
	if s3a.Uint64() != s3b.Uint64() {
		t.Fatal("At not deterministic")
	}
	if s3b.Uint64() == s4.Uint64() && s3b.Uint64() == s4.Uint64() {
		t.Fatal("At(3) and At(4) look identical")
	}
}

func TestFloat64Range(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			f := s.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(123)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 100)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(55)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 12, 80} {
		s := New(77)
		const n = 100000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(lambda))
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.1 {
			t.Errorf("Poisson(%v) variance = %v", lambda, variance)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	s := New(1)
	if s.Poisson(0) != 0 || s.Poisson(-3) != 0 {
		t.Fatal("Poisson with nonpositive lambda must be 0")
	}
}

func TestBinomialMoments(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.3}, {50, 0.9}, {1000, 0.02}, {500, 0.5}} {
		s := New(88)
		const draws = 50000
		var sum float64
		for i := 0; i < draws; i++ {
			v := s.Binomial(tc.n, tc.p)
			if v < 0 || v > tc.n {
				t.Fatalf("Binomial(%d,%v) out of range: %d", tc.n, tc.p, v)
			}
			sum += float64(v)
		}
		mean := sum / draws
		want := float64(tc.n) * tc.p
		if math.Abs(mean-want) > 0.05*want+0.1 {
			t.Errorf("Binomial(%d,%v) mean = %v want ~%v", tc.n, tc.p, mean, want)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	s := New(3)
	if s.Binomial(10, 0) != 0 {
		t.Error("p=0 must give 0")
	}
	if s.Binomial(10, 1) != 10 {
		t.Error("p=1 must give n")
	}
	if s.Binomial(0, 0.5) != 0 {
		t.Error("n=0 must give 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(4)
	const n = 100000
	vals := 0
	for i := 0; i < n; i++ {
		if s.LogNormal(2, 0.7) < math.Exp(2) {
			vals++
		}
	}
	frac := float64(vals) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("log-normal median fraction = %v, want ~0.5", frac)
	}
}
