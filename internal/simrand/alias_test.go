package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 4, 0, 2, 3}
	a := NewAlias(weights)
	src := New(2024)
	const draws = 500000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Draw(src)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		got := float64(counts[i]) / draws
		want := w / total
		if math.Abs(got-want) > 0.005 {
			t.Errorf("outcome %d: empirical %.4f want %.4f", i, got, want)
		}
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight outcome drawn %d times", counts[2])
	}
}

func TestAliasSingle(t *testing.T) {
	a := NewAlias([]float64{3})
	src := New(1)
	for i := 0; i < 10; i++ {
		if a.Draw(src) != 0 {
			t.Fatal("single outcome must always be drawn")
		}
	}
}

func TestAliasProperty(t *testing.T) {
	// Every draw index is within range for arbitrary weight vectors.
	err := quick.Check(func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		var sum float64
		for i, r := range raw {
			weights[i] = float64(r)
			sum += weights[i]
		}
		if sum == 0 {
			weights[0] = 1
		}
		a := NewAlias(weights)
		src := New(seed)
		for i := 0; i < 30; i++ {
			v := a.Draw(src)
			if v < 0 || v >= len(weights) {
				return false
			}
			if weights[v] == 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAliasPanics(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", w)
				}
			}()
			NewAlias(w)
		}()
	}
}

func BenchmarkAliasDraw(b *testing.B) {
	w := make([]float64, 100000)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	a := NewAlias(w)
	src := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Draw(src)
	}
}

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Uint64()
	}
}
