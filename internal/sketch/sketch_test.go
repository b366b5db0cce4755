package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"toplists/internal/simrand"
)

func TestExactBasic(t *testing.T) {
	e := NewExact()
	for i := 0; i < 100; i++ {
		e.Add(uint64(i % 10))
	}
	if e.Count() != 10 {
		t.Fatalf("Count = %v, want 10", e.Count())
	}
	e.Reset()
	if e.Count() != 0 {
		t.Fatalf("Count after Reset = %v", e.Count())
	}
}

func TestExactMerge(t *testing.T) {
	a, b := NewExact(), NewExact()
	for i := 0; i < 50; i++ {
		a.Add(uint64(i))
	}
	for i := 25; i < 75; i++ {
		b.Add(uint64(i))
	}
	a.Merge(b)
	if a.Count() != 75 {
		t.Fatalf("merged Count = %v, want 75", a.Count())
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 10000, 200000} {
		h := NewHLL(14)
		src := simrand.New(uint64(n))
		for i := 0; i < n; i++ {
			h.Add(src.Uint64())
		}
		got := h.Count()
		relErr := math.Abs(got-float64(n)) / float64(n)
		// Standard error for p=14 is ~0.81%; allow 5 sigma.
		if relErr > 0.05 {
			t.Errorf("n=%d: estimate %v, rel err %.3f", n, got, relErr)
		}
	}
}

func TestHLLSequentialIDs(t *testing.T) {
	// Client IDs in the simulation are small sequential integers; the
	// internal mixer must make these safe.
	h := NewHLL(14)
	const n = 50000
	for i := 0; i < n; i++ {
		h.Add(uint64(i))
	}
	got := h.Count()
	if math.Abs(got-n)/n > 0.05 {
		t.Errorf("sequential IDs: estimate %v for n=%d", got, n)
	}
}

func TestHLLDuplicatesIdempotent(t *testing.T) {
	err := quick.Check(func(items []uint64) bool {
		if len(items) == 0 {
			return true
		}
		a := NewHLL(12)
		b := NewHLL(12)
		for _, it := range items {
			a.Add(it)
			b.Add(it)
			b.Add(it) // duplicates must not change the estimate
		}
		return a.Count() == b.Count()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHLLMergeEqualsUnion(t *testing.T) {
	err := quick.Check(func(xs, ys []uint64) bool {
		merged := NewHLL(12)
		union := NewHLL(12)
		a := NewHLL(12)
		b := NewHLL(12)
		for _, x := range xs {
			a.Add(x)
			union.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			union.Add(y)
		}
		merged.Merge(a)
		merged.Merge(b)
		return merged.Count() == union.Count()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHLLMonotone(t *testing.T) {
	h := NewHLL(10)
	src := simrand.New(7)
	prev := 0.0
	for i := 0; i < 5000; i++ {
		h.Add(src.Uint64())
		if i%500 == 0 {
			c := h.Count()
			if c < prev {
				t.Fatalf("estimate decreased: %v -> %v at %d", prev, c, i)
			}
			prev = c
		}
	}
}

func TestHLLReset(t *testing.T) {
	h := NewHLL(10)
	for i := 0; i < 1000; i++ {
		h.Add(uint64(i) * 7919)
	}
	h.Reset()
	if h.Count() != 0 {
		t.Fatalf("Count after Reset = %v", h.Count())
	}
}

func TestMergeTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHLL(10).Merge(NewExact())
}

func TestHLLPrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHLL(10).Merge(NewHLL(12))
}

func TestNewHLLBounds(t *testing.T) {
	for _, p := range []uint8{0, 3, 19} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%d: expected panic", p)
				}
			}()
			NewHLL(p)
		}()
	}
}

// refCount is the HLL estimator evaluated with one math.Ldexp call per
// register, in register order, over the dense registers h stands for.
// HLL.Count must be bit-identical to it in either form.
func refCount(h *HLL) float64 {
	regs := h.registers()
	m := float64(len(regs))
	var sum float64
	zeros := 0
	for _, r := range regs {
		sum += math.Ldexp(1, -int(r))
		if r == 0 {
			zeros++
		}
	}
	est := alpha(len(regs)) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

// copyHLL returns an independent copy of h in h's form.
func copyHLL(h *HLL) *HLL {
	return &HLL{p: h.p, regs: slices.Clone(h.regs), pairs: slices.Clone(h.pairs)}
}

// nonZero counts h's non-zero registers.
func nonZero(h *HLL) int {
	n := 0
	for _, r := range h.registers() {
		if r != 0 {
			n++
		}
	}
	return n
}

// requireMergeIsByteMax merges b into a copy of a and checks every
// register against the byte-wise maximum.
func requireMergeIsByteMax(t *testing.T, a, b *HLL) *HLL {
	t.Helper()
	got := copyHLL(a)
	got.Merge(b)
	ra, rb, rg := a.registers(), b.registers(), got.registers()
	for i := range ra {
		if want := max(ra[i], rb[i]); rg[i] != want {
			t.Fatalf("p=%d register %d: merged %d, want max(%d, %d) (sparse %v <- %v)",
				a.p, i, rg[i], ra[i], rb[i], a.regs == nil, b.regs == nil)
		}
	}
	return got
}

func requireCountBits(t *testing.T, h *HLL) {
	t.Helper()
	if got, want := h.Count(), refCount(h); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("p=%d sparse %v: Count %v (%#x), Ldexp reference %v (%#x)",
			h.p, h.regs == nil, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// requireSparseForm fails unless h, built only from sparse counters, is
// dense exactly when it has more non-zero registers than sparseLimit
// allows, and its sparse pairs are sorted by index with non-zero values.
func requireSparseForm(t *testing.T, h *HLL) {
	t.Helper()
	if dense, over := h.regs != nil, nonZero(h) > sparseLimit(h.p); dense != over {
		t.Fatalf("p=%d: dense %v with %d non-zero registers (limit %d)", h.p, dense, nonZero(h), sparseLimit(h.p))
	}
	for i, e := range h.pairs {
		if uint8(e) == 0 || i > 0 && h.pairs[i-1]>>8 >= e>>8 {
			t.Fatalf("p=%d: pair %d (%#x) zero or out of order", h.p, i, e)
		}
	}
}

// requireSparseMatchesDense builds streams a and b into sparse-born and
// dense counters. Each sparse counter must hold its dense twin's
// registers in the form its size calls for, count bit-identically to the
// Ldexp reference and encode to the same bytes; merges in all four
// sparse/dense pairings must give the byte-wise maximum.
func requireSparseMatchesDense(t *testing.T, p uint8, a, b []uint64) {
	t.Helper()
	sa, sb, da, db := newSparseHLL(p), newSparseHLL(p), NewHLL(p), NewHLL(p)
	for _, x := range a {
		sa.Add(x)
		da.Add(x)
	}
	for _, x := range b {
		sb.Add(x)
		db.Add(x)
	}
	for _, pair := range [][2]*HLL{{sa, da}, {sb, db}} {
		sp, dn := pair[0], pair[1]
		requireSparseForm(t, sp)
		if string(sp.registers()) != string(dn.regs) {
			t.Fatal("sparse registers differ from the dense counter's")
		}
		requireCountBits(t, sp)
		if string(encodeBytes(t, sp)) != string(encodeBytes(t, dn)) {
			t.Fatal("sparse and dense counters encode differently")
		}
	}
	for _, l := range []*HLL{sa, da} {
		for _, r := range []*HLL{sb, db} {
			got := requireMergeIsByteMax(t, l, r)
			requireCountBits(t, got)
			if l.regs == nil && r.regs == nil {
				requireSparseForm(t, got)
			}
		}
	}
	self := copyHLL(sa)
	self.Merge(self)
	if string(self.registers()) != string(sa.registers()) {
		t.Fatal("merging a sparse counter into itself changed it")
	}
}

// TestHLLSparseMatchesDense runs the sparse/dense equivalence over every
// low precision and stream lengths on both sides of the densify limit.
// The two streams share half their items, and at these sizes they also
// share registers through distinct items, so merges meet equal indices
// with different values.
func TestHLLSparseMatchesDense(t *testing.T) {
	src := simrand.New(11)
	for p := uint8(4); p <= 12; p++ {
		limit := sparseLimit(p)
		for _, n := range []int{0, 1, limit / 2, limit, limit + 1, 2 * limit, 8 * limit, 1 << (p + 2)} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = src.Uint64()
			}
			b := append([]uint64(nil), a[:n/2]...)
			for len(b) < n {
				b = append(b, src.Uint64())
			}
			requireSparseMatchesDense(t, p, a, b)
		}
	}
}

// FuzzHLL pins the HLL kernels to their references: an arbitrary item
// stream split into two HLLs at p in [4,18] must count bit-identically to
// the per-register Ldexp loop and merge to the byte-wise maximum (and to
// the HLL of the whole stream). Register files taken straight from the
// input reach register values and sums streams rarely do. The same
// streams, stretched so they cross the densify limit part-way, build
// sparse counters that must hold the dense counters' registers, count
// bit-identically, merge in all four sparse/dense pairings to the
// byte-wise maximum, and encode to the same bytes. TopKDistinct's
// slot-paired merge must match the map-based reference.
func FuzzHLL(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(7), uint8(5))
	f.Add([]byte{0xff, 0, 0x80, 0x7f, 0x41, 0x3d}, uint8(14), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(1))
	// Registers up to 55 at p=10: partial sums round, so any change to the
	// summation order shows in the low bits.
	f.Add([]byte("register files with large values round in the float sum"), uint8(6), uint8(9))
	// p=11, stretched 32x: the sparse counters densify part-way.
	f.Add([]byte("a stream long enough to pass 128 pairs at p=11"), uint8(7), uint8(31))
	f.Fuzz(func(t *testing.T, raw []byte, pRaw, cut uint8) {
		p := 4 + pRaw%15
		var items []uint64
		for rest := raw; len(rest) > 0; {
			var chunk [8]byte
			n := copy(chunk[:], rest)
			rest = rest[n:]
			items = append(items, binary.LittleEndian.Uint64(chunk[:]))
		}
		split := int(cut) % (len(items) + 1)

		a, b, whole := NewHLL(p), NewHLL(p), NewHLL(p)
		for i, x := range items {
			if i < split {
				a.Add(x)
			} else {
				b.Add(x)
			}
			whole.Add(x)
		}
		for _, h := range []*HLL{a, b, whole} {
			requireCountBits(t, h)
		}
		requireMergeIsByteMax(t, a, b)
		merged := NewHLL(p)
		merged.Merge(a)
		merged.Merge(b)
		if string(merged.regs) != string(whole.regs) {
			t.Fatal("merged registers differ from the whole stream's")
		}

		if len(raw) > 0 {
			x, y := NewHLL(p), NewHLL(p)
			for i := range x.regs {
				x.regs[i] = raw[i%len(raw)] % (maxRegister(p) + 1)
				y.regs[i] = raw[(i*7+int(cut))%len(raw)] % (maxRegister(p) + 1)
			}
			requireCountBits(t, x)
			requireCountBits(t, y)
			requireMergeIsByteMax(t, x, y)
		}

		// Sparse rows: each item stands for 1+cut%32 items, so short
		// inputs still cross the densify limit at the usual precisions.
		stretch := 1 + int(cut)%32
		var streams [2][]uint64
		for i, x := range items {
			side := 0
			if i >= split {
				side = 1
			}
			for j := range stretch {
				streams[side] = append(streams[side], x+uint64(j)*0x9e3779b97f4a7c15)
			}
		}
		requireSparseMatchesDense(t, p, streams[0], streams[1])

		// Keys from the item bytes, capacity from the split: small enough
		// that merges evict, drop and clone counters. Low precisions put
		// the densify limit at 1 to 16 pairs, so payloads cross it.
		k, tp := 1+int(cut)%6, 4+pRaw%5
		tkd := [4]*TopKDistinct{}
		for i := range tkd {
			tkd[i] = NewTopKDistinct(k, tp)
		}
		for side, stream := range streams {
			for _, y := range stream {
				tkd[side].Add(y%11, y)
				tkd[side+2].Add(y%11, y)
			}
		}
		tkd[0].Merge(tkd[1])
		refMergeTopKDistinct(tkd[2], tkd[3])
		requireSameTopKDistinct(t, tkd[0], tkd[2])
	})
}

func BenchmarkHLLCount(b *testing.B) {
	for _, p := range []uint8{11, 6} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			h := NewHLL(p)
			for i := 0; i < 4<<p; i++ {
				h.Add(uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Count()
			}
		})
	}
}

func BenchmarkHLLMerge(b *testing.B) {
	x, y := NewHLL(11), NewHLL(11)
	for i := 0; i < 1<<14; i++ {
		x.Add(uint64(2 * i))
		y.Add(uint64(2*i + 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Merge(y)
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := NewHLL(14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(uint64(i))
	}
}

func BenchmarkExactAdd(b *testing.B) {
	e := NewExact()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Add(uint64(i % 100000))
	}
}
