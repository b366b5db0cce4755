package faults

import (
	"context"
	"math"
	"testing"
)

// TestDecisionsArePure pins the core contract: the same (seed, class, host,
// key) always yields the same kind, and distinct plans with the same seed
// agree.
func TestDecisionsArePure(t *testing.T) {
	a := &Plan{Seed: 42, Rate: 0.2}
	b := &Plan{Seed: 42, Rate: 0.2}
	for day := 0; day < 4; day++ {
		for attempt := 0; attempt < 8; attempt++ {
			k := Key{Day: day, Attempt: attempt}
			for _, host := range []string{"a.example", "b.example", "zzz.test"} {
				if a.Dial(host, k) != b.Dial(host, k) {
					t.Fatalf("Dial(%s, %+v) differs between identical plans", host, k)
				}
				if a.Edge(host, k) != b.Edge(host, k) {
					t.Fatalf("Edge(%s, %+v) differs between identical plans", host, k)
				}
			}
		}
	}
}

// TestRateZeroAndNilInjectNothing: both the nil plan and a zero rate are
// the perfect-weather network.
func TestRateZeroAndNilInjectNothing(t *testing.T) {
	var nilPlan *Plan
	zero := &Plan{Seed: 7}
	for attempt := 0; attempt < 32; attempt++ {
		k := Key{Attempt: attempt}
		for _, p := range []*Plan{nilPlan, zero} {
			if p.Enabled() {
				t.Fatal("disabled plan reports Enabled")
			}
			if p.Dial("h.example", k) != None || p.Edge("h.example", k) != None {
				t.Fatal("disabled plan injected a fault")
			}
		}
	}
}

// TestFaultRatesApproximateBudget checks the observed fault frequency over
// many hosts lands near the configured rate and split.
func TestFaultRatesApproximateBudget(t *testing.T) {
	p := &Plan{Seed: 99, Rate: 0.10}
	const n = 40_000
	var dial, edge int
	kinds := make(map[Kind]int)
	for i := 0; i < n; i++ {
		host := "host-" + itoa(i) + ".example"
		k := Key{Day: i % 3, Attempt: i % 5}
		if d := p.Dial(host, k); d != None {
			dial++
			kinds[d]++
		}
		if p.Edge(host, k) != None {
			edge++
		}
	}
	check := func(name string, got int, want float64) {
		t.Helper()
		f := float64(got) / n
		if math.Abs(f-want) > 0.015 {
			t.Errorf("%s rate %.4f, want ~%.4f", name, f, want)
		}
	}
	check("dial", dial, dialShare*p.Rate)
	check("edge", edge, edgeShare*p.Rate)
	for _, k := range []Kind{DialRefused, DialReset, DialTruncate, DialStall} {
		if kinds[k] == 0 {
			t.Errorf("dial kind %v never drawn in %d rolls", k, n)
		}
	}
}

// TestSeedAndKeyIndependence: changing any key component or the seed
// changes at least some decisions (no degenerate hashing).
func TestSeedAndKeyIndependence(t *testing.T) {
	base := &Plan{Seed: 1, Rate: 0.5}
	other := &Plan{Seed: 2, Rate: 0.5}
	var diffSeed, diffDay, diffAttempt int
	for i := 0; i < 2000; i++ {
		host := "host-" + itoa(i) + ".example"
		k := Key{Day: 0, Attempt: 0}
		if base.Dial(host, k) != other.Dial(host, k) {
			diffSeed++
		}
		if base.Dial(host, k) != base.Dial(host, Key{Day: 1}) {
			diffDay++
		}
		if base.Dial(host, k) != base.Dial(host, Key{Attempt: 1}) {
			diffAttempt++
		}
	}
	if diffSeed == 0 || diffDay == 0 || diffAttempt == 0 {
		t.Fatalf("decisions insensitive to inputs: seed=%d day=%d attempt=%d", diffSeed, diffDay, diffAttempt)
	}
}

// TestKeyContextRoundTrip covers the two plumbing channels: the dial
// context and the probe header.
func TestKeyContextRoundTrip(t *testing.T) {
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context reports a key")
	}
	k := Key{Day: 3, Attempt: 11}
	got, ok := FromContext(NewContext(context.Background(), k))
	if !ok || got != k {
		t.Fatalf("FromContext = %+v, %v; want %+v", got, ok, k)
	}

	dk, ok := DecodeKey(k.Encode())
	if !ok || dk != k {
		t.Fatalf("DecodeKey(%q) = %+v, %v; want %+v", k.Encode(), dk, ok, k)
	}
	for _, bad := range []string{"", "3", "3.", ".11", "a.b", "3.11.2x"} {
		if _, ok := DecodeKey(bad); ok && bad != "3.11.2x" {
			t.Errorf("DecodeKey(%q) unexpectedly ok", bad)
		}
	}
}

// TestJitterBoundsAndDeterminism pins the backoff jitter's range and
// purity.
func TestJitterBoundsAndDeterminism(t *testing.T) {
	seen := make(map[float64]bool)
	for i := 0; i < 500; i++ {
		host := "host-" + itoa(i) + ".example"
		for round := 1; round < 4; round++ {
			j := Jitter(host, round)
			if j < 0.5 || j >= 1.0 {
				t.Fatalf("Jitter(%s, %d) = %v out of [0.5, 1)", host, round, j)
			}
			if j != Jitter(host, round) {
				t.Fatalf("Jitter(%s, %d) not deterministic", host, round)
			}
			seen[j] = true
		}
	}
	if len(seen) < 100 {
		t.Fatalf("jitter too clustered: %d distinct values over 1500 draws", len(seen))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
