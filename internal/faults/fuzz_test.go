package faults

import "testing"

// FuzzFaultPlan asserts plan decisions are pure functions of their key: any
// (seed, rate, host, day, attempt) evaluated twice agrees with itself,
// always lands in the valid kind set for its channel, and a disabled plan
// never injects.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint64(1), 0.05, "example.com", 0, 0)
	f.Add(uint64(2022), 0.2, "a.b.c.example", 27, 7)
	f.Add(uint64(0), 0.0, "", -1, -3)
	f.Add(^uint64(0), 1.0, "x", 1<<20, 1<<20)
	f.Fuzz(func(t *testing.T, seed uint64, rate float64, host string, day, attempt int) {
		if rate < 0 || rate > 1 || rate != rate {
			return
		}
		p := &Plan{Seed: seed, Rate: rate}
		k := Key{Day: day, Attempt: attempt}

		d1, d2 := p.Dial(host, k), p.Dial(host, k)
		e1, e2 := p.Edge(host, k), p.Edge(host, k)
		if d1 != d2 || e1 != e2 {
			t.Fatalf("impure decision: dial %v/%v edge %v/%v", d1, d2, e1, e2)
		}
		switch d1 {
		case None, DialRefused, DialReset, DialTruncate, DialStall:
		default:
			t.Fatalf("Dial returned non-dial kind %v", d1)
		}
		if e1 != None && e1 != Edge5xx {
			t.Fatalf("Edge returned non-edge kind %v", e1)
		}
		if rate == 0 && (d1 != None || e1 != None) {
			t.Fatal("zero-rate plan injected a fault")
		}
	})
}

// FuzzDecodeKey feeds arbitrary ProbeHeader values to DecodeKey, which
// parses a header arriving over the wire: it must never panic, every
// encoded key must decode back to itself, and an accepted value must
// re-encode to a value that decodes to the same key.
func FuzzDecodeKey(f *testing.F) {
	f.Add("0.0", 0, 0)
	f.Add("27.3", 27, 3)
	f.Add("-1.-3", -1, -3)
	f.Add("1.2.3", 1<<20, 1<<20)
	f.Add(".", 0, 0)
	f.Add("+4.007", 0, 0)
	f.Add("99999999999999999999.0", 0, 0)
	f.Fuzz(func(t *testing.T, s string, day, attempt int) {
		k := Key{Day: day, Attempt: attempt}
		if got, ok := DecodeKey(k.Encode()); !ok || got != k {
			t.Fatalf("DecodeKey(%q) = %+v, %v; want %+v, true", k.Encode(), got, ok, k)
		}
		got, ok := DecodeKey(s)
		if !ok {
			return
		}
		if again, ok := DecodeKey(got.Encode()); !ok || again != got {
			t.Fatalf("DecodeKey(%q) = %+v, but its encoding %q decodes to %+v, %v", s, got, got.Encode(), again, ok)
		}
	})
}
