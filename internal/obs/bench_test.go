package obs

import (
	"testing"
	"time"
)

// The obs primitive costs (history in EXPERIMENTS.md, "Retired one-off
// records"): these are the per-event prices the instrumented hot paths
// pay.

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkNilCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	p := NewRegistry().Phase("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Start().End()
	}
}

func BenchmarkRegistrySpan(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span("bench").End()
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		r.Counter("c" + string(rune('a'+i%26)) + string(rune('a'+i/26))).Add(int64(i))
		r.Histogram("h" + string(rune('a'+i%26)) + string(rune('a'+i/26))).Observe(time.Duration(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
