package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every duration histogram: bucket
// i holds observations whose nanosecond value has bit length i, i.e.
// durations in (2^(i-1), 2^i - 1] ns, with bucket 0 taking everything
// non-positive. 64 buckets cover the full int64 nanosecond range, so no
// observation is ever out of range and Observe never branches on bounds.
const NumBuckets = 64

// bucketIndex maps a duration to its histogram bucket. Non-positive
// durations (clock adjustments, zero-cost spans) land in bucket 0 rather
// than corrupting an index — the property FuzzBucketIndex pins.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// BucketUpperBound returns the inclusive upper bound (in nanoseconds) of
// bucket i, and a very large sentinel for the last bucket.
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(uint64(1)<<uint(i) - 1)
}

// Histogram is a fixed-bucket log2 duration histogram. Observe is lock-free
// and allocation-free; all fields are atomics so concurrent shards can
// hammer one histogram without coordination. Durations are wall-clock
// observations, so histograms are always volatile: they appear in the run
// report's duration section, never in its deterministic subset.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; valid when count > 0
	max     atomic.Int64 // nanoseconds
	buckets [NumBuckets]atomic.Int64
}

// Observe records one duration. Safe on nil.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	h.buckets[bucketIndex(d)].Add(1)
	h.sum.Add(ns)
	if h.count.Add(1) == 1 {
		// First observation seeds min; a racing second observer that loses
		// this store is reconciled by the CAS loops below.
		h.min.Store(ns)
	}
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// quantile returns the approximate q-quantile (0..1) as the upper bound of
// the bucket where the cumulative count crosses q.
func (h *Histogram) quantile(q float64) int64 {
	return bucketQuantile(h.count.Load(), &h.buckets, q)
}

// bucketQuantile is the shared quantile kernel for Histogram and Phase:
// the upper bound of the log2 bucket where the cumulative count crosses q.
func bucketQuantile(total int64, buckets *[NumBuckets]atomic.Int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += buckets[i].Load()
		if cum > target {
			return BucketUpperBound(i)
		}
	}
	return BucketUpperBound(NumBuckets - 1)
}

// Phase accumulates span-style timings for one named phase of the run:
// how many times it ran, total and maximum wall time, plus the same log2
// buckets as Histogram so the summary can report phase p50/p99. Record and
// the Start/End pair are allocation-free. If the owning registry has a
// Tracer attached, completed spans also land on the run timeline.
type Phase struct {
	name    string
	count   atomic.Int64
	totalNS atomic.Int64
	maxNS   atomic.Int64
	buckets [NumBuckets]atomic.Int64
	tracer  atomic.Pointer[Tracer]
}

// Record adds one completed timing. Safe on nil.
func (p *Phase) Record(d time.Duration) {
	if p == nil {
		return
	}
	ns := int64(d)
	p.count.Add(1)
	p.totalNS.Add(ns)
	p.buckets[bucketIndex(d)].Add(1)
	for {
		cur := p.maxNS.Load()
		if ns <= cur || p.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// quantile returns the approximate q-quantile of recorded spans.
func (p *Phase) quantile(q float64) int64 {
	return bucketQuantile(p.count.Load(), &p.buckets, q)
}

// Start opens a span on the phase. Safe on nil.
func (p *Phase) Start() SpanTimer {
	return SpanTimer{p: p, start: time.Now()}
}

// SpanTimer is an open span: a phase plus its start time, held by value so
// starting and ending a span allocates nothing.
type SpanTimer struct {
	p     *Phase
	start time.Time
}

// End closes the span, recording its duration into the phase — and onto
// the run timeline when a tracer is attached (one nil-check branch
// otherwise). Safe on the zero value.
func (s SpanTimer) End() {
	if s.p == nil {
		return
	}
	d := time.Since(s.start)
	s.p.Record(d)
	if t := s.p.tracer.Load(); t != nil {
		t.Phase(s.p.name, s.start, d)
	}
}

// Span opens a span on the named phase of r. Safe on a nil registry (the
// returned span is inert).
func (r *Registry) Span(name string) SpanTimer {
	return r.Phase(name).Start()
}
