package sketch

import (
	"testing"

	"toplists/internal/simrand"
)

// refMergeTopKDistinct is the map-based TopKDistinct merge: index both
// sides' counters by key, merge the space-saving summaries, then look each
// surviving key up on both sides. TopKDistinct.Merge must match it exactly.
func refMergeTopKDistinct(t, o *TopKDistinct) {
	mine := make(map[uint64]*HLL, t.SS.Len())
	for _, e := range t.SS.Entries(nil) {
		mine[e.Key] = t.payloads[e.Slot]
	}
	theirs := make(map[uint64]*HLL, o.SS.Len())
	for _, e := range o.SS.Entries(nil) {
		theirs[e.Key] = o.payloads[e.Slot]
	}
	t.SS.Merge(o.SS, nil)

	t.payloads = make([]*HLL, t.SS.Len())
	for _, e := range t.SS.Entries(nil) {
		h := mine[e.Key]
		if h == nil {
			h = t.alloc()
		}
		if oh := theirs[e.Key]; oh != nil {
			h.Merge(oh)
		}
		t.payloads[e.Slot] = h
		delete(mine, e.Key)
	}
	for _, h := range mine {
		t.free = append(t.free, h)
	}
}

// requireSameTopKDistinct fails unless a and b track the same keys with
// the same counts, slots and registers.
func requireSameTopKDistinct(t *testing.T, a, b *TopKDistinct) {
	t.Helper()
	ea, eb := a.Entries(nil), b.Entries(nil)
	if len(ea) != len(eb) {
		t.Fatalf("tracked %d keys, reference %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("entry %d: %+v, reference %+v", i, ea[i], eb[i])
		}
		ha, hb := a.payloads[ea[i].Slot], b.payloads[eb[i].Slot]
		if string(ha.regs) != string(hb.regs) {
			t.Fatalf("key %d: registers differ from reference", ea[i].Key)
		}
	}
}

// fillTopKDistinct adds n events over nKeys zipf-ish keys to t.
func fillTopKDistinct(t *TopKDistinct, src *simrand.Source, n, nKeys int) {
	for i := 0; i < n; i++ {
		t.Add(uint64(src.Intn(1+src.Intn(nKeys))), src.Uint64()%5000)
	}
}

// TestTopKDistinctMergeMatchesReference runs the day-barrier pattern —
// reset, then fold shards in order, over several days so pooled counters
// are reused — against the map-based reference, with enough keys that
// merges both drop and clone counters.
func TestTopKDistinctMergeMatchesReference(t *testing.T) {
	const k, p, shards = 64, 6, 4
	day, ref := NewTopKDistinct(k, p), NewTopKDistinct(k, p)
	src := simrand.New(3)
	for d := 0; d < 3; d++ {
		day.Reset()
		ref.Reset()
		for s := 0; s < shards; s++ {
			sh := NewTopKDistinct(k, p)
			fillTopKDistinct(sh, src, 4000, 300)
			day.Merge(sh)
			refMergeTopKDistinct(ref, sh)
			requireSameTopKDistinct(t, day, ref)
		}
	}
}

func BenchmarkTopKDistinctMerge(b *testing.B) {
	const k, p = 512, 11
	src := simrand.New(1)
	x, y := NewTopKDistinct(k, p), NewTopKDistinct(k, p)
	fillTopKDistinct(x, src, 200000, 4000)
	fillTopKDistinct(y, src, 200000, 4000)
	dst := NewTopKDistinct(k, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		dst.Merge(x)
		dst.Merge(y)
	}
}
