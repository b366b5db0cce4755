package sketch

import "slices"

// TopKDistinct couples a SpaceSaving candidate summary with one HLL per
// tracked key: the shape of a bounded "unique visitors per name" aggregation.
// Candidate selection is by event volume (the space-saving count), while the
// published score per candidate is the HLL's distinct estimate. HLLs ride in
// a slot-indexed slice so the per-event path reuses the evicted key's
// counter in place and never allocates in steady state; evicted and merged
// counters are recycled through a free list.
type TopKDistinct struct {
	SS *SpaceSaving

	p        uint8
	payloads []*HLL // slot-indexed, parallel to SS entries
	free     []*HLL
}

// NewTopKDistinct returns an empty summary tracking at most k keys with
// 2^p-register HLL payloads.
func NewTopKDistinct(k int, p uint8) *TopKDistinct {
	return &TopKDistinct{SS: NewSpaceSaving(k), p: p}
}

func (t *TopKDistinct) alloc() *HLL {
	if n := len(t.free); n > 0 {
		h := t.free[n-1]
		t.free = t.free[:n-1]
		h.Reset()
		return h
	}
	return NewHLL(t.p)
}

// clone returns a counter holding a copy of h's registers, reusing a pooled
// one when available; the copy overwrites every register, so no Reset.
func (t *TopKDistinct) clone(h *HLL) *HLL {
	n := len(t.free)
	if n == 0 {
		return &HLL{p: t.p, regs: slices.Clone(h.regs)}
	}
	c := t.free[n-1]
	t.free = t.free[:n-1]
	copy(c.regs, h.regs)
	return c
}

// Add records one event for key carrying the distinct item (e.g. a client
// IP). When the summary is full the coldest key's counter is recycled for
// the newcomer, so a key's distinct estimate covers only its tracked span —
// the same information loss the space-saving count bound already admits.
func (t *TopKDistinct) Add(key uint64, item uint64) {
	slot, _, evicted := t.SS.Add(key, 1)
	if int(slot) == len(t.payloads) {
		t.payloads = append(t.payloads, t.alloc())
	} else if evicted {
		t.payloads[slot].Reset()
	}
	t.payloads[slot].Add(item)
}

// Distinct returns the tracked key's distinct-item estimate.
func (t *TopKDistinct) Distinct(key uint64) (float64, bool) {
	slot := t.SS.Slot(key)
	if slot < 0 {
		return 0, false
	}
	return t.payloads[slot].Count(), true
}

// DistinctAt returns the distinct-item estimate for an entry slot (as
// reported by Entries).
func (t *TopKDistinct) DistinctAt(slot int32) float64 {
	return t.payloads[slot].Count()
}

// Entries appends the tracked keys in canonical order; each entry's Slot
// indexes DistinctAt.
func (t *TopKDistinct) Entries(dst []Entry) []Entry { return t.SS.Entries(dst) }

// Merge folds another summary into this one: space-saving counts combine
// per the mergeable-summaries rule, and surviving keys' HLLs take register
// maxima over both sides (a key only one side tracked keeps that side's
// registers). HLLs are paired by slot: the space-saving merge reports each
// surviving key's previous slot here, and o's slot is one index probe. o
// is not modified. Runs at the day barrier, so it may allocate.
func (t *TopKDistinct) Merge(o *TopKDistinct) {
	if o.p != t.p {
		panic("sketch: merging TopKDistinct summaries of different precision")
	}
	old := t.payloads
	kept := t.SS.merge(o.SS, nil)
	t.payloads = make([]*HLL, len(kept))
	for slot, e := range kept {
		theirs := o.SS.Slot(e.Key)
		if e.Slot < 0 {
			t.payloads[slot] = t.clone(o.payloads[theirs])
			continue
		}
		h := old[e.Slot]
		old[e.Slot] = nil
		if theirs >= 0 {
			h.Merge(o.payloads[theirs])
		}
		t.payloads[slot] = h
	}
	// Counters of dropped keys go back to the pool.
	for _, h := range old {
		if h != nil {
			t.free = append(t.free, h)
		}
	}
}

// Reset empties the summary, returning every counter to the pool.
func (t *TopKDistinct) Reset() {
	t.SS.Reset()
	t.free = append(t.free, t.payloads...)
	t.payloads = t.payloads[:0]
}

// MemBytes returns the logical footprint: the space-saving summary plus one
// HLL per tracked key.
func (t *TopKDistinct) MemBytes() int {
	return t.SS.MemBytes() + len(t.payloads)*(1<<t.p)
}
