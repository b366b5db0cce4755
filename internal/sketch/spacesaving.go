package sketch

import "sort"

// Entry is one tracked key of a SpaceSaving summary. Count is an upper
// bound on the key's true weight; the overestimate is at most Err, which is
// itself at most N/k. Slot identifies the entry's storage cell: slots are
// stable across Add calls (an eviction reuses the victim's slot for the
// newcomer), which lets callers keep per-key payloads in a slot-indexed
// slice with zero steady-state allocation. Merge and Reset renumber slots.
type Entry struct {
	Key   uint64
	Count uint64
	Err   uint64
	Slot  int32
}

// SpaceSaving is the space-saving heavy-hitters summary (Metwally, Agrawal
// & El Abbadi): at most k tracked keys, each with a count and an error
// bound. Invariants, for every tracked key:
//
//	true weight ≤ Count ≤ true weight + Err,   Err ≤ N/k
//
// and every key whose true weight exceeds N/k is tracked. Eviction and
// merge ties are resolved by a fixed total order on (count, err, key), so
// summary contents are a pure function of the input stream — never of map
// iteration order or scheduling. Keys must therefore be stable identifiers
// (site IDs, interned-name hashes), not values that vary run to run.
//
// Merge implements the mergeable-summaries combination (Agarwal et al.;
// Cafaro, Pulimeno & Tempesta): counts of keys absent from one side are
// bounded by that side's minimum count, the union is re-truncated to the k
// largest, and both invariants above hold for the concatenated stream. A
// merge of summaries that never evicted (fewer than k distinct keys each)
// is the exact union.
//
// The key index is a linear-probing table with backward-shift deletion
// rather than a Go map: eviction churn (delete one key, insert another,
// forever) must not allocate, and Go maps occasionally grow in place to
// clean tombstones under exactly that workload.
type SpaceSaving struct {
	k int
	n uint64

	entries []ssEntry // slot-indexed; grows on demand up to k
	heap    []int32   // min-heap of slots, evictee at the root
	pos     []int32   // slot -> heap index

	// Open-addressing key index: tslots[i] is the slot of tkeys[i], or -1
	// for an empty cell. Sized to at least twice the entry count.
	tkeys  []uint64
	tslots []int32
	tmask  uint64
}

type ssEntry struct {
	key   uint64
	count uint64
	err   uint64
}

// NewSpaceSaving returns an empty summary tracking at most k keys (minimum
// 1). Storage grows with the number of distinct keys seen, up to k.
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	s := &SpaceSaving{k: k}
	s.growIndex(16)
	return s
}

// K returns the summary's capacity.
func (s *SpaceSaving) K() int { return s.k }

// N returns the total weight added (including weight merged in).
func (s *SpaceSaving) N() uint64 { return s.n }

// Len returns the number of tracked keys.
func (s *SpaceSaving) Len() int { return len(s.entries) }

// ErrorBound returns ceil(N/k), the worst-case overestimate of any count.
func (s *SpaceSaving) ErrorBound() uint64 {
	return (s.n + uint64(s.k) - 1) / uint64(s.k)
}

// --- key index -----------------------------------------------------------

func (s *SpaceSaving) growIndex(capacity int) {
	old := s.tkeys
	oldSlots := s.tslots
	s.tkeys = make([]uint64, capacity)
	s.tslots = make([]int32, capacity)
	for i := range s.tslots {
		s.tslots[i] = -1
	}
	s.tmask = uint64(capacity - 1)
	for i, slot := range oldSlots {
		if slot >= 0 {
			s.idxInsert(old[i], slot)
		}
	}
}

// idxFind returns the key's slot, or -1.
func (s *SpaceSaving) idxFind(key uint64) int32 {
	i := mix(key) & s.tmask
	for {
		if s.tslots[i] < 0 {
			return -1
		}
		if s.tkeys[i] == key {
			return s.tslots[i]
		}
		i = (i + 1) & s.tmask
	}
}

// idxInsert records key -> slot; the key must not be present.
func (s *SpaceSaving) idxInsert(key uint64, slot int32) {
	i := mix(key) & s.tmask
	for s.tslots[i] >= 0 {
		i = (i + 1) & s.tmask
	}
	s.tkeys[i] = key
	s.tslots[i] = slot
}

// idxDelete removes a present key using backward-shift deletion, leaving
// no tombstones (steady-state churn never allocates).
func (s *SpaceSaving) idxDelete(key uint64) {
	mask := s.tmask
	i := mix(key) & mask
	for s.tslots[i] < 0 || s.tkeys[i] != key {
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if s.tslots[j] < 0 {
			break
		}
		ideal := mix(s.tkeys[j]) & mask
		// Shift j's element into the hole at i unless its ideal cell lies
		// cyclically within (i, j] — then the probe chain still reaches it.
		if (j > i && (ideal <= i || ideal > j)) || (j < i && (ideal <= i && ideal > j)) {
			s.tkeys[i] = s.tkeys[j]
			s.tslots[i] = s.tslots[j]
			i = j
		}
	}
	s.tslots[i] = -1
}

// --- heap ----------------------------------------------------------------

// evictBefore reports whether slot a is a better eviction candidate than
// slot b: smaller count first, then larger error (less reliable), then
// larger key. A fixed total order keeps eviction deterministic.
func (s *SpaceSaving) evictBefore(a, b int32) bool {
	ea, eb := &s.entries[a], &s.entries[b]
	if ea.count != eb.count {
		return ea.count < eb.count
	}
	if ea.err != eb.err {
		return ea.err > eb.err
	}
	return ea.key > eb.key
}

func (s *SpaceSaving) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.evictBefore(s.heap[i], s.heap[parent]) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *SpaceSaving) siftDown(i int) {
	n := len(s.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && s.evictBefore(s.heap[l], s.heap[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && s.evictBefore(s.heap[r], s.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		s.swap(i, least)
		i = least
	}
}

func (s *SpaceSaving) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]] = int32(i)
	s.pos[s.heap[j]] = int32(j)
}

// --- updates -------------------------------------------------------------

// Add records weight n for the key and returns the key's entry slot. When
// the summary is full and the key is new, the current eviction candidate
// is replaced in place — its count inherited as the newcomer's error bound
// — and the evicted key is reported so callers can recycle any per-slot
// payload (e.g. an attached HLL). Steady-state Add never allocates.
func (s *SpaceSaving) Add(key uint64, n uint64) (slot int32, evicted uint64, didEvict bool) {
	s.n += n
	if slot = s.idxFind(key); slot >= 0 {
		s.entries[slot].count += n
		s.siftDown(int(s.pos[slot]))
		return slot, 0, false
	}
	if len(s.entries) < s.k {
		slot = int32(len(s.entries))
		if 2*(len(s.entries)+1) > len(s.tkeys) {
			s.growIndex(2 * len(s.tkeys))
		}
		s.entries = append(s.entries, ssEntry{key: key, count: n})
		s.heap = append(s.heap, slot)
		s.pos = append(s.pos, int32(len(s.heap)-1))
		s.idxInsert(key, slot)
		s.siftUp(len(s.heap) - 1)
		return slot, 0, false
	}
	slot = s.heap[0]
	e := &s.entries[slot]
	evicted = e.key
	s.idxDelete(evicted)
	min := e.count
	*e = ssEntry{key: key, count: min + n, err: min}
	s.idxInsert(key, slot)
	s.siftDown(0)
	return slot, evicted, true
}

// Count returns the tracked count and error bound for a key.
func (s *SpaceSaving) Count(key uint64) (count, err uint64, ok bool) {
	slot := s.idxFind(key)
	if slot < 0 {
		return 0, 0, false
	}
	return s.entries[slot].count, s.entries[slot].err, true
}

// Slot returns the key's entry slot, or -1 when untracked.
func (s *SpaceSaving) Slot(key uint64) int32 { return s.idxFind(key) }

// minCount returns the smallest tracked count when the summary is full, or
// 0 otherwise: the upper bound on the true weight of any untracked key.
func (s *SpaceSaving) minCount() uint64 {
	if len(s.entries) < s.k {
		return 0
	}
	return s.entries[s.heap[0]].count
}

// Entries appends the tracked keys to dst in canonical order — count
// descending, then error ascending, then key ascending — and returns it.
// The canonical order is a pure function of summary contents, never of
// insertion history, so it is safe to rank from.
func (s *SpaceSaving) Entries(dst []Entry) []Entry {
	for i := range s.entries {
		e := &s.entries[i]
		dst = append(dst, Entry{Key: e.key, Count: e.count, Err: e.err, Slot: int32(i)})
	}
	tail := dst[len(dst)-len(s.entries):]
	sortEntries(tail)
	return dst
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(a, b int) bool {
		if es[a].Count != es[b].Count {
			return es[a].Count > es[b].Count
		}
		if es[a].Err != es[b].Err {
			return es[a].Err < es[b].Err
		}
		return es[a].Key < es[b].Key
	})
}

// Merge folds another summary (same capacity) into this one, implementing
// the mergeable-summaries combination. o is not modified. The invariants
// hold afterwards for the concatenated stream; keys dropped by the
// re-truncation are reported through drop (if non-nil) so callers can
// release per-key payloads. Merge renumbers slots — callers keeping
// slot-indexed payloads must rebuild them (see Slot). Merging runs at the
// day barrier, not on the per-event path, so it may allocate.
func (s *SpaceSaving) Merge(o *SpaceSaving, drop func(key uint64)) {
	s.merge(o, drop)
}

// merge is Merge, returning the kept entries in the merged summary's slot
// order (entry i now occupies slot i). Each returned Slot is the slot the
// key held in s before the merge, or -1 when only o tracked it, which lets
// callers move slot-indexed payloads without a key lookup on their side.
func (s *SpaceSaving) merge(o *SpaceSaving, drop func(key uint64)) []Entry {
	if o.k != s.k {
		panic("sketch: merging SpaceSaving summaries of different capacity")
	}
	minS, minO := s.minCount(), o.minCount()
	combined := make([]Entry, 0, len(s.entries)+len(o.entries))
	for i := range s.entries {
		e := &s.entries[i]
		c, err := e.count, e.err
		if oc, oe, ok := o.Count(e.key); ok {
			c += oc
			err += oe
		} else {
			c += minO
			err += minO
		}
		combined = append(combined, Entry{Key: e.key, Count: c, Err: err, Slot: int32(i)})
	}
	for i := range o.entries {
		e := &o.entries[i]
		if s.idxFind(e.key) >= 0 {
			continue
		}
		combined = append(combined, Entry{Key: e.key, Count: e.count + minS, Err: e.err + minS, Slot: -1})
	}
	sortEntries(combined)
	keep := combined
	if len(keep) > s.k {
		keep = combined[:s.k]
		if drop != nil {
			for _, e := range combined[s.k:] {
				drop(e.Key)
			}
		}
	}

	n := s.n + o.n
	s.Reset()
	s.n = n
	for _, e := range keep {
		slot := int32(len(s.entries))
		if 2*(len(s.entries)+1) > len(s.tkeys) {
			s.growIndex(2 * len(s.tkeys))
		}
		s.entries = append(s.entries, ssEntry{key: e.Key, count: e.Count, err: e.Err})
		s.heap = append(s.heap, slot)
		s.pos = append(s.pos, int32(len(s.heap)-1))
		s.idxInsert(e.Key, slot)
		s.siftUp(len(s.heap) - 1)
	}
	return keep
}

// Reset returns the summary to empty for reuse, keeping capacity.
func (s *SpaceSaving) Reset() {
	s.entries = s.entries[:0]
	s.heap = s.heap[:0]
	s.pos = s.pos[:0]
	for i := range s.tslots {
		s.tslots[i] = -1
	}
	s.n = 0
}

// MemBytes returns the logical memory footprint: a function of the number
// of tracked keys only (safe for deterministic gauges).
func (s *SpaceSaving) MemBytes() int {
	return len(s.entries)*24 + len(s.heap)*4 + len(s.pos)*4 + len(s.tkeys)*12
}
