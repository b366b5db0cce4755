package sketch

import (
	"testing"

	"toplists/internal/simrand"
)

// TestSketchHotPathZeroAllocs pins the shard-local update path at zero
// allocations per event: CountMin.Add, HLL.Add, and steady-state
// SpaceSaving.Add — including the eviction path, which deletes one key and
// inserts another on every call and is exactly the churn that would make a
// Go map grow in place. A regression here turns the million-client run
// into a GC benchmark.
func TestSketchHotPathZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short test caches")
	}

	cm := NewCountMin(1024, 4)
	src := simrand.New(1)
	if avg := testing.AllocsPerRun(200, func() {
		cm.Add(src.Uint64(), 1)
	}); avg != 0 {
		t.Errorf("CountMin.Add allocates %.1f per call", avg)
	}

	hll := NewHLL(11)
	if avg := testing.AllocsPerRun(200, func() {
		hll.Add(src.Uint64())
	}); avg != 0 {
		t.Errorf("HLL.Add allocates %.1f per call", avg)
	}

	// Fill the summary first so every subsequent distinct key takes the
	// eviction path; repeated keys take the update path. Both must be free.
	ss := NewSpaceSaving(256)
	for i := 0; i < 4096; i++ {
		ss.Add(src.Uint64(), 1)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		ss.Add(src.Uint64(), 1) // almost always a fresh key: evicts
	}); avg != 0 {
		t.Errorf("SpaceSaving.Add (eviction path) allocates %.3f per call", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		ss.Add(42, 1) // tracked after the first call: updates
	}); avg != 0 {
		t.Errorf("SpaceSaving.Add (update path) allocates %.3f per call", avg)
	}
}

// TestTopKDistinctAddZeroAllocs pins steady-state TopKDistinct.Add once
// its pool is warm: the eviction path recycles the coldest key's sparse
// counter with its pair capacity, and the update path raises registers in
// place, whether the key's counter is sparse or has gone dense.
func TestTopKDistinctAddZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short test caches")
	}

	src := simrand.New(2)
	tkd := NewTopKDistinct(256, 11)
	for i := 0; i < 4096; i++ {
		tkd.Add(src.Uint64(), src.Uint64())
	}
	if avg := testing.AllocsPerRun(2000, func() {
		tkd.Add(src.Uint64(), src.Uint64()) // a fresh key: evicts
	}); avg != 0 {
		t.Errorf("TopKDistinct.Add (eviction path) allocates %.3f per call", avg)
	}

	// Key 42 goes dense, key 43 stays sparse; both are then hot enough
	// to stay tracked, and see only items they already hold.
	for i := uint64(0); i < 4096; i++ {
		tkd.Add(42, i)
		tkd.Add(43, i%16)
	}
	if h := tkd.payloads[tkd.SS.Slot(42)]; h.regs == nil {
		t.Fatal("key 42's counter is still sparse")
	}
	if h := tkd.payloads[tkd.SS.Slot(43)]; h.regs != nil {
		t.Fatal("key 43's counter went dense")
	}
	var i uint64
	if avg := testing.AllocsPerRun(2000, func() {
		i++
		tkd.Add(42, i%4096)
		tkd.Add(43, i%16)
	}); avg != 0 {
		t.Errorf("TopKDistinct.Add (update path) allocates %.3f per call", avg)
	}
}
