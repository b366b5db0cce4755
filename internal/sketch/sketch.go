// Package sketch provides mergeable, memory-bounded stream summaries for
// the aggregation pipeline: exact and HyperLogLog distinct counters behind
// the Distinct interface, a count-min frequency sketch (CountMin), and a
// space-saving top-k summary (SpaceSaving); the NewShard constructors size
// them at the fixed dimensions of the sketch-mode aggregation path.
//
// Every summary supports Merge and Reset, and merging per-shard summaries
// is either exactly (CountMin: cell-wise sums; HLL: register maxima) or
// within proven bounds (SpaceSaving) equal to summarizing the concatenated
// stream — which is what lets the traffic engine accumulate bounded state
// per shard and combine fixed-size summaries at the day barrier. With
// Config.Enabled off the consumers keep exact structures in the same shard
// states, the oracle the sketch mode is tested against.
package sketch

import (
	"encoding/binary"
	"math"
	"slices"
)

// Distinct counts the approximate or exact number of distinct uint64 items.
type Distinct interface {
	// Add records an item. Items are expected to be pre-hashed or uniformly
	// distributed (client identities in the simulation are hashed IDs).
	Add(item uint64)
	// Count returns the estimated number of distinct items added.
	Count() float64
	// Merge folds another counter of the same concrete type into this one.
	// It panics on a type mismatch.
	Merge(other Distinct)
	// Reset returns the counter to empty for reuse.
	Reset()
}

// Exact is a map-backed exact distinct counter.
type Exact struct {
	seen map[uint64]struct{}
}

// NewExact returns an empty exact counter.
func NewExact() *Exact {
	return &Exact{seen: make(map[uint64]struct{})}
}

// Add implements Distinct.
func (e *Exact) Add(item uint64) { e.seen[item] = struct{}{} }

// Count implements Distinct.
func (e *Exact) Count() float64 { return float64(len(e.seen)) }

// Merge implements Distinct.
func (e *Exact) Merge(other Distinct) {
	o, ok := other.(*Exact)
	if !ok {
		panic("sketch: merging Exact with non-Exact")
	}
	for k := range o.seen {
		e.seen[k] = struct{}{}
	}
}

// Reset implements Distinct.
func (e *Exact) Reset() { clear(e.seen) }

// MemBytes returns the logical footprint of the seen-set.
func (e *Exact) MemBytes() int { return len(e.seen) * 16 }

// HLL is a HyperLogLog counter with 2^p registers and the standard
// small-range (linear counting) correction. p=14 gives a typical relative
// error of about 0.81%, plenty below the simulation's sampling noise.
//
// A counter holds its registers in one of two forms. The dense form is the
// register file, one byte per register. The sparse form (Heule, Nunkesser
// and Hall, "HyperLogLog in Practice", EDBT 2013) is a list of
// idx<<8|value pairs, one per non-zero register, sorted by index; it
// stands for the register file that is zero everywhere else, so both forms
// hold the same registers and give the same Count and Merge results. A
// sparse counter converts to dense once a new index would take it past
// sparseLimit(p) pairs (m/16: 128 pairs, 512 B, at p=11), and stays dense.
// NewHLL counters are dense from the start; the per-key payloads of
// TopKDistinct are born sparse, since most of them only ever see a few
// items.
type HLL struct {
	p     uint8
	regs  []uint8  // dense register file; nil while the counter is sparse
	pairs []uint32 // sparse registers; capacity kept while dense, for reuse
}

// sparseInitCap is the pair capacity a sparse counter starts with: most
// per-key counters never hold more than a few non-zero registers.
const sparseInitCap = 4

// sparseLimit is the most pairs a sparse counter at precision p holds:
// m/16, a quarter of the register file's bytes. Count's linear-counting
// shortcut needs at most m/2.
func sparseLimit(p uint8) int { return 1 << (p - 4) }

// NewHLL returns a dense HyperLogLog with 2^p registers, 4 <= p <= 18.
func NewHLL(p uint8) *HLL {
	checkPrecision(p)
	return &HLL{p: p, regs: make([]uint8, 1<<p)}
}

// newSparseHLL returns an empty sparse HyperLogLog with 2^p registers.
func newSparseHLL(p uint8) *HLL {
	checkPrecision(p)
	return &HLL{p: p, pairs: make([]uint32, 0, sparseInitCap)}
}

func checkPrecision(p uint8) {
	if p < 4 || p > 18 {
		panic("sketch: HLL precision out of range [4,18]")
	}
}

// mix applies a 64-bit finalizer so that sequential IDs are safe to Add.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add implements Distinct.
func (h *HLL) Add(item uint64) {
	x := mix(item)
	idx := x >> (64 - h.p)
	w := x<<h.p | 1<<(h.p-1) // ensure termination
	rho := uint8(1)
	for w&(1<<63) == 0 {
		rho++
		w <<= 1
	}
	if h.regs == nil {
		h.addPair(uint32(idx)<<8 | uint32(rho))
		return
	}
	if rho > h.regs[idx] {
		h.regs[idx] = rho
	}
}

// addPair raises one register of a sparse counter to at least the pair's
// value, converting the counter to dense if a new index would take it past
// sparseLimit.
func (h *HLL) addPair(pair uint32) {
	// Stored pairs have a non-zero value, so the bare index sorts before
	// its own pair and the search lands on it.
	i, _ := slices.BinarySearch(h.pairs, pair&^0xff)
	if i < len(h.pairs) && h.pairs[i]>>8 == pair>>8 {
		h.pairs[i] = max(h.pairs[i], pair)
		return
	}
	if len(h.pairs) == sparseLimit(h.p) {
		h.densify()
		h.regs[pair>>8] = uint8(pair) // a new index: its register was 0
		return
	}
	h.pairs = slices.Insert(h.pairs, i, pair)
}

// densify converts a sparse counter to the dense register file.
func (h *HLL) densify() {
	h.regs = h.registers()
	h.pairs = h.pairs[:0]
}

// pow2neg[r] is 2^-r, the harmonic-mean term of a register holding r. The
// entries are the exact values math.Ldexp(1, -r) returns, so summing them
// in register order is bit-identical to calling Ldexp per register.
var pow2neg = func() (t [256]float64) {
	for r := range t {
		t[r] = math.Ldexp(1, -r)
	}
	return t
}()

// Count implements Distinct.
//
// A sparse counter answers in O(1), bit-identically to the dense loop
// below. It holds at most m/16 pairs, so at least m/2 registers are zero.
// Each zero register adds exactly 1 to the dense loop's ordered sum, every
// other term is positive, and round-to-nearest is monotone, so the
// computed sum is at least zeros >= m/2 (small integers are exact). The
// raw estimate alpha*m*m/sum is then at most 2*alpha*m < 2.5*m, and the
// dense loop always takes the linear-counting branch, whose value depends
// on m and zeros alone.
func (h *HLL) Count() float64 {
	if h.regs == nil {
		m := 1 << h.p
		return float64(m) * math.Log(float64(m)/float64(m-len(h.pairs)))
	}
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += pow2neg[r]
		if r == 0 {
			zeros++
		}
	}
	est := alpha(len(h.regs)) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		return m * math.Log(m/float64(zeros))
	}
	return est
}

func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// Merge implements Distinct. The merged registers are the byte-wise
// maximum of both counters' registers, in either form. A sparse counter
// stays sparse while the union of both sides' non-zero registers fits in
// sparseLimit pairs, and otherwise converts to dense. Dense registers are
// combined eight at a time with a word-wide bytewise maximum, which is
// exact because no register exceeds maxRegister (< 128).
func (h *HLL) Merge(other Distinct) {
	o, ok := other.(*HLL)
	if !ok || o.p != h.p {
		panic("sketch: merging incompatible HLLs")
	}
	switch {
	case o.regs == nil && h.regs == nil:
		h.mergePairs(o.pairs)
		return
	case o.regs == nil:
		raise(h.regs, o.pairs)
		return
	case h.regs == nil:
		h.densify()
	}
	a, b := h.regs, o.regs[:len(h.regs)]
	for len(a) >= 8 {
		x, y := binary.LittleEndian.Uint64(a), binary.LittleEndian.Uint64(b)
		binary.LittleEndian.PutUint64(a, maxBytes(x, y))
		a, b = a[8:], b[8:]
	}
}

// mergePairs folds sorted pairs b into a sparse counter: a merge of two
// sorted lists, keeping the larger value where an index is on both sides.
// It writes from the back, so the result takes h.pairs' place in its own
// backing array (grown when short) and b may be h.pairs itself.
func (h *HLL) mergePairs(b []uint32) {
	a := h.pairs
	n := len(a) + len(b)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch x, y := a[i]>>8, b[j]>>8; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			n--
			i++
			j++
		}
	}
	if n > sparseLimit(h.p) {
		h.densify()
		raise(h.regs, b)
		return
	}
	out := slices.Grow(a, n-len(a))[:n]
	i, j := len(a)-1, len(b)-1
	for k := n - 1; j >= 0; k-- {
		switch {
		case i >= 0 && a[i]>>8 > b[j]>>8:
			out[k] = a[i]
			i--
		case i >= 0 && a[i]>>8 == b[j]>>8:
			out[k] = max(a[i], b[j])
			i--
			j--
		default:
			out[k] = b[j]
			j--
		}
	}
	h.pairs = out
}

// maxBytes returns the bytewise maximum of x and y, every byte of which
// must be below 128. Per byte, (x|0x80)-y cannot borrow from its neighbour
// and keeps its high bit exactly when x >= y; that bit, spread to the whole
// byte, selects x or y.
func maxBytes(x, y uint64) uint64 {
	const hi = 0x8080808080808080
	ge := ((x | hi) - y) & hi
	mask := (ge >> 7) * 0xff
	return x&mask | y&^mask
}

// maxRegister returns the largest value Add can store in a register at
// precision p: Add's guard bit caps the leading-zero run at 64-p.
func maxRegister(p uint8) uint8 { return 65 - p }

// Reset implements Distinct. A sparse counter keeps its pair capacity; a
// dense one keeps its form.
func (h *HLL) Reset() {
	h.pairs = h.pairs[:0]
	clear(h.regs)
}

// resetSparse empties the counter into the sparse form, keeping the pair
// capacity and dropping a dense register file.
func (h *HLL) resetSparse() {
	h.regs = nil
	h.pairs = h.pairs[:0]
}

// Precision returns the register exponent p.
func (h *HLL) Precision() uint8 { return h.p }

// MemBytes returns the footprint of the form the registers are held in:
// the register file when dense, four bytes per pair when sparse. It is a
// pure function of the counter's form and contents, never of spare
// capacity, so it is safe for deterministic gauges.
func (h *HLL) MemBytes() int {
	if h.regs == nil {
		return 4 * len(h.pairs)
	}
	return len(h.regs)
}

// registers returns the dense register file the counter stands for: its
// own when dense, a fresh copy when sparse.
func (h *HLL) registers() []uint8 {
	if h.regs != nil {
		return h.regs
	}
	regs := make([]uint8, 1<<h.p)
	raise(regs, h.pairs)
	return regs
}

// raise lifts each register a pair names to at least the pair's value.
func raise(regs []uint8, pairs []uint32) {
	for _, e := range pairs {
		regs[e>>8] = max(regs[e>>8], uint8(e))
	}
}
