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
type HLL struct {
	p    uint8
	regs []uint8
}

// NewHLL returns a HyperLogLog with 2^p registers, 4 <= p <= 18.
func NewHLL(p uint8) *HLL {
	if p < 4 || p > 18 {
		panic("sketch: HLL precision out of range [4,18]")
	}
	return &HLL{p: p, regs: make([]uint8, 1<<p)}
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
	if rho > h.regs[idx] {
		h.regs[idx] = rho
	}
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
func (h *HLL) Count() float64 {
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

// Merge implements Distinct. Registers are combined eight at a time with a
// word-wide bytewise maximum, which is exact because no register exceeds
// maxRegister (< 128).
func (h *HLL) Merge(other Distinct) {
	o, ok := other.(*HLL)
	if !ok || o.p != h.p {
		panic("sketch: merging incompatible HLLs")
	}
	a, b := h.regs, o.regs[:len(h.regs)]
	for len(a) >= 8 {
		x, y := binary.LittleEndian.Uint64(a), binary.LittleEndian.Uint64(b)
		binary.LittleEndian.PutUint64(a, maxBytes(x, y))
		a, b = a[8:], b[8:]
	}
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

// Reset implements Distinct.
func (h *HLL) Reset() { clear(h.regs) }

// Precision returns the register exponent p.
func (h *HLL) Precision() uint8 { return h.p }

// MemBytes returns the register array footprint, a pure function of the
// precision (safe for deterministic gauges).
func (h *HLL) MemBytes() int { return len(h.regs) }
