package sketch

import (
	"fmt"
	"slices"

	"toplists/internal/snapshot"
)

// Distinct serialization: checkpoints need to persist month-spanning
// distinct counters (e.g. Chrome's per-country visitor sets) in whichever
// representation the run uses. The encoding is a tagged union — Exact
// carries its sorted key set, HLL its precision and register file (a
// sparse HLL writes the dense registers it stands for, and decodes dense)
// — and is canonical: the same logical state always encodes to the same
// bytes, and DecodeDistinct accepts only canonical bytes.

const (
	distinctExact = 0
	distinctHLL   = 1
)

// EncodeDistinct appends d's canonical encoding to e.
func EncodeDistinct(e *snapshot.Encoder, d Distinct) {
	switch v := d.(type) {
	case *Exact:
		e.Uvarint(distinctExact)
		keys := make([]uint64, 0, len(v.seen))
		for k := range v.seen {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		e.Uvarint(uint64(len(keys)))
		// Delta-encode the sorted keys; random 64-bit hashes still cost
		// ~9 bytes each, but clustered key spaces compress well.
		var prev uint64
		for _, k := range keys {
			e.Uvarint(k - prev)
			prev = k
		}
	case *HLL:
		// Either form encodes as the register file it stands for.
		e.Uvarint(distinctHLL)
		e.Uvarint(uint64(v.p))
		e.Bytes(v.registers())
	default:
		panic(fmt.Sprintf("sketch: cannot encode Distinct of type %T", d))
	}
}

// DecodeDistinct reads one Distinct encoded by EncodeDistinct. It accepts
// only the canonical bytes EncodeDistinct writes: the decoder rejects
// non-minimal varints, and an unsorted key set would decode to a state
// that encodes differently.
func DecodeDistinct(d *snapshot.Decoder) (Distinct, error) {
	switch tag := d.Uvarint(); tag {
	case distinctExact:
		n := d.Len(1)
		ex := &Exact{seen: make(map[uint64]struct{}, n)}
		var prev uint64
		for i := 0; i < n; i++ {
			// Keys are strictly ascending: after the first, a zero delta
			// repeats a key and a wrapping one goes back down.
			delta := d.Uvarint()
			if d.Err() != nil {
				break
			}
			if i > 0 && (delta == 0 || prev+delta < prev) {
				return nil, fmt.Errorf("%w: Exact distinct keys not strictly ascending", snapshot.ErrCorrupt)
			}
			prev += delta
			ex.seen[prev] = struct{}{}
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		return ex, nil
	case distinctHLL:
		p := d.Uvarint()
		regs := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if p < 4 || p > 18 || len(regs) != 1<<p {
			return nil, fmt.Errorf("%w: HLL precision %d with %d registers", snapshot.ErrCorrupt, p, len(regs))
		}
		// Add never stores more than maxRegister, and Merge's word-wide
		// maximum relies on it, so a larger byte can only be corruption.
		limit := maxRegister(uint8(p))
		for i, r := range regs {
			if r > limit {
				return nil, fmt.Errorf("%w: HLL register %d holds %d, above %d", snapshot.ErrCorrupt, i, r, limit)
			}
		}
		return &HLL{p: uint8(p), regs: regs}, nil
	default:
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: unknown Distinct tag %d", snapshot.ErrCorrupt, tag)
	}
}
